"""Clifford+T cost model and whole-circuit expected T-depth.

One cost table prices every rotation by its number of controls.
Rotation synthesis follows the standard single-qubit bound of
1.15*log2(1/eps) + 9.2 T gates.  A controlled rotation splits into two
rotations at eps/2 (2.3*log2(1/eps) + 20.7); a doubly-controlled rotation
adds a Toffoli pair worth 4 T gates (2.3*log2(1/eps) + 24.7).  Costs stay
real-valued so figures remain comparable across budgets.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import simulator
from .circuit import Circuit, LayeredCircuit, MeasureBarrier
from .gates import CLIFFORD_KINDS, Gate, GaussianSpec, ParameterError
from .optimizer import (ErrorBudget, expected_t_depth, order_layers,
                        prune_layered)


# (slope, offset) of a rotation's T-count by its number of controls
_T_COST = ((1.15, 9.2), (2.3, 20.7), (2.3, 24.7))


def rotation_t_cost(epsilon: float, n_controls: int) -> float:
    """T-count of a rotation with ``n_controls`` controls synthesized to
    accuracy ``epsilon``; a doubly-controlled rotation's depth is priced at
    this full count, the Toffoli pair included."""
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"synthesis accuracy must lie in (0, 1), got {epsilon}")
    if n_controls >= len(_T_COST):
        raise ParameterError(
            "no cost model for rotations with more than two controls")
    slope, offset = _T_COST[n_controls]
    return slope * math.log2(1.0 / epsilon) + offset


def _gate_t_depth(gate: Gate, budget: ErrorBudget) -> float:
    """T-depth of one gate at its budget: Cliffords are free."""
    if gate.kind in CLIFFORD_KINDS:
        return 0.0
    return rotation_t_cost(budget.delta_for(gate), len(gate.controls))


def layered_t_depth(layered: LayeredCircuit, budget: ErrorBudget
                    ) -> tuple[float, list[float]]:
    """(prelude depth n0, per-layer depths n_k).

    The prelude's uncontrolled rotations run in parallel, and each layer's
    gates occupy disjoint qubits, so each is one stage, which costs its
    most expensive gate: one single-rotation depth for the prelude (zero if
    pruning replaced every rotation with Cliffords), one doubly-controlled
    depth per layer.  A gate's depth depends only on its class, whether it
    is a Clifford and its control count, so a stage prices one gate of
    each class it holds; a layer holds doubly-controlled B gates only.
    """
    def stage(gates) -> float:
        classes = {(g.kind in CLIFFORD_KINDS, len(g.controls)): g
                   for g in gates}
        return max((_gate_t_depth(g, budget) for g in classes.values()),
                   default=0.0)

    return (stage(layered.prelude.gates()),
            [stage(layer.gates[:1]) for layer in layered.layers])


def circuit_t_depth(circuit: Circuit, budget: ErrorBudget) -> float:
    """T-depth of a flat circuit: rotations pack greedily into parallel
    stages of disjoint qubits; Cliffords are transparent; each stage costs
    its most expensive gate; a barrier closes the stage."""
    total = stage_cost = 0.0
    stage_qubits: set[int] = set()
    for elem in circuit.elements:
        if isinstance(elem, MeasureBarrier):
            total, stage_cost, stage_qubits = total + stage_cost, 0.0, set()
        elif elem.kind not in CLIFFORD_KINDS:
            qubits = elem.qubits
            if not stage_qubits.isdisjoint(qubits):
                total, stage_cost, stage_qubits = total + stage_cost, 0.0, set()
            stage_cost = max(stage_cost, _gate_t_depth(elem, budget))
            stage_qubits.update(qubits)
    return total + stage_cost


@dataclass(frozen=True)
class EstimateReport:
    """Everything the end-to-end pipeline measured for one parameter point."""

    n_qubits: int
    alpha: float
    beta: float | None
    delta: float
    l2_error: float
    layer_probs: tuple[float, ...]
    expected_t_depth: float
    ordering: tuple[int, ...]
    pruned_gates: int
    seed: int

    @property
    def subnormalization(self) -> float:
        return simulator.subnormalization(self.layer_probs)


@dataclass(frozen=True)
class _PackedRun:
    """One gate budget's core-register model and the error of its state:
    what ordering and pricing need."""

    budget: ErrorBudget
    model: simulator.GaussianLayerModel
    eps: float


def estimate(spec: GaussianSpec, *, target_error: float | None = None,
             seed: int = 0, order: str = "optimal", alloc: str = "2to1"
             ) -> EstimateReport:
    """Build, prune, pack, simulate, order, and price a Gaussian preparation.

    ``order`` and ``alloc`` are checked first.  The spec's one
    ``simulator.CoreTable(n_qubits, alpha)`` then checks capacity, builds
    the unpruned layered circuit, reads its rows and holds the ideal core
    state as a product form.  Every gate budget then runs one probe of
    array operations: prune the table's rows against the budget, draw
    noise from ``seed`` in gate order of the pruned circuit, fill the
    core-register model ``simulator.GaussianLayerModel(table, kept,
    noise)`` and take the error of its state from the table's ideal,
    chunk by chunk (``GaussianLayerModel.error``): no probe builds the
    core state, and eps is the same under any BLAS thread count.  The
    windows commute, so that state, and the error, are the same in every
    layer order.  The table's circuit pruned at the accepted budget prices
    the run, and the real weights give the probabilities in packed order,
    which pick the optimal layer order (the identity order reads them as
    they are, a random order does not need them), and the probabilities
    in the chosen order.

    With ``target_error`` set, the gate budget is searched on the grid a
    14-halving bisection of log10 delta over [-15, log10 0.05] lands on:
    secant probes find a grid delta whose error meets the target while the
    next grid point's does not, and the accepted candidate's run is
    reused.  Wherever the error crosses the target once, that is the
    bisection's delta, bit for bit, from 3 or 4 probes instead of 15 (100
    benchmark seeds at n = 19); a fixed budget runs one probe.  Pruning
    removes more gates as delta grows, so later gates get different noise
    axes from one candidate to the next and the error need not be
    monotone in delta; the search is deterministic under the seed, not
    stable across pruning boundaries.  Keying each draw by the gate's
    position in the unpruned circuit fixes this (ROADMAP.md, open item 3).
    """
    if order not in ORDERS:
        raise ParameterError(f"unknown ordering scheme {order!r}")
    if alloc not in ALLOCS:
        raise ParameterError(f"unknown allocation scheme {alloc!r}")
    if target_error is not None and not 0.0 < target_error < math.inf:
        raise ParameterError(
            f"target_error must be finite and positive, got {target_error}")
    alpha = spec.derived_alpha
    table = simulator.CoreTable(spec.n_qubits, alpha)
    if target_error is None:
        run = _packed_run(table, spec.gate_error, seed, alloc)
    else:
        run = _search_delta(table, target_error, seed, alloc)

    layered, pruned = prune_layered(table.layered, run.budget)
    n0, nks = layered_t_depth(layered, run.budget)
    packed = range(len(nks))
    if order == "identity":
        permutation = tuple(packed)
    elif order == "random":
        rng = np.random.default_rng(seed)
        permutation = tuple(int(i) for i in rng.permutation(len(nks)))
    else:
        plan = order_layers(list(zip(nks, run.model.probs(packed).tolist())))
        permutation = plan.permutation
    probs = run.model.probs(permutation).tolist()
    et = expected_t_depth(n0, list(zip(nks, probs)))
    return EstimateReport(
        n_qubits=spec.n_qubits,
        alpha=alpha,
        beta=spec.beta,
        delta=run.budget.delta_single,
        l2_error=run.eps,
        layer_probs=tuple(probs),
        expected_t_depth=et,
        ordering=permutation,
        pruned_gates=pruned.total,
        seed=seed,
    )


def noiseless_run(n_qubits: int, alpha: float
                  ) -> tuple[simulator.SimReport, float]:
    """The layer probabilities in packed order and the error of a noiseless
    spec run: ``estimate``'s probe of ``simulator.CoreTable(n_qubits,
    alpha)`` at the zero budget, which prunes nothing, as every prune
    distance is at least 0, and draws no noise."""
    run = _packed_run(simulator.CoreTable(n_qubits, alpha), 0.0, 0, "uniform")
    probs = run.model.probs(range(run.model.n_layers))
    return simulator.SimReport(tuple(probs.tolist())), run.eps


# estimate's allocation schemes (a gate error's budget) and layer orders
ALLOCS = {"uniform": ErrorBudget.uniform, "2to1": ErrorBudget.two_to_one}
ORDERS = ("optimal", "random", "identity")


def _packed_run(table: simulator.CoreTable, delta: float, seed: int,
                alloc: str) -> _PackedRun:
    """The probe of ``table`` at gate budget ``delta``: its model and the
    error of its state, taken chunk by chunk with no core state built."""
    budget = ALLOCS[alloc](delta)
    kept = table.kept(budget)
    noise = table.draw_noise(budget, kept, np.random.default_rng(seed))
    model = simulator.GaussianLayerModel(table, kept, noise)
    return _PackedRun(budget, model, model.error())


def _search_delta(table: simulator.CoreTable, target_error: float,
                  seed: int, alloc: str) -> _PackedRun:
    """The run at the grid delta ``_grid_search`` finds for ``target_error``."""
    runs: dict[int, _PackedRun] = {}

    def eps_at(k: int) -> float:
        runs[k] = _packed_run(table, 10.0 ** _grid_log_delta(k), seed, alloc)
        return runs[k].eps

    return runs[_grid_search(eps_at, target_error)]


_GRID_BITS = 14


def _grid_log_delta(k: int) -> float:
    """log10 delta of grid point k in 0..2**14: the float that 14 halvings
    of [-15, log10 0.05] reach at k by the midpoint 0.5 * (lo + hi),
    replayed along k's bits from the highest; 2**14 is the top end."""
    lo, hi = -15.0, math.log10(0.05)
    if k == 1 << _GRID_BITS:
        return hi
    for bit in reversed(range(_GRID_BITS)):
        mid = 0.5 * (lo + hi)
        if k >> bit & 1:
            lo = mid
        else:
            hi = mid
    return lo


def _grid_search(eps_at: Callable[[int], float], target_error: float) -> int:
    """A grid point k whose error meets the target while k + 1 fails or is
    the never-evaluated top 2**14: the bisection's answer wherever the
    error crosses the target once, from fewer probes.

    The bracket (lo, hi) keeps lo meeting the target and hi failing or
    at the top.  Each probe is a secant step on log10 eps against log10
    delta through the last two probes (slope 1 from the first alone),
    floored to the grid and clamped strictly inside the bracket.  After
    two probes in a row that fail to halve the bracket the next probe is
    its midpoint.  At the first such pair of stalls only, a secant guess
    next to the end the last probe moved (lo + 1 after a new lo, hi - 1
    after a new hi) is probed instead: it closes the bracket when the
    secant has converged, and the midpoint follows when it does not.

    A halving takes width w to at most (w + 1) // 2 and a stall only
    shrinks the bracket, so after 13 halvings the width is at most 2 and
    the 14th window is one probe; each earlier window is at most two
    stalls and a midpoint.  That is at most 1 + 3 * 13 + 1 = 41 probes
    with k = 0.  The confirming probe cannot come at width 2, where the
    guess is the midpoint, and adds at most one probe to one window: 42.
    """
    lo, hi = 0, 1 << _GRID_BITS
    eps = eps_at(lo)
    if eps > target_error:
        raise ParameterError(
            f"target error {target_error} unreachable even at delta=1e-15")
    x, y = _grid_log_delta(lo), _log_ratio(eps, target_error)
    prev = None  # (x, y) of the probe before (x, y)
    stalls, met, offered = 0, True, False
    while hi - lo > 1:
        slope = 1.0 if prev is None else (y - prev[1]) / (x - prev[0])
        k = (lo + hi) // 2
        if 0.0 < slope < math.inf:
            # lo plus the grid points in (lo, hi) at or below the guess
            guess = max(lo + 1, lo + bisect.bisect_right(
                range(lo + 1, hi), x - y / slope, key=_grid_log_delta))
            if stalls < 2 or (not offered
                              and guess == (lo + 1 if met else hi - 1)):
                k = guess
        offered = offered or stalls >= 2
        width = hi - lo
        eps = eps_at(k)
        met = eps <= target_error
        if met:
            lo = k
        else:
            hi = k
        stalls = 0 if 2 * (hi - lo) <= width + 1 else stalls + 1
        prev, x, y = (x, y), _grid_log_delta(k), _log_ratio(eps, target_error)
    return lo


def _log_ratio(eps: float, target_error: float) -> float:
    return math.log10(eps / target_error) if eps > 0.0 else -math.inf
