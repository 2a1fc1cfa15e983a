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
from .builders import layered_full_gaussian
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
    depth per layer.
    """
    def stage(gates) -> float:
        return max((_gate_t_depth(g, budget) for g in gates), default=0.0)

    return (stage(layered.prelude.gates()),
            [stage(layer.gates) for layer in layered.layers])


def circuit_t_depth(circuit: Circuit, budget: ErrorBudget) -> float:
    """T-depth of a flat circuit: rotations pack greedily into parallel
    stages of disjoint qubits; Cliffords are transparent; each stage costs
    its most expensive gate."""
    total = 0.0
    stage_cost = 0.0
    stage_qubits: set[int] = set()

    def flush() -> None:
        nonlocal total, stage_cost, stage_qubits
        total += stage_cost
        stage_cost = 0.0
        stage_qubits = set()

    for elem in circuit.elements:
        if isinstance(elem, MeasureBarrier):
            flush()
            continue
        if elem.kind in CLIFFORD_KINDS:
            continue
        depth = _gate_t_depth(elem, budget)
        if stage_qubits & set(elem.qubits):
            flush()
        stage_cost = max(stage_cost, depth)
        stage_qubits |= set(elem.qubits)
    flush()
    return total


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

    Once capacity is checked, the layered circuit is built and read once
    into a ``simulator.CoreTable``.  Every gate budget then runs one probe of
    array operations: prune the table's rows against the budget, draw
    noise from ``seed`` in gate order of the pruned circuit, fill the
    core-register model ``simulator.GaussianLayerModel(table, kept, noise)``
    and take the error from its state.  The windows
    commute, so that state, and the error, are the same in every layer
    order.  The accepted budget's pruned circuit prices the run, and the
    real weights give the probabilities in packed order, which pick the
    optimal layer order (the identity order reads them as they are, a
    random order does not need them), and the probabilities in the chosen
    order.

    With ``target_error`` set, the gate budget is searched on the grid a
    14-halving bisection of log10 delta over [-15, log10 0.05] lands on:
    secant probes find a grid delta whose error meets the target while the
    next grid point's does not, and the accepted candidate's run is
    reused.  Wherever the error crosses the target once, that is the
    bisection's delta, bit for bit, from 3 to 5 states instead of 15 (100
    benchmark seeds at n = 19); a fixed budget builds one state.  Pruning
    removes more gates as delta grows, so later gates get different noise
    axes from one candidate to the next and the error need not be
    monotone in delta; the search is deterministic under the seed, not
    stable across pruning boundaries.  Keying each draw by the gate's
    position in the unpruned circuit fixes this (ROADMAP.md, open item 3).
    """
    if order not in ("optimal", "identity", "random"):
        raise ParameterError(f"unknown ordering scheme {order!r}")
    alpha = spec.derived_alpha
    full, table, ideal = _read_spec(spec.n_qubits, alpha)
    if target_error is None:
        run = _packed_run(table, spec.gate_error, seed, alloc, ideal)
    else:
        run = _search_delta(table, target_error, seed, alloc, ideal)

    layered, pruned = prune_layered(full, run.budget)
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
        delta=run.budget.delta_gate,
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
    spec run: ``estimate``'s probe at the zero budget, which prunes
    nothing, as every prune distance is at least 0, and draws no noise."""
    _, table, ideal = _read_spec(n_qubits, alpha)
    run = _packed_run(table, 0.0, 0, "uniform", ideal)
    probs = run.model.probs(range(run.model.n_layers))
    return simulator.SimReport(tuple(probs.tolist())), run.eps


def _read_spec(n_qubits: int, alpha: float
               ) -> tuple[LayeredCircuit, simulator.CoreTable, np.ndarray]:
    """A spec run's unpruned layered circuit, its ``CoreTable`` and the
    ideal core state, once the run's capacity is checked."""
    simulator.check_spec_capacity(n_qubits - 1)
    full = layered_full_gaussian(n_qubits, alpha)
    return (full, simulator.CoreTable(full),
            simulator.ideal_core_half_shifted(n_qubits - 1, alpha))


def _budget(delta: float, alloc: str) -> ErrorBudget:
    if alloc == "2to1":
        return ErrorBudget.two_to_one(delta)
    if alloc == "uniform":
        return ErrorBudget.uniform(delta)
    raise ParameterError(f"unknown allocation scheme {alloc!r}")


def _packed_run(table: simulator.CoreTable, delta: float, seed: int,
                alloc: str, ideal: np.ndarray) -> _PackedRun:
    """The run of the unpruned circuit read into ``table`` at gate budget
    ``delta``; its core state is dropped on return, before the next
    candidate builds its own."""
    budget = _budget(delta, alloc)
    kept = table.kept(budget)
    noise = table.draw_noise(budget, kept, np.random.default_rng(seed))
    model = simulator.GaussianLayerModel(table, kept, noise)
    eps = simulator.l2_error(ideal, model.state())
    return _PackedRun(budget, model, eps)


def _search_delta(table: simulator.CoreTable, target_error: float,
                  seed: int, alloc: str, ideal: np.ndarray) -> _PackedRun:
    """The run at the grid delta ``_grid_search`` finds for ``target_error``."""
    runs: dict[int, _PackedRun] = {}

    def eps_at(k: int) -> float:
        runs[k] = _packed_run(table, 10.0 ** _grid_log_delta(k), seed, alloc,
                              ideal)
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
    its midpoint, so each halving costs at most three probes: at most
    3 * 14 probes after k = 0.
    """
    lo, hi = 0, 1 << _GRID_BITS
    eps = eps_at(lo)
    if eps > target_error:
        raise ParameterError(
            f"target error {target_error} unreachable even at delta=1e-15")
    x, y = _grid_log_delta(lo), _log_ratio(eps, target_error)
    prev = None  # (x, y) of the probe before (x, y)
    stalls = 0
    while hi - lo > 1:
        slope = 1.0 if prev is None else (y - prev[1]) / (x - prev[0])
        if stalls < 2 and 0.0 < slope < math.inf:
            # lo plus the grid points in (lo, hi) at or below the guess
            k = lo + bisect.bisect_right(range(lo + 1, hi), x - y / slope,
                                         key=_grid_log_delta)
            k = max(k, lo + 1)
        else:
            k = (lo + hi) // 2
        width = hi - lo
        eps = eps_at(k)
        if eps <= target_error:
            lo = k
        else:
            hi = k
        stalls = 0 if 2 * (hi - lo) <= width + 1 else stalls + 1
        prev, x, y = (x, y), _grid_log_delta(k), _log_ratio(eps, target_error)
    return lo


def _log_ratio(eps: float, target_error: float) -> float:
    return math.log10(eps / target_error) if eps > 0.0 else -math.inf
