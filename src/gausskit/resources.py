"""Clifford+T cost model and whole-circuit expected T-depth.

Rotation synthesis costs follow the standard single-qubit bound of
1.15*log2(1/eps) + 9.2 T gates.  A controlled rotation splits into two
rotations at eps/2 (2.3*log2(1/eps) + 20.7); a doubly-controlled rotation
adds a Toffoli pair worth 4 T gates (2.3*log2(1/eps) + 24.7).  Costs stay
real-valued so figures remain comparable across budgets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simulator
from .builders import layered_full_gaussian
from .circuit import Circuit, LayeredCircuit, MeasureBarrier
from .gates import (CLIFFORD_KINDS, ROTATION_KINDS, Gate, GaussianSpec,
                    ParameterError)
from .optimizer import (ErrorBudget, expected_t_depth, order_layers,
                        prune_layered)

TOFFOLI_PAIR_T = 4.0


class CostModel:
    """T-count of a rotation synthesized to accuracy epsilon, by control count."""

    @staticmethod
    def single_rotation(epsilon: float) -> float:
        _check_epsilon(epsilon)
        return 1.15 * math.log2(1.0 / epsilon) + 9.2

    @staticmethod
    def controlled_rotation(epsilon: float) -> float:
        _check_epsilon(epsilon)
        return 2.3 * math.log2(1.0 / epsilon) + 20.7

    @staticmethod
    def doubly_controlled(epsilon: float) -> float:
        _check_epsilon(epsilon)
        return 2.3 * math.log2(1.0 / epsilon) + 24.7


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"synthesis accuracy must lie in (0, 1), got {epsilon}")


def gate_t_cost(gate: Gate, epsilon: float) -> tuple[float, float]:
    """(T-count, T-depth) of one gate synthesized to accuracy epsilon.

    Cliffords are free.  A doubly-controlled rotation's depth is priced at
    its full T-count: the resource pipeline charges each measurement round
    2.3*log2(1/eps) + 24.7, the Toffoli pair included.
    """
    if gate.kind in CLIFFORD_KINDS:
        return (0.0, 0.0)
    n_ctl = len(gate.controls)
    if n_ctl == 0:
        cost = CostModel.single_rotation(epsilon)
    elif n_ctl == 1:
        cost = CostModel.controlled_rotation(epsilon)
    elif n_ctl == 2:
        cost = CostModel.doubly_controlled(epsilon)
    else:
        raise ParameterError(
            "no cost model for rotations with more than two controls")
    return (cost, cost)


def _has_rotation(circuit: Circuit) -> bool:
    return any(g.kind in ROTATION_KINDS for g in circuit.gates())


def layered_t_depth(layered: LayeredCircuit, budget: ErrorBudget
                    ) -> tuple[float, list[float]]:
    """(prelude depth n0, per-layer depths n_k).

    The prelude's uncontrolled rotations run in parallel: one
    single-rotation depth (zero if pruning replaced them all with
    Cliffords).  Each layer's gates occupy disjoint qubits, so the layer
    costs one doubly-controlled depth at the controlled budget.
    """
    n0 = (CostModel.single_rotation(budget.delta_single)
          if _has_rotation(layered.prelude) else 0.0)
    nks = [CostModel.doubly_controlled(budget.delta_controlled)
           for _ in layered.layers]
    return n0, nks


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
        _, depth = gate_t_cost(elem, budget.delta_for(elem))
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
    subnormalization: float
    layer_probs: tuple[float, ...]
    expected_t_depth: float
    ordering: tuple[int, ...]
    pruned_gates: int
    seed: int


@dataclass(frozen=True)
class _PackedRun:
    """One gate budget's pruned circuit, its core-register model and the
    error of the model's state: what ordering and pricing need."""

    layered: LayeredCircuit
    budget: ErrorBudget
    model: simulator.GaussianLayerModel
    pruned_gates: int
    eps: float


def estimate(spec: GaussianSpec, *, target_error: float | None = None,
             seed: int = 0, order: str = "optimal", alloc: str = "2to1"
             ) -> EstimateReport:
    """Build, prune, pack, simulate, order, and price a Gaussian preparation.

    The layered circuit is built once.  Every gate budget then runs one
    pipeline: prune windows below the budget, draw noise from ``seed`` in
    gate order of the pruned circuit, build the core-register model and
    take the error from its state.  The windows commute, so that state,
    and the error, are the same in every layer order.  Two passes over
    real weights then give the packed-order probabilities, which pick the
    layer order, and the probabilities in that order, which price it.

    With ``target_error`` set, the gate budget is bisected over 15 states
    to the largest delta whose error stays at or below the target, and the
    accepted candidate's run is reused; a fixed budget builds one state.
    Pruning removes more gates as delta grows, so later gates get
    different noise axes from one candidate to the next and the error need
    not be monotone in delta; the search is deterministic under the seed,
    not stable across pruning boundaries.  Keying each draw by the gate's
    position in the unpruned circuit fixes this (ROADMAP.md, open item 4).
    """
    alpha = spec.derived_alpha
    full = layered_full_gaussian(spec.n_qubits, alpha)
    ideal = simulator.ideal_core_half_shifted(spec.n_qubits - 1, alpha)
    if target_error is None:
        run = _packed_run(full, spec.gate_error, seed, alloc, ideal)
    else:
        run = _search_delta(full, target_error, seed, alloc, ideal)

    n0, nks = layered_t_depth(run.layered, run.budget)
    packed = run.model.probs(range(len(nks))).tolist()
    permutation = _pick_order(order, nks, packed, seed)
    probs = run.model.probs(permutation).tolist()
    et = expected_t_depth(n0, list(zip(nks, probs)))
    gamma2 = float(np.prod(probs)) if probs else 1.0
    return EstimateReport(
        n_qubits=spec.n_qubits,
        alpha=alpha,
        beta=spec.beta,
        delta=run.budget.delta_gate,
        l2_error=run.eps,
        subnormalization=math.sqrt(gamma2),
        layer_probs=tuple(probs),
        expected_t_depth=et,
        ordering=permutation,
        pruned_gates=run.pruned_gates,
        seed=seed,
    )


def _budget(delta: float, alloc: str) -> ErrorBudget:
    if alloc == "2to1":
        return ErrorBudget.two_to_one(delta)
    if alloc == "uniform":
        return ErrorBudget.uniform(delta)
    raise ParameterError(f"unknown allocation scheme {alloc!r}")


def _packed_run(full: LayeredCircuit, delta: float, seed: int, alloc: str,
                ideal: np.ndarray) -> _PackedRun:
    """The run of the unpruned circuit ``full`` at gate budget ``delta``;
    its core state is dropped on return, before the next candidate builds
    its own."""
    budget = _budget(delta, alloc)
    layered, prune_info = prune_layered(full, budget)
    rng = np.random.default_rng(seed)
    noise = simulator.realize_noise(layered.to_circuit().gates(), budget, rng)
    model = simulator.GaussianLayerModel(layered, noise=noise)
    eps = simulator.l2_error(ideal, model.state())
    return _PackedRun(layered, budget, model, prune_info.total, eps)


def _search_delta(full: LayeredCircuit, target_error: float, seed: int,
                  alloc: str, ideal: np.ndarray) -> _PackedRun:
    """The run at the largest bisected delta meeting ``target_error``."""
    lo, hi = -15.0, math.log10(0.05)
    accepted = _packed_run(full, 10.0 ** lo, seed, alloc, ideal)
    if accepted.eps > target_error:
        raise ParameterError(
            f"target error {target_error} unreachable even at delta=1e-15")
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        run = _packed_run(full, 10.0 ** mid, seed, alloc, ideal)
        if run.eps <= target_error:
            lo, accepted = mid, run
        else:
            hi = mid
    return accepted


def _pick_order(order: str, nks: list[float], probs: list[float],
                seed: int) -> tuple[int, ...]:
    if order == "identity":
        return tuple(range(len(probs)))
    if order == "random":
        rng = np.random.default_rng(seed)
        return tuple(int(i) for i in rng.permutation(len(probs)))
    if order == "optimal":
        plan = order_layers(list(zip(nks, probs)))
        return plan.permutation
    raise ParameterError(f"unknown ordering scheme {order!r}")
