"""Clifford+T cost model and whole-circuit expected T-depth.

Rotation synthesis costs follow the standard single-qubit bound of
1.15*log2(1/eps) + 9.2 T gates.  A controlled rotation splits into two
rotations at eps/2 (2.3*log2(1/eps) + 20.7); a doubly-controlled rotation
adds a Toffoli pair worth 4 T gates (2.3*log2(1/eps) + 24.7).  Costs stay
real-valued so figures remain comparable across budgets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .circuit import Circuit, LayeredCircuit, MeasureBarrier
from .gates import Gate, GateKind, GaussianSpec, ParameterError
from .optimizer import (ErrorBudget, expected_t_depth, order_layers,
                        prune_layered, qubit_threshold)

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
    if gate.kind in (GateKind.H, GateKind.X, GateKind.CNOT):
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
    return any(g.kind in (GateKind.A, GateKind.B, GateKind.Z)
               for g in circuit.gates())


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
        if elem.kind in (GateKind.H, GateKind.X, GateKind.CNOT):
            continue
        eps = (budget.delta_single if not elem.controls
               else budget.delta_controlled)
        _, depth = gate_t_cost(elem, eps)
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


def estimate(spec: GaussianSpec, *, target_error: float | None = None,
             seed: int = 0, order: str = "optimal", alloc: str = "2to1",
             prune: bool = True) -> EstimateReport:
    """Build, prune, pack, simulate, order, and price a Gaussian preparation.

    With ``target_error`` set, the gate budget is bisected to the largest
    delta whose simulated error stays at or below the target.  Each
    candidate redraws its noise from ``seed`` in gate order of its own
    pruned circuit.  Pruning removes more gates as delta grows, so later
    gates get different noise axes from one candidate to the next and the
    error need not be monotone in delta; the search is deterministic under
    the seed, not stable across pruning boundaries.  Keying each draw by
    the gate's position in the unpruned circuit fixes this (ROADMAP.md,
    open item 3).
    """
    if spec.mode != "full":
        raise ParameterError("resource estimation covers full-Gaussian mode")
    delta = spec.gate_error
    if target_error is not None:
        delta = _search_delta(spec, target_error, seed, alloc, prune)
        spec = dc_replace(spec, gate_error=delta)
    return _estimate_fixed(spec, seed=seed, order=order, alloc=alloc,
                           prune=prune)


def spec_from_threshold(alpha: float, gate_error: float,
                        mode: str = "full") -> GaussianSpec:
    """GaussianSpec sized by the qubit threshold for (alpha, gate_error)."""
    n = qubit_threshold(alpha, gate_error)
    return GaussianSpec(n_qubits=n, alpha=alpha, gate_error=gate_error, mode=mode)


def _budget(delta: float, alloc: str) -> ErrorBudget:
    if alloc == "2to1":
        return ErrorBudget.two_to_one(delta)
    if alloc == "uniform":
        return ErrorBudget.uniform(delta)
    raise ParameterError(f"unknown allocation scheme {alloc!r}")


def _noisy_core_error(spec: GaussianSpec, delta: float, seed: int,
                      alloc: str, prune: bool) -> float:
    """Simulated error at one candidate budget, on the core register only
    (the symmetrizing postlude is an isometry, so the error is the same)."""
    from . import simulator
    from .builders import layered_full_gaussian

    alpha = spec.derived_alpha
    layered = layered_full_gaussian(spec.n_qubits, alpha)
    budget = _budget(delta, alloc)
    if prune:
        layered, _ = prune_layered(layered, budget)
    rng = np.random.default_rng(seed)
    noise = simulator.realize_noise(layered.to_circuit().gates(), budget, rng)
    state, _ = simulator.core_pipeline(layered, noise=noise)
    ideal = simulator.ideal_core_half_shifted(spec.n_qubits - 1, alpha)
    return simulator.l2_error(ideal, state)


def _search_delta(spec: GaussianSpec, target_error: float, seed: int,
                  alloc: str, prune: bool) -> float:
    lo, hi = -15.0, math.log10(0.05)
    if _noisy_core_error(spec, 10.0 ** lo, seed, alloc, prune) > target_error:
        raise ParameterError(
            f"target error {target_error} unreachable even at delta=1e-15")
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        if _noisy_core_error(spec, 10.0 ** mid, seed, alloc, prune) <= target_error:
            lo = mid
        else:
            hi = mid
    return 10.0 ** lo


def _estimate_fixed(spec: GaussianSpec, *, seed: int, order: str, alloc: str,
                    prune: bool) -> EstimateReport:
    from . import simulator
    from .builders import layered_full_gaussian

    alpha = spec.derived_alpha
    delta = spec.gate_error
    budget = _budget(delta, alloc)
    layered = layered_full_gaussian(spec.n_qubits, alpha)
    pruned_gates = 0
    if prune:
        layered, prune_info = prune_layered(layered, budget)
        pruned_gates = prune_info.total
    rng = np.random.default_rng(seed)
    noise = simulator.realize_noise(layered.to_circuit().gates(), budget, rng)

    n0, nks = layered_t_depth(layered, budget)
    _, probs_packed = simulator.core_pipeline(layered, noise=noise)
    permutation = _pick_order(order, nks, probs_packed, seed)

    # the symmetrizing postlude is an isometry, so error and success
    # probabilities are fully determined on the core register
    state, probs = simulator.core_pipeline(layered, noise=noise,
                                           order=permutation)
    ideal = simulator.ideal_core_half_shifted(spec.n_qubits - 1, alpha)
    eps = simulator.l2_error(ideal, state)
    et = expected_t_depth(n0, list(zip(nks, probs)))
    gamma2 = float(np.prod(probs)) if probs else 1.0
    return EstimateReport(
        n_qubits=spec.n_qubits,
        alpha=alpha,
        beta=spec.beta,
        delta=delta,
        l2_error=eps,
        subnormalization=math.sqrt(gamma2),
        layer_probs=tuple(probs),
        expected_t_depth=et,
        ordering=permutation,
        pruned_gates=pruned_gates,
        seed=seed,
    )


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
