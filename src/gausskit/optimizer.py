"""Circuit optimizations: error allocation, threshold pruning, layer
packing, and measurement-order optimization.

The error-allocation policy is the uniform 2:1 heuristic (uncontrolled
rotations twice as accurate as controlled ones); the fully general
constrained optimization is out of scope since its payoff is below one
percent of T-depth.  ``ErrorBudget`` alone reads the two budgets, by
gate (``delta_for``) or by table row (``deltas``); pruning, the noise
draws and pricing all follow it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, Layer, LayeredCircuit, MeasureBarrier
from .gates import (CLIFFORD_KINDS, Gate, GateKind, ParameterError,
                    a_xh_distance, alpha_power)


@dataclass(frozen=True)
class ErrorBudget:
    """Per-gate synthesis accuracy: uncontrolled vs doubly-controlled."""

    delta_single: float
    delta_controlled: float

    def __post_init__(self) -> None:
        for v in (self.delta_single, self.delta_controlled):
            if not (0.0 <= v < 1.0):
                raise ParameterError("error budgets must lie in [0, 1)")

    @classmethod
    def two_to_one(cls, delta: float) -> "ErrorBudget":
        """Default allocation: controlled rotations at twice the base error."""
        return cls(delta_single=delta, delta_controlled=2 * delta)

    @classmethod
    def uniform(cls, delta: float) -> "ErrorBudget":
        return cls(delta_single=delta, delta_controlled=delta)

    def delta_for(self, gate: Gate) -> float:
        """Synthesis accuracy of ``gate``: Cliffords are exact, a rotation
        with controls gets the controlled budget, any other the single."""
        if gate.kind in CLIFFORD_KINDS:
            return 0.0
        return self.delta_controlled if gate.controls else self.delta_single

    def deltas(self, controlled) -> np.ndarray:
        """``delta_for`` of each rotation row of a table, from its flag:
        whether it has controls."""
        return np.where(controlled, self.delta_controlled, self.delta_single)


class DivergentCostError(ValueError):
    """Expected cost is infinite (some layer can never succeed)."""


def qubit_threshold(alpha: float, delta: float) -> int:
    """Number of data qubits whose rotations stay more than delta from identity.

    The smallest n with alpha**(2**n + 4**n) <= delta: qubit j's merged
    rotation has exponent 2**j + 4**j, so qubits 0..n-1 are significant.
    In closed form n = max(0, floor(log2(sqrt(1 + 4*log(delta)/log(alpha))
    - 1))), up to float rounding at the boundary; the scan is the
    definition.  For alpha and delta in (0, 1) it ends by n = 32, since
    |log(delta)| <= 745 and |log(alpha)| >= 1.1e-16.
    """
    if not (0.0 < alpha < 1.0) or not (0.0 < delta < 1.0):
        raise ParameterError("alpha and delta must lie in (0, 1)")
    log_alpha = math.log(alpha)
    n = 0
    while math.exp(log_alpha * (2.0 ** n + 4.0 ** n)) > delta:
        n += 1
    return n


@dataclass(frozen=True)
class PruneResult:
    removed_b_gates: int
    replaced_a_gates: int

    @property
    def total(self) -> int:
        return self.removed_b_gates + self.replaced_a_gates


def prune_distance(gate: Gate, alpha: float) -> float:
    """How far ``gate`` is from what pruning puts in its place: a
    controlled B window from the identity it is dropped for (1 minus its
    diagonal alpha**(2**m)), an A rotation from the exact XH that replaces
    it; inf for a gate that pruning never touches."""
    if gate.kind is GateKind.B and gate.controls:
        return 1.0 - alpha_power(alpha, gate.exponent)
    if gate.kind is GateKind.A:
        return a_xh_distance(alpha, gate.exponent)
    return math.inf


def prunes(distance, delta):
    """The one prune rule: a gate goes when its ``prune_distance`` is
    below its budget.  Takes floats or arrays of distances."""
    return distance < delta


def _prune_elements(elements, alpha, budget):
    """Shared gate-level pruning: drop controlled windows within their
    budget of the identity, swap A rotations within their budget of XH for
    exact XH (H then X).  A barrier drops each ancilla whose window was
    dropped since that ancilla was last measured."""
    out = []
    removed: set[int] = set()
    n_removed = n_replaced = 0
    for elem in elements:
        if isinstance(elem, MeasureBarrier):
            keep = tuple(a for a in elem.ancilla if a not in removed)
            if keep:
                out.append(MeasureBarrier(keep))
            removed.difference_update(elem.ancilla)
            continue
        gate = elem
        if not prunes(prune_distance(gate, alpha), budget.delta_for(gate)):
            out.append(gate)
        elif gate.kind is GateKind.A:
            out.append(Gate(GateKind.H, gate.target))
            out.append(Gate(GateKind.X, gate.target))
            n_replaced += 1
        else:
            removed.add(gate.target)
            n_removed += 1
    return out, n_removed, n_replaced


def prune_circuit(circuit: Circuit, budget: ErrorBudget
                  ) -> tuple[Circuit, PruneResult]:
    out, n_removed, n_replaced = _prune_elements(
        circuit.elements, circuit.alpha, budget)
    return (replace(circuit, elements=tuple(out)),
            PruneResult(n_removed, n_replaced))


def prune_layered(layered: LayeredCircuit, budget: ErrorBudget
                  ) -> tuple[LayeredCircuit, PruneResult]:
    """Prune the prelude and each layer by the ``prune_circuit`` rules;
    a layer left with no window is dropped."""
    alpha = layered.alpha
    pre, _, n_replaced = _prune_elements(layered.prelude.elements, alpha, budget)
    layers = []
    n_removed = 0
    for layer in layered.layers:
        keep, removed, _ = _prune_elements(layer.gates, alpha, budget)
        n_removed += removed
        if keep:
            layers.append(Layer(gates=tuple(keep)))
    pruned = LayeredCircuit(
        prelude=replace(layered.prelude, elements=tuple(pre)),
        layers=tuple(layers),
        postlude=layered.postlude,
    )
    return pruned, PruneResult(n_removed, n_replaced)


def pack_layers(core_qubits: int, rng=None) -> list[list[tuple[int, int]]]:
    """Partition all core-qubit pairs into vertex-disjoint rounds.

    Circle-method round robin: core-1 rounds of core/2 pairs when core is
    even, core rounds of (core-1)/2 pairs when odd (one qubit sits out per
    round).  Passing an rng relabels the qubits first, giving a random
    1-factorization with the same round structure.
    """
    if core_qubits < 2:
        raise ParameterError("need at least two core qubits to pair")
    labels = list(range(core_qubits))
    if rng is not None:
        rng.shuffle(labels)
    verts: list[int | None] = list(labels)
    if core_qubits % 2 == 1:
        verts.append(None)
    m = len(verts)
    fixed, rest = verts[-1], verts[:-1]
    rounds = []
    for r in range(m - 1):
        rotated = rest[r:] + rest[:r]
        arr = [fixed] + rotated
        pairs = []
        for i in range(m // 2):
            a, b = arr[i], arr[m - 1 - i]
            if a is None or b is None:
                continue
            pairs.append((min(a, b), max(a, b)))
        rounds.append(sorted(pairs))
    return rounds


def expected_t_depth(n0: float, layers: list[tuple[float, float]]) -> float:
    """Expected repeat-until-success T-depth.

    (1/p_s) * (n0 + sum_k n_k * prod_{j<k} p_j) with p_s the product of
    all layer success probabilities: every attempt pays the prelude and
    each layer reached, and 1/p_s attempts are expected.
    """
    prefix = 1.0
    total = n0
    for n_k, p_k in layers:
        if not (0.0 < p_k <= 1.0):
            raise DivergentCostError(f"layer success probability {p_k} not in (0, 1]")
        if n_k < 0:
            raise ParameterError("layer T-depth must be nonnegative")
        total += n_k * prefix
        prefix *= p_k
    return total / prefix


@dataclass(frozen=True)
class OrderingPlan:
    permutation: tuple[int, ...]
    predicted_expected_t_depth: float


def order_layers(layers: list[tuple[float, float]]) -> OrderingPlan:
    """The layer execution order minimizing expected T-depth.

    Running layer a just before layer b costs n_a + p_a*n_b against
    n_b + p_b*n_a the other way round, so a goes first exactly when
    n_a/(1-p_a) <= n_b/(1-p_b) (inf for p = 1), and sorting by that ratio
    is optimal for any number of layers.  With equal costs it runs the
    riskiest layers first.  Rounding can merge the ratios of two distinct
    probabilities, so ties break by probability, then by original index.
    No layers, as when pruning drops every window, is the empty plan.
    """
    def key(i):
        n_k, p_k = layers[i]
        return (n_k / (1.0 - p_k) if p_k < 1.0 else math.inf, p_k, i)

    perm = tuple(sorted(range(len(layers)), key=key))
    return OrderingPlan(
        permutation=perm,
        predicted_expected_t_depth=expected_t_depth(
            0.0, [layers[i] for i in perm]),
    )


def alpha_matching_gate_error(delta: float) -> float:
    """The alpha with ||A(1) - XH|| = delta: the bottom-most merged rotation
    is exactly significant enough that nothing is pruned.

    With a = alpha**2 = tan(theta), ||A(1) - XH||**2 = 2 - sqrt(2) * (1 + a)
    / sqrt(1 + a**2) = 2 - 2 * sin(theta + pi/4), so theta = pi/4 - 2 *
    asin(delta/2) and alpha = sqrt((1 - t)/(1 + t)) with t = tan(2 *
    asin(delta/2)).  Rounding can leave that alpha's distance a few ulps
    under delta, where the prune rule would drop the gate; alpha steps
    down one float at a time until the distance is at least delta (at
    most 2 steps over 3000 deltas in [1e-15, 0.3)).
    """
    if not (0.0 < delta < 0.3):
        raise ParameterError("coupling is defined for small delta")
    t = math.tan(2.0 * math.asin(0.5 * delta))
    alpha = math.sqrt((1.0 - t) / (1.0 + t))
    while a_xh_distance(alpha, 1.0) < delta:
        alpha = math.nextafter(alpha, 0.0)
    return alpha
