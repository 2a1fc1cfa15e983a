"""Circuit optimizations: error allocation, threshold pruning, layer
packing, and measurement-order optimization.

The error-allocation policy is the uniform 2:1 heuristic (uncontrolled
rotations twice as accurate as controlled ones); the fully general
constrained optimization is out of scope since its payoff is below one
percent of T-depth.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

from scipy.optimize import brentq

from .circuit import Circuit, Layer, LayeredCircuit, MeasureBarrier
from .gates import Gate, GateKind, ParameterError, a_xh_distance, alpha_power

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ErrorBudget:
    """Per-gate synthesis accuracy: uncontrolled vs doubly-controlled."""

    delta_gate: float
    delta_single: float
    delta_controlled: float

    def __post_init__(self) -> None:
        for v in (self.delta_gate, self.delta_single, self.delta_controlled):
            if not (0.0 <= v < 1.0):
                raise ParameterError("error budgets must lie in [0, 1)")

    @classmethod
    def two_to_one(cls, delta: float) -> "ErrorBudget":
        """Default allocation: controlled rotations at twice the base error."""
        return cls(delta_gate=delta, delta_single=delta, delta_controlled=2 * delta)

    @classmethod
    def uniform(cls, delta: float) -> "ErrorBudget":
        return cls(delta_gate=delta, delta_single=delta, delta_controlled=delta)


class DivergentCostError(ValueError):
    """Expected cost is infinite (some layer can never succeed)."""


class ThresholdRangeError(OverflowError):
    """alpha is so close to 1 that the threshold argument overflows."""


def qubit_threshold(alpha: float, delta: float) -> int:
    """Number of data qubits whose rotations stay more than delta from identity.

    Largest n with alpha**(2**(n-1) + 4**(n-1)) > delta, which closes to
    floor(log2(sqrt(1 + 4*log(delta)/log(alpha)) - 1)).  The closed form
    is cross-checked against the defining condition; on the rare float
    boundary where they disagree the direct value wins.
    """
    if not (0.0 < alpha < 1.0) or not (0.0 < delta < 1.0):
        raise ParameterError("alpha and delta must lie in (0, 1)")
    log_alpha = math.log(alpha)
    if log_alpha == 0.0:
        raise ThresholdRangeError("alpha rounds to 1; threshold overflows")
    ratio = math.log(delta) / log_alpha
    arg = math.sqrt(1.0 + 4.0 * ratio) - 1.0
    if not math.isfinite(arg):
        raise ThresholdRangeError("threshold argument overflows float range")
    closed = max(0, math.floor(math.log2(arg))) if arg > 1e-300 else 0
    direct = _threshold_direct(log_alpha, delta)
    if closed != direct:
        log.warning("qubit_threshold closed form %d != direct condition %d; "
                    "using direct", closed, direct)
        return direct
    return closed


def _threshold_direct(log_alpha: float, delta: float) -> int:
    n = 0
    while True:
        exponent = 2.0 ** n + 4.0 ** n  # qubit index n-1 uses 2**(n-1)+4**(n-1)
        if math.exp(log_alpha * exponent) <= delta:
            return n
        n += 1
        if n > 64:
            raise ThresholdRangeError("threshold exceeds 64 qubits")


@dataclass(frozen=True)
class PruneResult:
    removed_b_gates: int
    replaced_a_gates: int

    @property
    def total(self) -> int:
        return self.removed_b_gates + self.replaced_a_gates


def _prune_elements(elements, alpha, budget):
    """Shared gate-level pruning: drop near-identity windows, swap
    near-XH rotations for exact XH (H then X)."""
    out = []
    removed: set[int] = set()
    n_removed = n_replaced = 0
    for elem in elements:
        if isinstance(elem, MeasureBarrier):
            keep = tuple(a for a in elem.ancilla if a not in removed)
            if keep:
                out.append(MeasureBarrier(keep))
            continue
        gate = elem
        if gate.kind is GateKind.B and gate.controls:
            deviation = 1.0 - alpha_power(alpha, gate.exponent)
            if deviation < budget.delta_controlled:
                removed.add(gate.target)
                n_removed += 1
                continue
        elif gate.kind is GateKind.A:
            if a_xh_distance(alpha, gate.exponent) < budget.delta_single:
                out.append(Gate(GateKind.H, gate.target))
                out.append(Gate(GateKind.X, gate.target))
                n_replaced += 1
                continue
        out.append(gate)
    return out, n_removed, n_replaced


def prune_circuit(circuit: Circuit, budget: ErrorBudget
                  ) -> tuple[Circuit, PruneResult]:
    out, n_removed, n_replaced = _prune_elements(
        circuit.elements, circuit.alpha, budget)
    return (replace(circuit, elements=tuple(out)),
            PruneResult(n_removed, n_replaced))


def prune_layered(layered: LayeredCircuit, budget: ErrorBudget
                  ) -> tuple[LayeredCircuit, PruneResult]:
    alpha = layered.alpha
    pre, _, n_replaced = _prune_elements(layered.prelude.elements, alpha, budget)
    layers = []
    n_removed = 0
    for layer in layered.layers:
        keep = []
        for gate in layer.gates:
            if 1.0 - alpha_power(alpha, gate.exponent) < budget.delta_controlled:
                n_removed += 1
            else:
                keep.append(gate)
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
    """Pick the layer execution order minimizing expected T-depth.

    Equal-cost layers (the usual case: every controlled rotation is
    synthesized to the same accuracy) sort by increasing success
    probability, so the riskiest layers run first.  Mixed costs fall back
    to exhaustive search up to 8 layers, or to the exchange-criterion sort
    by n_k/(1-p_k) beyond that.  Ties break by original index.
    """
    if not layers:
        raise ParameterError("need at least one layer")
    n_values = [n for n, _ in layers]
    idx = range(len(layers))
    if max(n_values) - min(n_values) <= 1e-12 * max(1.0, abs(max(n_values))):
        perm = tuple(sorted(idx, key=lambda i: (layers[i][1], i)))
    elif len(layers) <= 8:
        def cost(p):
            return expected_t_depth(0.0, [layers[i] for i in p])

        perm = min(itertools.permutations(idx), key=lambda p: (cost(p), p))
    else:
        def ratio(i):
            n_k, p_k = layers[i]
            return n_k / (1.0 - p_k) if p_k < 1.0 else math.inf

        perm = tuple(sorted(idx, key=lambda i: (ratio(i), i)))
    return OrderingPlan(
        permutation=tuple(perm),
        predicted_expected_t_depth=expected_t_depth(
            0.0, [layers[i] for i in perm]),
    )


def alpha_matching_gate_error(delta: float) -> float:
    """The alpha with ||A(1) - XH|| = delta: the bottom-most merged rotation
    is exactly significant enough that nothing is pruned."""
    if not (0.0 < delta < 0.3):
        raise ParameterError("coupling is defined for small delta")

    def f(alpha: float) -> float:
        return a_xh_distance(alpha, 1.0) - delta

    return brentq(f, 1e-9, 1.0 - 1e-15, xtol=1e-15, rtol=8.9e-16)
