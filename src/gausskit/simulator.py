"""Statevector simulation: exact, post-selected, and noisy.

Three engines, one job each:

* ``simulate_exact`` carries every live ancilla as a real tensor factor
  and projects it at its measurement barrier; memory is 2**(data + live).
  It is the oracle for the other two.
* ``simulate_postselected`` runs any flat circuit on the data register
  alone: an ancilla-targeted window multiplies the control-satisfied
  block of the state in place through one strided kernel, which is what
  makes 20+ qubit runs cheap.
* ``GaussianLayerModel`` runs the core register of a layered Gaussian.
  Each window is a factor R[j, k]**(x_j*x_k) on a pair of core bits, so
  the windows commute: ``state()`` builds the one final state of every
  layer order by doubling over the bits, each new half the old one times
  a column of pair factors, and ``probs(order)`` takes the success
  probabilities of an order from the real weights |amplitude|**2 the
  same way, a layer at a time.

Every engine records one success probability per barrier; their product
is the squared subnormalization of the preparation.

Noise is a ``NoiseRealization`` from ``realize_noise``: one random target
perturbation per rotation gate, which every engine applies the same way.
The module only runs circuits.  The end-to-end pipeline (build, prune,
draw noise, simulate, order, price) is ``resources.estimate``, and
``simulate_rus_process`` samples the repeat-until-success restart process
for given per-layer success probabilities.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, LayeredCircuit, MeasureBarrier
from .gates import (Gate, GateKind, ParameterError, gate_matrix,
                    rotation_kernel)
from .optimizer import ErrorBudget

MAX_QUBITS = 26


class CapacityError(RuntimeError):
    """The simulation would exceed the qubit or memory budget."""


def _check_capacity(n_bits: int, copies: float = 4) -> None:
    if n_bits > MAX_QUBITS:
        raise CapacityError(
            f"{n_bits} qubits exceeds the {MAX_QUBITS}-qubit simulator budget")
    limit_mb = os.environ.get("GAUSSKIT_MEM_LIMIT_MB")
    if limit_mb:
        need = (1 << n_bits) * 16 * copies / 1e6
        if need > float(limit_mb):
            raise CapacityError(
                f"state of {need:.0f} MB exceeds GAUSSKIT_MEM_LIMIT_MB={limit_mb}")


@dataclass
class StateVector:
    """Complex amplitudes of the data register."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class SimReport:
    subnormalization: float
    layer_probs: tuple[float, ...]


NoiseRealization = dict[Gate, np.ndarray]


def sample_perturbation(delta: float, rng: np.random.Generator) -> np.ndarray:
    """Unitary exp(-i*(phi/2)*(n.sigma)) with uniform axis and ||P - I|| = delta.

    The eigenvalues are exp(-+i*phi/2), so the operator-norm distance from
    identity is 2*sin(phi/4); phi = 4*arcsin(delta/2) pins it to delta.
    """
    if delta == 0.0:
        return np.eye(2, dtype=complex)
    if not (0.0 < delta < 0.5):
        raise ParameterError("perturbation size must lie in [0, 0.5)")
    v = rng.normal(size=3)
    nx, ny, nz = v / np.linalg.norm(v)
    phi = 4.0 * math.asin(delta / 2.0)
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array(
        [[c - 1j * s * nz, -1j * s * (nx - 1j * ny)],
         [-1j * s * (nx + 1j * ny), c + 1j * s * nz]],
        dtype=complex,
    )


def _embed_target_perturbation(p: np.ndarray, n_controls: int) -> np.ndarray:
    """Lift a 2x2 target perturbation to the gate's full space (target = MSB)."""
    return np.kron(p, np.eye(1 << n_controls, dtype=complex))


def realize_noise(gates, budget: ErrorBudget,
                  rng: np.random.Generator) -> NoiseRealization:
    """Draw one target perturbation per rotation gate, keyed by the gate.

    Gates are frozen values, so the realization survives layer reordering;
    Clifford gates are exact (they cost no T gates).
    """
    realization: NoiseRealization = {}
    for gate in gates:
        delta = budget.delta_for(gate)
        if delta > 0.0:
            realization[gate] = sample_perturbation(delta, rng)
    return realization


def _apply_unitary(state: np.ndarray, mat: np.ndarray,
                   positions: list[int], total_bits: int) -> np.ndarray:
    """Apply mat to the bits at ``positions`` (matrix qubit 0 = its MSB)."""
    k = len(positions)
    if k == 1:
        # sliced in-place update avoids the transpose copies of the
        # general path; this is the hot loop of large prelude registers
        q = positions[0]
        view = state.reshape(-1, 2, 1 << q)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = mat[0, 0] * a + mat[0, 1] * b
        view[:, 1, :] = mat[1, 0] * a + mat[1, 1] * b
        return state
    t = state.reshape([2] * total_bits)
    axes = [total_bits - 1 - p for p in positions]
    t = np.moveaxis(t, axes, range(k))
    shape = t.shape
    t = (mat @ t.reshape(1 << k, -1)).reshape(shape)
    t = np.moveaxis(t, range(k), axes)
    return t.reshape(-1)


def _gate_full_matrix(gate: Gate, alpha: float,
                      noise: NoiseRealization | None) -> np.ndarray:
    mat = gate_matrix(gate, alpha)
    if noise and gate in noise:
        mat = _embed_target_perturbation(noise[gate], len(gate.controls)) @ mat
    return mat


def simulate_exact(circuit: Circuit,
                   noise: NoiseRealization | None = None
                   ) -> tuple[StateVector, SimReport]:
    """Full-unitary simulation; ancilla are materialized on first touch.

    Each measurement barrier projects its ancilla onto |0>, records the
    joint probability, renormalizes, and frees the memory.  Fails with
    CapacityError if data + live ancilla ever exceeds the qubit budget.
    """
    n_data = circuit.data_qubits
    _check_capacity(n_data)
    state = np.zeros(1 << n_data, dtype=complex)
    state[0] = 1.0
    position: dict[int, int] = {}  # live ancilla -> bit position
    total = n_data
    probs: list[float] = []

    def pos_of(q: int) -> int:
        nonlocal state, total
        if q < n_data:
            return q
        if q not in position:
            _check_capacity(total + 1)
            state = np.concatenate([state, np.zeros_like(state)])
            position[q] = total
            total += 1
        return position[q]

    for elem in circuit.elements:
        if isinstance(elem, MeasureBarrier):
            live = [a for a in elem.ancilla if a in position]
            if not live:
                probs.append(1.0)
                continue
            t = state.reshape([2] * total)
            idx = [slice(None)] * total
            for a in live:
                idx[total - 1 - position[a]] = 0
            kept = t[tuple(idx)].reshape(-1)
            p = float(np.vdot(kept, kept).real)
            if p <= 0.0:
                raise ParameterError("post-selection branch has zero amplitude")
            state = kept / math.sqrt(p)
            probs.append(p)
            dropped = sorted(position[a] for a in live)
            for a in live:
                del position[a]
            for a, pp in list(position.items()):
                position[a] = pp - sum(1 for d in dropped if d < pp)
            total -= len(live)
            continue
        positions = [pos_of(q) for q in elem.qubits]
        mat = _gate_full_matrix(elem, circuit.alpha, noise)
        state = _apply_unitary(state, mat, positions, total)

    if position:
        raise ParameterError(
            f"circuit ended with unmeasured live ancilla {sorted(position)}")
    gamma2 = float(np.prod(probs)) if probs else 1.0
    sv = StateVector(n_qubits=n_data, amplitudes=state)
    report = SimReport(subnormalization=math.sqrt(gamma2),
                       layer_probs=tuple(probs))
    return sv, report


def _apply_window(vec: np.ndarray, controls, factor) -> None:
    """Multiply the control-satisfied block of ``vec`` by ``factor`` in place.

    Controls on bits k > j view the 2**n vector as (2**(n-k-1), 2,
    2**(k-j-1), 2, 2**j) and fix each control axis at 1 (closed) or 0
    (open): a strided view, with no mask and no copy."""
    hi = vec.size.bit_length() - 1
    shape, index = [], []
    for ctl in sorted(controls, key=lambda c: c.qubit, reverse=True):
        shape += [1 << (hi - ctl.qubit - 1), 2]
        index += [slice(None), int(ctl.closed)]
        hi = ctl.qubit
    block = vec.reshape(*shape, 1 << hi)[(*index, slice(None))]
    block *= factor


def _post_select(state: np.ndarray, scale: complex) -> float:
    """Normalize in place at a barrier, folding in the round's deferred
    <0|P|0> factors ``scale``; returns p = |scale|**2 * ||state||**2."""
    p = abs(scale) ** 2 * float(np.vdot(state, state).real)
    if p <= 0.0:
        raise ParameterError("post-selection branch has zero amplitude")
    state *= scale / math.sqrt(p)
    return p


def _window_factors(gate: Gate, alpha: float,
                    noise: NoiseRealization | None) -> tuple[complex, complex]:
    """(factor on satisfied controls, factor elsewhere) for a post-selected
    ancilla-targeted B gate: matrix elements <0|P B|0> and <0|P|0>."""
    kernel = rotation_kernel(gate.kind, gate.exponent, alpha)
    if noise and gate in noise:
        p = noise[gate]
        return complex((p @ kernel)[0, 0]), complex(p[0, 0])
    return complex(kernel[0, 0]), 1.0 + 0.0j


def simulate_postselected(circuit: Circuit | LayeredCircuit,
                          noise: NoiseRealization | None = None
                          ) -> tuple[StateVector, SimReport]:
    """Data-register-only simulation via the strided window kernel.

    Ancilla-targeted B gates multiply the data state by <0|B|0> on their
    control subspace (the block-encoding identity); barriers record the
    accumulated norm loss as that round's success probability.
    """
    if isinstance(circuit, LayeredCircuit):
        circuit = circuit.to_circuit()
    n = circuit.data_qubits
    _check_capacity(n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    scale = 1.0  # <0|P|0> of the noisy windows since the last barrier
    probs: list[float] = []

    for elem in circuit.elements:
        if isinstance(elem, MeasureBarrier):
            probs.append(_post_select(state, scale))
            scale = 1.0
            continue
        if any(circuit.is_ancilla(c.qubit) for c in elem.controls):
            raise ParameterError("ancilla-controlled gates are unsupported")
        if circuit.is_ancilla(elem.target):
            if elem.kind is not GateKind.B:
                raise ParameterError(
                    "post-selected backend supports only B gates on ancilla")
            f_sel, f_rest = _window_factors(elem, circuit.alpha, noise)
            _apply_window(state, elem.controls, f_sel / f_rest)
            scale *= f_rest
            continue
        mat = _gate_full_matrix(elem, circuit.alpha, noise)
        state = _apply_unitary(state, mat, list(elem.qubits), n)
    if scale != 1.0:
        state *= scale  # a window left without a barrier

    gamma2 = float(np.prod(probs)) if probs else 1.0
    sv = StateVector(n_qubits=n, amplitudes=state)
    report = SimReport(subnormalization=math.sqrt(gamma2),
                       layer_probs=tuple(probs))
    return sv, report


def l2_error(a, b) -> float:
    """Euclidean distance after aligning global phase.

    The phase maximizing Re<a|e^{i theta} b> is applied to b, then the
    difference is taken elementwise: at 2**20+ dimensions the textbook
    sqrt(2 - 2|<a|b>|) form loses the answer to dot-product rounding.
    """
    va = a.amplitudes if isinstance(a, StateVector) else np.asarray(a)
    vb = b.amplitudes if isinstance(b, StateVector) else np.asarray(b)
    if va.shape != vb.shape:
        raise ParameterError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    if np.iscomplexobj(vb) and not np.iscomplexobj(va):
        # a real a: sum (re, im) pairs of b against it, with no complex
        # copy of a
        re, im = np.ascontiguousarray(vb, dtype=complex).view(
            np.float64).reshape(-1, 2).T @ va
        ov = complex(re, im)
    else:
        ov = np.vdot(va, vb)
    # complex, so that a real b times it can take a complex a in place
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0 + 0.0j
    diff = vb * np.conj(phase)
    diff -= va
    return float(np.linalg.norm(diff))


# ---------------------------------------------------------------------------
# Closed-form targets


def _normalized(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps)


def ideal_gaussian(n: int, alpha: float, tail: str = "finite") -> np.ndarray:
    """Normalized alpha**((x-(N-1)/2)**2) over x in [0, 2**n).

    tail="infinite" normalizes by the infinite-support sum instead, so the
    comparison also charges for the truncated tail mass.
    """
    x = np.arange(1 << n, dtype=float)
    log_a = math.log(alpha)
    center = ((1 << n) - 1) / 2.0
    amps = np.exp(log_a * (x - center) ** 2)
    if tail == "finite":
        return _normalized(amps)
    if tail == "infinite":
        return amps / math.sqrt(_infinite_norm_sq(log_a, center, symmetric=True))
    raise ParameterError(f"unknown tail convention {tail!r}")


def ideal_half_gaussian(n: int, alpha: float, tail: str = "finite") -> np.ndarray:
    """Normalized alpha**(x*x) over x in [0, 2**n)."""
    x = np.arange(1 << n, dtype=float)
    amps = np.exp(math.log(alpha) * x * x)
    if tail == "finite":
        return _normalized(amps)
    if tail == "infinite":
        return amps / math.sqrt(_infinite_norm_sq(math.log(alpha), 0.0,
                                                  symmetric=False))
    raise ParameterError(f"unknown tail convention {tail!r}")


def _infinite_norm_sq(log_a: float, center: float, symmetric: bool) -> float:
    # sum of alpha**(2*(x-center)**2) over all integers (or x >= 0)
    width = math.sqrt(35.0 * math.log(10.0) / (2.0 * abs(log_a)))
    lo = math.floor(center - width) if symmetric else 0
    hi = math.ceil(center + width)
    x = np.arange(lo, hi + 1, dtype=float)
    return float(np.exp(2.0 * log_a * (x - center) ** 2).sum())


def ideal_exponential(n: int, alpha: float) -> np.ndarray:
    x = np.arange(1 << n, dtype=float)
    return _normalized(np.exp(math.log(alpha) * x))


def ideal_phase_state(n: int, alpha: float, d: int) -> np.ndarray:
    x = np.arange(1 << n, dtype=float)
    return np.exp(1j * alpha * x ** d) / math.sqrt(1 << n)


def ideal_gaussian_2d(n_x: int, n_y: int, q, alpha: float) -> np.ndarray:
    from .builders import _normalize_quadratic_form

    cxx, cxy, cyy = _normalize_quadratic_form(q)
    x = np.arange(1 << n_x, dtype=float)[:, None]
    y = np.arange(1 << n_y, dtype=float)[None, :]
    form = cxx * x * x + cxy * x * y + cyy * y * y
    return _normalized(np.exp(math.log(alpha) * form).reshape(-1))


def ideal_core_half_shifted(core: int, alpha: float) -> np.ndarray:
    """Normalized alpha**((y+1/2)**2): the full Gaussian before symmetrization."""
    y = np.arange(1 << core, dtype=float)
    return _normalized(np.exp(math.log(alpha) * (y + 0.5) ** 2))


# ---------------------------------------------------------------------------
# Layered-Gaussian core register (windows as commuting diagonals)


def _window_pair(gate: Gate, core: int) -> tuple[int, int]:
    """The control pair j < k of a layer window; only two closed controls
    on core qubits make the window the factor R[j, k]**(x_j*x_k)."""
    qubits = sorted(c.qubit for c in gate.controls if c.closed)
    if len(gate.controls) != 2 or len(qubits) != 2 or qubits[1] >= core:
        raise ParameterError(
            "layer windows need two closed controls on core qubits")
    return qubits[0], qubits[1]


class GaussianLayerModel:
    """The core register of a layered Gaussian, prelude plus layers.

    The prelude is a product of per-qubit 2-vectors a_q, and every window
    has two closed controls j < k, so it multiplies by the ratio
    f_sel/f_rest where x_j = x_k = 1 and by f_rest everywhere.  The
    unnormalized core amplitude is therefore

        prod_q a_q(x_q) * prod_{j<k} R[j, k]**(x_j*x_k)

    times the product of every f_rest, with R[j, k] the product of the
    ratios of the windows on pair (j, k).  Doubling over bit k fills the
    upper half as the lower half times a_k(1) times the column
    prod_{j<k} R[j, k]**x_j, itself doubled over contiguous halves, so no
    pass over the core is strided.  The windows commute, so the final
    state is the same in every layer order; the per-layer success
    probabilities are not.  The symmetrizing postlude is an isometry, so
    both equal their full-register values.
    """

    def __init__(self, layered: LayeredCircuit,
                 noise: NoiseRealization | None = None):
        self.core = core = layered.data_qubits - 1
        self.qubits = np.zeros((core, 2), dtype=complex)
        self.qubits[:, 0] = 1.0
        for gate in layered.prelude.gates():
            if gate.controls or gate.target > core:
                raise ParameterError(
                    "prelude gates must be uncontrolled and act on data qubits")
            if gate.target == core:
                continue  # the top-qubit Hadamard is not part of the core
            mat = _gate_full_matrix(gate, layered.alpha, noise)
            self.qubits[gate.target] = mat @ self.qubits[gate.target]
        self.ratios = np.ones((core, core), dtype=complex)  # R[j, k], j < k
        self.scale = 1.0  # the product of every window's f_rest
        self.layers = []  # ([(j, k, |ratio|**2)], prod of |f_rest|**2)
        for layer in layered.layers:
            windows, rest = [], 1.0
            for gate in layer.gates:
                j, k = _window_pair(gate, core)
                f_sel, f_rest = _window_factors(gate, layered.alpha, noise)
                self.ratios[j, k] *= f_sel / f_rest
                self.scale *= f_rest
                windows.append((j, k, abs(f_sel / f_rest) ** 2))
                rest *= abs(f_rest) ** 2
            self.layers.append((windows, rest))

    def state(self) -> np.ndarray:
        """The normalized core state after all layers, in any order.

        Each column a_k(1) * prod_{j<k} R[j, k]**x_j is doubled in place in
        the upper half it scales, so the state is the only buffer."""
        _check_capacity(self.core, copies=1.0)  # tracemalloc peak: 1.00
        vec = np.empty(1 << self.core, dtype=complex)
        vec[0] = 1.0
        for k, (amp0, amp1) in enumerate(self.qubits):
            upper = vec[1 << k:2 << k]
            upper[0] = amp1
            for j, ratio in enumerate(self.ratios[:k, k]):
                np.multiply(upper[:1 << j], ratio, out=upper[1 << j:2 << j])
            upper *= vec[:1 << k]
            vec[:1 << k] *= amp0
        _post_select(vec, self.scale)
        return vec

    def probs(self, order) -> np.ndarray:
        """Each layer's success probability when the layers run in ``order``.

        The real weights |amplitude|**2 factor like the amplitudes, with
        one float64 column per bit k: |a_k(1)|**2 times the |ratio|**2 of
        each joined window (j, k) where x_j = 1, 2**core - 1 entries in
        all.  A joining layer multiplies each window into its column once,
        the weights of the low core - 1 bits are refilled by doubling, and
        the top bit is summed out against its column.  A layer's
        probability is the ratio of the weight sums after and before,
        times its |f_rest|**2.
        """
        # tracemalloc peak: 1.01 and 0.78 states at core 15 and 18, the
        # 0.75 of the columns and the low weights plus the fixed 128 KB
        # that numpy buffers a strided column multiply through
        _check_capacity(self.core, copies=1.0)
        top = self.core - 1
        weights = (np.abs(self.qubits) ** 2).tolist()
        columns = [np.full(1 << k, w1) for k, (_, w1) in enumerate(weights)]
        low = np.empty(1 << top)
        doublings = [(low[:1 << k], columns[k], low[1 << k:2 << k], w0)
                     for k, (w0, _) in enumerate(weights[:top])]

        def weight_sum() -> float:
            low[0] = 1.0
            for lower, column, upper, w0 in doublings:
                np.multiply(lower, column, out=upper)
                lower *= w0
            return (weights[top][0] * float(low.sum())
                    + float(low @ columns[top]))

        total = weight_sum()
        out = np.empty(len(order))
        for i, li in enumerate(order):
            windows, rest = self.layers[li]
            for j, k, ratio2 in windows:
                columns[k].reshape(-1, 2, 1 << j)[:, 1] *= ratio2
            cur = weight_sum()
            out[i] = rest * cur / total
            total = cur
        return out


# ---------------------------------------------------------------------------
# Repeat-until-success Monte Carlo


@dataclass(frozen=True)
class RusStats:
    """Empirical distribution of total T-depth spent until success."""

    samples: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def stderr(self) -> float:
        return float(self.samples.std(ddof=1) / math.sqrt(len(self.samples)))


def simulate_rus_process(n0: float, nks, ps, trials: int,
                         seed: int | None = 0) -> RusStats:
    ps = np.asarray(ps, dtype=float)
    nks = np.asarray(nks, dtype=float)
    if np.any(ps <= 0.0):
        raise ParameterError("a zero-probability layer never succeeds")
    rng = np.random.default_rng(seed)
    n_layers = len(ps)
    if n_layers == 0:
        return RusStats(samples=np.full(trials, float(n0)))
    cum = n0 + np.cumsum(nks)          # cost paid upon reaching layer k
    full_cost = float(cum[-1])
    total = np.zeros(trials)
    active = np.arange(trials)
    while active.size:
        u = rng.random((active.size, n_layers))
        fails = u >= ps[None, :]
        any_fail = fails.any(axis=1)
        first = np.where(any_fail, fails.argmax(axis=1), n_layers - 1)
        total[active] += np.where(any_fail, cum[first], full_cost)
        active = active[any_fail]
    return RusStats(samples=total)
