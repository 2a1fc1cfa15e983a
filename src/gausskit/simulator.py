"""Statevector simulation: exact, post-selected, and noisy.

Three engines, one per register; the two flat ones serve circuit files:

* ``simulate_exact`` carries every live ancilla as a real tensor factor
  and projects it at its measurement barrier; memory is 2**(data + live).
  It is the oracle for the other two.
* ``simulate_postselected`` runs any flat circuit on the data register
  alone: an ancilla-targeted window multiplies the control-satisfied
  block of the state in place, which is what makes 20+ qubit runs cheap.
* ``GaussianLayerModel`` runs the core register of every layered Gaussian
  built from a spec, noisy or not.
  Each window is a factor R[j, k]**(x_j*x_k) on a pair of core bits, so
  the windows commute: ``state()`` builds the one final state of every
  layer order by doubling over the bits, each new half the old one times
  a column of pair factors.  ``probs(order)`` refills the real weights
  |amplitude|**2 of the low bits the same way as each layer joins, from
  columns stored on 12 bits and scalars above, and folds the top bit out
  in place.  ``estimate`` reads the circuit once into a ``CoreTable``, one
  row per gate, and each gate budget it tries is a probe: ``kept`` prunes
  with one comparison over all rows, ``draw_noise`` draws the kept
  rotations' noise as one array and ``GaussianLayerModel`` fills the
  model.

The flat engines touch a state only through ``_block``, the strided view
that fixes some bits and leaves the rest free: a gate applies its 2x2
kernel to the target inside the control-satisfied block, a window
multiplies that block, and a barrier keeps the block where its ancilla
read 0.  Every engine records one success probability per barrier; their
product is the squared subnormalization of the preparation.

Noise is a ``NoiseRealization`` from ``realize_noise``: one random target
perturbation per rotation gate, which every engine applies the same way.
Both it and ``CoreTable.draw_noise`` draw the G rotations' axes as one
``rng.normal(size=(G, 3))`` array in gate order.

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
from .gates import (ROTATION_KINDS, XH_MATRIX, Gate, GateKind,
                    ParameterError, rotation_kernel)
from .optimizer import ErrorBudget, prune_distance, prunes

MAX_QUBITS = 26


class CapacityError(RuntimeError):
    """The simulation would exceed the qubit or memory budget."""


# numpy runs an in-place ufunc on strided operands through buffers of
# np.getbufsize() = 8192 elements, 128 KB per complex operand; the 4 KB
# cover the small arrays each step makes (1.9 KB measured)
_FIXED_BYTES = 2 * 8192 * 16 + 4096


def _check_capacity(n_bits: int, copies: float = 2.0) -> None:
    # the need, ``copies`` states of n_bits plus _FIXED_BYTES, is at or
    # above each engine's tracemalloc peak: the flat engines (full Gaussian
    # post-selected, half Gaussian exact) hold two states and the buffers,
    # 3.0 states at 14 bits, 2.5 at 15 and 2.02 at 20
    if n_bits > MAX_QUBITS:
        raise CapacityError(
            f"{n_bits} qubits exceeds the {MAX_QUBITS}-qubit simulator budget")
    limit_mb = os.environ.get("GAUSSKIT_MEM_LIMIT_MB")
    if limit_mb:
        try:
            limit = float(limit_mb)
        except ValueError:
            limit = math.nan
        if not 0.0 < limit < math.inf:
            raise ParameterError(f"GAUSSKIT_MEM_LIMIT_MB={limit_mb!r} is not "
                                 "a finite positive number of MB")
        need = ((1 << n_bits) * 16 * copies + _FIXED_BYTES) / 1e6
        if need > limit:
            raise CapacityError(
                f"state of {need:.4g} MB exceeds GAUSSKIT_MEM_LIMIT_MB={limit_mb}")


@dataclass
class StateVector:
    """Complex amplitudes of the data register."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def subnormalization(layer_probs) -> float:
    """gamma, the square root of the product of the per-barrier success
    probabilities (1 with no barrier)."""
    return math.sqrt(float(np.prod(layer_probs)))


@dataclass(frozen=True)
class SimReport:
    layer_probs: tuple[float, ...]

    @property
    def subnormalization(self) -> float:
        return subnormalization(self.layer_probs)


NoiseRealization = dict[Gate, np.ndarray]


def _perturbations(v: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The perturbations of ``sample_perturbation`` for the rows of the
    (G, 3) normal draws ``v``, row i at distance deltas[i] in (0, 0.5);
    the cos and sin of phi are taken once per distinct delta."""
    if not np.all((0.0 < deltas) & (deltas < 0.5)):
        raise ParameterError("perturbation size must lie in [0, 0.5)")
    classes, row_class = np.unique(deltas, return_inverse=True)
    half = [2.0 * math.asin(d / 2.0) for d in classes.tolist()]
    c = np.array([math.cos(h) for h in half])[row_class]
    s = np.array([math.sin(h) for h in half])[row_class]
    sx, sy, sz = (s[:, None] * (v / np.linalg.norm(v, axis=1,
                                                   keepdims=True))).T
    out = np.empty((len(v), 2, 2), dtype=complex)
    out[:, 0, 0] = c - 1j * sz
    out[:, 0, 1] = -sy - 1j * sx
    out[:, 1, 0] = sy - 1j * sx
    out[:, 1, 1] = c + 1j * sz
    return out


def sample_perturbation(delta: float, rng: np.random.Generator) -> np.ndarray:
    """Unitary exp(-i*(phi/2)*(n.sigma)) with uniform axis and ||P - I|| = delta.

    The eigenvalues are exp(-+i*phi/2), so the operator-norm distance from
    identity is 2*sin(phi/4); phi = 4*arcsin(delta/2) pins it to delta.
    """
    if delta == 0.0:
        return np.eye(2, dtype=complex)
    return _perturbations(rng.normal(size=3)[None], np.array([delta]))[0]


def realize_noise(gates, budget: ErrorBudget,
                  rng: np.random.Generator) -> NoiseRealization:
    """Draw one target perturbation per rotation gate, keyed by the gate.

    The draws for the G rotations are one ``rng.normal(size=(G, 3))``
    array in gate order, the same numbers as G ``sample_perturbation``
    calls.  Gates are frozen values, so the realization survives layer
    reordering; Clifford gates are exact (they cost no T gates).
    """
    drawn = [gate for gate in gates if budget.delta_for(gate) > 0.0]
    deltas = np.array([budget.delta_for(gate) for gate in drawn])
    return dict(zip(drawn, _perturbations(rng.normal(size=(len(drawn), 3)),
                                          deltas)))


def _block(vec: np.ndarray, fixed) -> np.ndarray:
    """The strided view of ``vec`` where each (bit, value) of ``fixed`` holds.

    Fixed bits k > j view the 2**n vector as (2**(n-k-1), 2, 2**(k-j-1), 2,
    2**j) and index each fixed axis at its value: no mask and no copy."""
    hi = vec.size.bit_length() - 1
    shape, index = [], []
    for bit, value in sorted(fixed, reverse=True):
        shape += [1 << (hi - bit - 1), 2]
        index += [slice(None), value]
        hi = bit
    return vec.reshape(*shape, 1 << hi)[(*index, slice(None))]


def _rotate(vec: np.ndarray, mat: np.ndarray, target: int, fixed) -> None:
    """Apply the 2x2 ``mat`` to bit ``target`` of the block ``fixed`` selects,
    in place through one saved half; each entry of ``mat`` is the left
    operand of its product, as a fused multiply-add does not commute."""
    lo = _block(vec, [*fixed, (target, 0)])
    hi = _block(vec, [*fixed, (target, 1)])
    a = lo.copy()
    np.multiply(mat[0, 0], lo, out=lo)
    lo += mat[0, 1] * hi
    np.multiply(mat[1, 0], a, out=a)
    np.multiply(mat[1, 1], hi, out=hi)
    hi += a


def _apply_gate(vec: np.ndarray, gate: Gate, alpha: float,
                noise: NoiseRealization | None, pos=lambda q: q) -> None:
    """Apply ``gate`` and its noise to ``vec`` in place, qubit q on bit pos(q):
    the kernel K on the target inside the control-satisfied block, then the
    perturbation P on the target everywhere (one kernel P @ K without
    controls)."""
    kernel = rotation_kernel(gate.kind, gate.exponent, alpha)
    p = noise.get(gate) if noise else None
    target = pos(gate.target)
    fixed = [(pos(c.qubit), int(c.closed)) for c in gate.controls]
    if p is not None and not fixed:
        kernel, p = p @ kernel, None
    _rotate(vec, kernel, target, fixed)
    if p is not None:
        _rotate(vec, p, target, [])


def _peak_live_ancilla(circuit: Circuit) -> int:
    """The most ancilla live at once: touched and not yet measured."""
    n_data = circuit.data_qubits
    live: set[int] = set()
    peak = 0
    for elem in circuit.elements:
        if isinstance(elem, MeasureBarrier):
            live.difference_update(elem.ancilla)
            continue
        if elem.target >= n_data:
            live.add(elem.target)
        for c in elem.controls:
            if c.qubit >= n_data:
                live.add(c.qubit)
        peak = max(peak, len(live))
    return peak


def simulate_exact(circuit: Circuit,
                   noise: NoiseRealization | None = None
                   ) -> tuple[StateVector, SimReport]:
    """Full-unitary simulation; ancilla are materialized on first touch.

    Each measurement barrier projects its ancilla onto |0>, records the
    joint probability, renormalizes, and frees the memory.  Fails with
    CapacityError, before allocating any state, if data + live ancilla
    would ever exceed the qubit or memory budget.
    """
    n_data = circuit.data_qubits
    _check_capacity(n_data + _peak_live_ancilla(circuit))
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
            state = _block(state, [(position[a], 0) for a in live]).reshape(-1)
            p = float(np.vdot(state, state).real)
            if p <= 0.0:
                raise ParameterError("post-selection branch has zero amplitude")
            state = state / math.sqrt(p)
            probs.append(p)
            dropped = sorted(position[a] for a in live)
            for a in live:
                del position[a]
            for a, pp in list(position.items()):
                position[a] = pp - sum(1 for d in dropped if d < pp)
            total -= len(live)
            continue
        for q in elem.qubits:
            pos_of(q)  # materialize before the gate takes its view
        _apply_gate(state, elem, circuit.alpha, noise, pos_of)

    if position:
        raise ParameterError(
            f"circuit ended with unmeasured live ancilla {sorted(position)}")
    return (StateVector(n_qubits=n_data, amplitudes=state),
            SimReport(layer_probs=tuple(probs)))


def _apply_window(vec: np.ndarray, controls, factor) -> None:
    """Multiply the control-satisfied block of ``vec`` by ``factor`` in place."""
    block = _block(vec, [(c.qubit, int(c.closed)) for c in controls])
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


def simulate_postselected(circuit: Circuit,
                          noise: NoiseRealization | None = None
                          ) -> tuple[StateVector, SimReport]:
    """Data-register-only simulation through strided block views.

    Ancilla-targeted B gates multiply the data state by <0|B|0> on their
    control subspace (the block-encoding identity); barriers record the
    accumulated norm loss as that round's success probability.
    """
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
        _apply_gate(state, elem, circuit.alpha, noise)
    if scale != 1.0:
        state *= scale  # a window left without a barrier

    return (StateVector(n_qubits=n, amplitudes=state),
            SimReport(layer_probs=tuple(probs)))


_CHUNK = 1 << 15  # l2_error's buffer: 512 KB of complex differences
_LOW_BITS = 12  # probs() stores the column factors on these low bits


def check_spec_capacity(core: int) -> None:
    """Refuse a spec run on ``core`` bits before it allocates: its peak is
    the core state, the float64 ideal (half a state) and ``l2_error``'s
    chunk (traced: 2.63, 1.65 and 1.52 states at core 15, 18 and 21)."""
    _check_capacity(core, copies=1.5 + min(_CHUNK, 1 << core) / (1 << core))


def l2_error(a, b) -> float:
    """Euclidean distance after aligning global phase.

    The phase maximizing Re<a|e^{i theta} b> is applied to b, then the
    difference is taken elementwise: at 2**20+ dimensions the textbook
    sqrt(2 - 2|<a|b>|) form loses the answer to dot-product rounding.
    """
    va, vb = np.asarray(a), np.asarray(b)
    if va.shape != vb.shape:
        raise ParameterError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    va, vb = va.reshape(-1), vb.reshape(-1)
    if np.iscomplexobj(vb) and not np.iscomplexobj(va):
        # a real a: sum (re, im) pairs of b against it, with no complex
        # copy of a
        re, im = np.ascontiguousarray(vb, dtype=complex).view(
            np.float64).reshape(-1, 2).T @ va
        ov = complex(re, im)
    else:
        ov = np.vdot(va, vb)
    phase = np.conj(ov / abs(ov)) if abs(ov) > 0 else 1.0 + 0.0j
    # the difference goes through one reused cache-sized buffer, not a
    # fresh full-size temporary; a real a is subtracted from the real
    # parts alone, so numpy casts no chunk through its own buffer
    diff = np.empty(min(va.size, _CHUNK), dtype=complex)
    flat = diff.view(np.float64)
    minuend = diff if np.iscomplexobj(va) else diff.real
    sq = 0.0
    for lo in range(0, va.size, _CHUNK):
        m = min(va.size - lo, _CHUNK)
        np.multiply(vb[lo:lo + m], phase, out=diff[:m])
        minuend[:m] -= va[lo:lo + m]
        sq += float(flat[:2 * m] @ flat[:2 * m])
    return math.sqrt(sq)


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
    out = np.arange(1 << core, dtype=float)  # the only 2**core buffer
    out += 0.5
    np.square(out, out=out)
    out *= math.log(alpha)
    np.exp(out, out=out)
    out /= np.linalg.norm(out)
    return out


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


def _identities(count: int) -> np.ndarray:
    return np.broadcast_to(np.eye(2, dtype=complex), (count, 2, 2)).copy()


class CoreTable:
    """The core register of a layered Gaussian as arrays, read once.

    The rows are the prelude's one gate per core qubit, in qubit order,
    then the windows in layer and slot order.  Every row has its
    ``optimizer.prune_distance`` and two flags, whether it is a rotation
    and whether it has controls, which set its budget.  A prelude row also
    has its kernel; a window has its pair j < k, its layer and the column
    (K00, K10) of its kernel.  Reading makes the checks the model rests
    on: the prelude is the unpruned product prelude, the top-qubit H and
    then one uncontrolled gate on each core qubit in qubit order, and each
    window has two closed controls on core qubits.

    A gate budget is then a probe of array operations: ``kept`` prunes
    with one comparison over all rows, ``draw_noise`` draws the kept
    rotations' perturbations as one array, and ``GaussianLayerModel``
    fills the model; no probe builds a ``Gate``, a circuit or a noise dict.
    """

    def __init__(self, layered: LayeredCircuit):
        self.core = core = layered.data_qubits - 1
        alpha = layered.alpha
        prelude = layered.prelude.elements
        if ([getattr(g, "target", None) for g in prelude] != [core, *range(core)]
                or prelude[0].kind is not GateKind.H
                or any(g.controls for g in prelude)):
            raise ParameterError(
                "the prelude must be the top-qubit H and one uncontrolled "
                "gate per core qubit, in qubit order")
        prelude = prelude[1:]
        windows = [g for layer in layered.layers for g in layer.gates]
        self.gates = prelude + tuple(windows)
        self.window_layer = np.array(
            [i for i, layer in enumerate(layered.layers) for _ in layer.gates],
            dtype=np.intp)
        self.pairs = np.array([_window_pair(g, core) for g in windows],
                              dtype=np.intp).reshape(-1, 2)
        self.kernels = np.array(
            [rotation_kernel(g.kind, g.exponent, alpha) for g in prelude]
        ).reshape(-1, 2, 2)
        self.columns = np.array(
            [rotation_kernel(g.kind, g.exponent, alpha)[:, 0]
             for g in windows]).reshape(-1, 2)
        self.distance = np.array([prune_distance(g, alpha)
                                  for g in self.gates])
        self.rotation, self.controlled = np.array(
            [(g.kind in ROTATION_KINDS, bool(g.controls)) for g in self.gates],
            dtype=bool).reshape(-1, 2).T

    def kept(self, budget: ErrorBudget) -> np.ndarray:
        """The rows pruning at ``budget`` keeps: a prelude row it does not
        keep becomes exact XH, a window it does not keep is dropped."""
        return ~prunes(self.distance,
                       budget.deltas(self.rotation, self.controlled))

    def draw_noise(self, budget: ErrorBudget, kept: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """The (rows, 2, 2) perturbations: one ``rng.normal(size=(G, 3))``
        draw for the G kept rotations, in the pruned circuit's gate order
        (prelude, then windows by layer and slot), as ``realize_noise``
        draws them; the identity elsewhere."""
        deltas = budget.deltas(self.rotation, self.controlled)
        rows = np.flatnonzero(kept & (deltas > 0.0))
        noise = _identities(len(self.gates))
        noise[rows] = _perturbations(rng.normal(size=(len(rows), 3)),
                                     deltas[rows])
        return noise


class GaussianLayerModel:
    """The core register of a layered Gaussian, prelude plus layers.

    The prelude is a product of per-qubit 2-vectors a_q, and every window
    has two closed controls j < k, so it multiplies by the ratio
    f_sel/f_rest where x_j = x_k = 1 and by f_rest everywhere, with
    f_sel = P00*K00 + P01*K10 and f_rest = P00 for kernel K and noise P.
    The unnormalized core amplitude is therefore

        prod_q a_q(x_q) * prod_{j<k} R[j, k]**(x_j*x_k)

    times the product of every f_rest, with R[j, k] the product of the
    ratios of the windows on pair (j, k).  Doubling over bit k fills the
    upper half as the lower half times a_k(1) times the column
    prod_{j<k} R[j, k]**x_j, itself doubled over contiguous halves, so no
    pass over the core is strided.  The windows commute, so the final
    state is the same in every layer order; the per-layer success
    probabilities are not.  The symmetrizing postlude is an isometry, so
    both equal their full-register values.

    ``GaussianLayerModel(table, kept, noise)`` is a probe's model: the
    rows of ``table`` that ``kept`` (the mask from ``CoreTable.kept``)
    keeps, under the perturbations ``noise`` (from
    ``CoreTable.draw_noise``).  A layer left with no window has no barrier
    and no probability, as in the flat engines.
    """

    def __init__(self, table: CoreTable, kept, noise):
        self.core = core = table.core
        # a_q: the prelude gate of qubit q, or XH where pruned, on |0>
        mats = np.where(kept[:core, None, None], table.kernels, XH_MATRIX)
        self.qubits = (noise[:core] @ mats)[:, :, 0]
        rows = np.flatnonzero(kept[core:])
        pert, column = noise[core:][rows], table.columns[rows]
        f_rest = pert[:, 0, 0]
        ratio = (f_rest * column[:, 0] + pert[:, 0, 1] * column[:, 1]) / f_rest
        j, k = table.pairs[rows].T
        self.ratios = np.ones((core, core), dtype=complex)  # R[j, k], j < k
        np.multiply.at(self.ratios, (j, k), ratio)
        self.scale = complex(np.prod(f_rest))  # the product of every f_rest
        # the kept windows of each kept layer, contiguous in layer order
        layer = table.window_layer[rows]
        starts = np.flatnonzero(np.diff(layer, prepend=-1))
        self._bounds = np.append(starts, len(rows))
        self._windows = (j, k, np.abs(ratio) ** 2)
        self._rests = np.multiply.reduceat(np.abs(f_rest) ** 2, starts)

    @property
    def n_layers(self) -> int:
        """The layers left with a window, which ``probs`` orders."""
        return len(self._rests)

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

        The real weights |amplitude|**2 factor like the amplitudes.  Divided
        by its w0 > 0, which keeps every ratio of sums, bit k weighs 1 at
        x_k = 0 and c_k * prod_{j<k} R2[j, k]**x_j at x_k = 1, with
        c_k = w1/w0 and R2 the joined windows' |ratio|**2.  That column is
        stored on the low b = _LOW_BITS bits, at most 2**b entries that a
        window multiplies strided, and held as scalars above them.  As each
        layer joins, the weights of the low core - 1 bits are refilled by
        doubling, and the top bit is summed out with no column: their sum
        plus their in-place fold over its scalars, dotted with its stored
        part.  A layer's probability is the ratio of the sums after and
        before, times its |f_rest|**2; the first sum is prod(1 + c_k).  No
        BLAS call sees more than 2**b elements: above about 2**14, a
        level-1 call can wait milliseconds for a helper thread to wake.
        """
        top, b = self.core - 1, _LOW_BITS
        # the low weights (a quarter state), stored columns and ``out``: at
        # or above the tracemalloc peak at core 8, 15, 18 and 21
        stored_size = sum(1 << min(k, b) for k in range(self.core))
        _check_capacity(self.core, copies=(
            0.25 + (stored_size + len(order)) / (2 << self.core)))
        ratios = (np.abs(self.qubits[:, 1] / self.qubits[:, 0]) ** 2).tolist()
        stored = [np.full(1 << min(k, b), c) for k, c in enumerate(ratios)]
        scalars = [[1.0] * (k - b) for k in range(self.core)]  # R2[b:k, k]
        low = np.empty(1 << top)
        levels = [(low[:1 << k], stored[k], low[1 << k:2 << k], scalars[k])
                  for k in range(top)]
        bounds = self._bounds.tolist()
        js, ks, ratios2 = (a.tolist() for a in self._windows)
        total = math.prod(1.0 + c for c in ratios)
        out = np.empty(len(order))
        for i, li in enumerate(order):
            lo, hi = bounds[li], bounds[li + 1]
            for j, k, ratio2 in zip(js[lo:hi], ks[lo:hi], ratios2[lo:hi]):
                if j < b:
                    stored[k].reshape(-1, 2, 1 << j)[:, 1] *= ratio2
                else:
                    scalars[k][j - b] *= ratio2
            low[0] = 1.0
            for lower, part, upper, rs in levels:
                if rs:
                    upper[:part.size] = part
                    for j, r in enumerate(rs, b):
                        np.multiply(upper[:1 << j], r, out=upper[1 << j:2 << j])
                    upper *= lower
                else:
                    np.multiply(lower, part, out=upper)
            cur = float(low.sum())
            for j in range(top - 1, b - 1, -1):
                upper = low[1 << j:2 << j]
                upper *= scalars[top][j - b]
                low[:1 << j] += upper
            cur += float(low[:stored[top].size] @ stored[top])
            out[i] = self._rests[li] * cur / total
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
