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
  the windows commute, and the one final state of every layer order is a
  product form, as is the ideal.  ``_ProductForm`` holds one in chunks of
  the low 12 bits: the fill of those bits, times one column per high bit
  set, times a scalar.  ``error()`` compares the state with the ideal
  chunk by chunk once sums of the two forms' factors give the norm and
  the phase, so no spec run allocates a 2**core array; ``state()``, the
  chunks concatenated, serves the tests.  ``probs(order)`` sums the real
  weights |amplitude|**2 as each layer joins with one small matrix
  product of arrays refilled by doubling, from columns stored on low bits
  of its own, every bit up to 12 core bits and about a third above, and
  on the bits above them.  ``CoreTable(n_qubits, alpha)`` is a
  spec run's one object: it checks capacity, builds the unpruned layered
  circuit, reads it into one row per gate and holds the ideal's form and
  the buffers its probes refill.  Each gate budget ``estimate`` tries is
  a probe: ``kept`` prunes with one comparison over all rows,
  ``draw_noise`` draws the kept rotations' noise as one array and
  ``GaussianLayerModel`` fills the model.

The flat engines touch a state only through ``_block``, the strided view
that fixes some bits and leaves the rest free: a gate applies its 2x2
kernel to the target inside the control-satisfied block, a window
multiplies that block, and a barrier keeps the block where its ancilla
read 0.  Both take which ancilla are live from ``circuit.Liveness``, as
``validate`` does.  Every engine records one success probability per
barrier; their product is the squared subnormalization of the preparation.

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

from .builders import (_normalize_quadratic_form, layered_full_gaussian,
                       merged_a_exponent)
from .circuit import Circuit, Liveness, MeasureBarrier
from .gates import (XH_MATRIX, Gate, GateKind, ParameterError, a_matrix,
                    a_xh_distance, alpha_power, rotation_kernel)
from .optimizer import ErrorBudget, pack_layers, prunes

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
                f"need of {need:.4g} MB exceeds GAUSSKIT_MEM_LIMIT_MB={limit_mb}")


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
    walk = Liveness(circuit)
    steps = list(walk)
    peak = max((len(after) for _, _, after, _ in steps), default=0)
    _check_capacity(n_data + peak)
    state = np.zeros(1 << n_data, dtype=complex)
    state[0] = 1.0
    probs: list[float] = []

    for elem, before, after, _ in steps:  # live ancilla i on bit n_data + i
        if isinstance(elem, MeasureBarrier):
            if before == after:  # it measures no live ancilla
                probs.append(1.0)
                continue
            state = _block(state, [(n_data + i, 0) for i, a in enumerate(before)
                                   if a not in after]).reshape(-1)
            p = float(np.vdot(state, state).real)
            if p <= 0.0:
                raise ParameterError("post-selection branch has zero amplitude")
            state = state / math.sqrt(p)
            probs.append(p)
            continue
        for _ in after[len(before):]:  # materialize before the gate's view
            state = np.concatenate([state, np.zeros_like(state)])
        _apply_gate(state, elem, circuit.alpha, noise,
                    lambda q: q if q < n_data else n_data + after.index(q))

    if walk.open:
        raise ParameterError(
            f"circuit ended with unmeasured live ancilla {sorted(walk.open)}")
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
    accumulated norm loss as that round's success probability, so a window
    on a live ancilla (``textio.load`` refuses it in a file first), a
    barrier that leaves a window's ancilla live and a window after the
    last barrier raise ParameterError.
    """
    n = circuit.data_qubits
    _check_capacity(n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    scale = 1.0  # <0|P|0> of the noisy windows since the last barrier
    probs: list[float] = []

    # every live ancilla is a window's: other ancilla use is refused
    walk = Liveness(circuit)
    for elem, before, after, reused in walk:
        if isinstance(elem, MeasureBarrier):
            if after:
                raise ParameterError(
                    "post-selected backend: barrier leaves window ancilla "
                    f"{sorted(after)} unmeasured")
            probs.append(_post_select(state, scale) if before else 1.0)
            scale = 1.0
            continue
        if any(circuit.is_ancilla(c.qubit) for c in elem.controls):
            raise ParameterError("ancilla-controlled gates are unsupported")
        if circuit.is_ancilla(elem.target):
            if elem.kind is not GateKind.B:
                raise ParameterError(
                    "post-selected backend supports only B gates on ancilla")
            if reused:
                raise ParameterError("post-selected backend: ancilla "
                                     f"{elem.target} not reset before window")
            f_sel, f_rest = _window_factors(elem, circuit.alpha, noise)
            _apply_window(state, elem.controls, f_sel / f_rest)
            scale *= f_rest
            continue
        _apply_gate(state, elem, circuit.alpha, noise)
    if walk.open:
        raise ParameterError(
            "post-selected backend: circuit ends with window ancilla "
            f"{sorted(walk.open)} unmeasured")

    return (StateVector(n_qubits=n, amplitudes=state),
            SimReport(layer_probs=tuple(probs)))


_CHUNK = 1 << 15  # l2_error's buffer: 512 KB of complex differences
_LOW_BITS = 12  # a product form's chunks span these low bits


def check_spec_capacity(core: int) -> None:
    """A spec run's one memory check, which its ``CoreTable`` makes before
    it allocates.  No array of the run has 2**core entries.  With b, h
    and h2 from ``_split``, the table holds its real ideal form
    (``_ProductForm``) and the complex ``_Scratch`` its probes refill,
    whose p1 and p2 also hold the real arrays of ``probs``; on top of
    these come either a probe's doubling triangle (b * 2**(b-1) complex
    entries), sum arguments and chunk buffers, or the columns of
    ``probs``, which are smaller."""
    b, h, h2 = _split(core)
    form = (h + 1 << b) + (1 << h)
    sums = ((1 << h - h2) + (1 << h2) << b) + (1 << h)
    floats = form + 2 * (form + (h << b) + sums) + (b + h + 7 << b) + (16 << h)
    _check_capacity(core, copies=floats / (2 << core))


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


def _identities(count: int) -> np.ndarray:
    return np.broadcast_to(np.eye(2, dtype=complex), (count, 2, 2)).copy()


def _doublings(*pairs):
    """The (lower, column, upper) triple of each doubling, in the order
    they run, that refills each ``rows`` of the (rows, columns) ``pairs``
    from its first entry: rows[2**t:2**(t+1)] = rows[:2**t] * columns[t]."""
    return [(rows[:1 << t], col, rows[1 << t:2 << t])
            for rows, cols in pairs for t, col in enumerate(cols)]


def _weight_sum(levels, p1, p2, a, prod):
    """The function that runs the doublings ``levels``, which refill p1, p2
    and a, and returns sum_{r1, r2} a[r1 * len(p2) + r2] * (p1 @ p2.T)[r1,
    r2]: one level-3 BLAS call, whose threads split its rows and columns,
    never the sum along them (at most 2**12 terms), and a dot in slices of
    at most 8192 floats (one for ``probs``' a up to core 22), which
    OpenBLAS runs on one thread below 10000 elements.  So the sum is the
    same under any thread count."""
    p2t, flat = p2.T, prod.reshape(-1)
    step = 65536 // prod.itemsize

    def total():
        for lower, part, upper in levels:
            np.multiply(lower, part, out=upper)
        np.dot(p1, p2t, out=prod)
        return sum(np.dot(flat[i:i + step], a[i:i + step])
                   for i in range(0, len(flat), step))
    return total


def _doubled(first, rows, out: np.ndarray) -> np.ndarray:
    """Fill the (m, 2**d) ``out`` so that its column x is first *
    prod_j rows[j]**x_j, for the m-vector ``first`` and the d rows of m
    factors ``rows``: the outer product of the columns on the low d // 2
    bits and on the rest, each doubled in a small array of its own (a
    doubling inside ``out`` reads and writes interleaved rows of one
    array, which numpy copies)."""
    def doubled(start, factors):
        cols = np.empty((len(start), 1 << len(factors)), out.dtype)
        cols[:, 0] = start
        for j, row in enumerate(factors):
            np.multiply(cols[:, :1 << j], row[:, None],
                        out=cols[:, 1 << j:2 << j])
        return cols

    if not out.size:
        return out
    half = len(rows) // 2
    low = doubled(first, rows[:half])
    high = doubled(np.ones(len(first)), rows[half:])
    np.multiply(high[:, :, None], low[:, None, :],
                out=out.reshape(len(out), high.shape[1], low.shape[1]))
    return out


def _filled(rho, pair, out: np.ndarray) -> np.ndarray:
    """Fill the 2**d ``out`` with prod_t rho[t]**x_t * prod_{j<t}
    pair[j, t]**(x_j*x_t) over d bits: each upper half 2**t..2**(t+1) - 1
    is the lower half times the column rho[t] * prod_{j<t} pair[j, t]**x_j.
    Row t of ``cols`` holds that column, doubled only as far as bit t
    needs, so of its d * 2**(d-1) entries it touches 2**d."""
    d = len(rho)
    cols = np.empty((d, 1 << max(d - 1, 0)), out.dtype)
    cols[:, 0] = rho
    for j in range(d - 1):
        np.multiply(cols[j + 1:, :1 << j], pair[j, j + 1:, None],
                    out=cols[j + 1:, 1 << j:2 << j])
    out[0] = 1.0
    for t, col in enumerate(cols):
        np.multiply(out[:1 << t], col[:1 << t], out=out[1 << t:2 << t])
    return out


def _split(core: int, b: int | None = None) -> tuple[int, int, int]:
    """(b, h, h2): the b low bits, by default the min(core, 12) a chunk
    spans, the h high bits above them, and the low h // 2 of those, H2,
    whose columns make a weight sum's p2."""
    b = min(core, _LOW_BITS) if b is None else b
    return b, core - b, (core - b) // 2


def _weight_split(core: int) -> tuple[int, int, int]:
    """``probs``' (b, h, h2): every bit low up to core 12, where Python
    calls dominate, then about a third of them, so that p1, p2 and a hold
    about 2**(2 core / 3) entries each."""
    return _split(core, core if core <= _LOW_BITS else (core + 5) // 3)


class _ProductForm:
    """The 2**core values prod_q rho[q]**x_q * prod_{j<k} pair[j, k]**(x_j*x_k)
    over the core bits x, for ``pair`` 1 on and below its diagonal, in
    chunks of the low b bits (``_split``).  The chunk of the high bits r is
    ``fill``, the form on the low bits alone, times ``cols[k]`` for each
    high bit k set in r (rho of b + k times the pair factors of b + k with
    the low bits), times ``scalars[r]`` (the pair factors within r).  No
    array has more than h * 2**b or 2**h entries.  The arrays are
    allocated once; ``set`` refills them."""

    def __init__(self, core: int, dtype):
        b, h, _ = _split(core)
        self.fill = np.empty(1 << b, dtype)
        self.cols = np.empty((h, 1 << b), dtype)
        self.scalars = np.empty(1 << h, dtype)

    def set(self, rho: np.ndarray, pair: np.ndarray) -> _ProductForm:
        b = self.fill.size.bit_length() - 1
        _filled(rho[:b], pair[:b, :b], self.fill)
        _doubled(rho[b:], pair[:b, b:], self.cols)
        _filled(np.ones(len(self.cols)), pair[b:, b:], self.scalars)
        return self

    def chunks(self, stack: np.ndarray):
        """Each chunk without its scalar, fill * prod_{k in r} cols[k], for
        r = 0, 1, ...  Its parent r & (r - 1) is the latest chunk one
        popcount below r, so one multiply by the column of r's lowest set
        bit gives it, and the fill and the h rows of ``stack``, one per
        popcount, hold every parent still to be read.  A chunk is valid
        until the next one."""
        levels = [self.fill, *stack[:len(self.cols)]]
        yield self.fill
        for r in range(1, len(self.scalars)):
            p = r.bit_count()
            np.multiply(levels[p - 1], self.cols[(r & -r).bit_length() - 1],
                        out=levels[p])
            yield levels[p]


def _floats(buf: np.ndarray, *shapes) -> list[np.ndarray]:
    """Real arrays of ``shapes``, one after another over ``buf``'s memory
    from its start."""
    flat, out = buf.reshape(-1).view(float), []
    for shape in shapes:
        out.append(flat[:math.prod(shape)].reshape(shape))
        flat = flat[out[-1].size:]
    return out


class _Scratch:
    """The arrays a probe's ``error`` and ``probs`` fill on ``core`` bits,
    allocated once per table: fresh on every probe, arrays this large fault
    in new pages each time (432 faults a probe at n = 19).  ``form`` is the
    probe's complex product form, ``cols`` the columns of a form being
    summed, and p1, p2 and ``prod`` the buffers of ``total``, with their
    real views ``real``; once the sums are taken, p1 and p2 hold the chunk
    walks' complex and real stacks.  ``weights`` are the real p1, p2,
    product and a of ``probs``, on its own split (``_weight_split``), in
    the memory of p1 (p1 and a) and of p2 (p2 and the product), of which
    they take at most three quarters up to core 26."""

    def __init__(self, core: int):
        b, h, h2 = _split(core)
        self.form = _ProductForm(core, complex)
        self.cols = np.empty((h, 1 << b), complex)
        self.p1 = np.empty((1 << h - h2, 1 << b), complex)
        self.p2 = np.empty((1 << h2, 1 << b), complex)
        self.prod = np.empty((len(self.p1), len(self.p2)), complex)
        self.real = tuple(_floats(v, v.shape)[0]
                          for v in (self.p1, self.p2, self.prod))
        b, h, h2 = _weight_split(core)
        p1, a = _floats(self.p1, (1 << h - h2, 1 << b), (1 << h,))
        p2, prod = _floats(self.p2, (1 << h2, 1 << b), (len(p1), 1 << h2))
        self.weights = (p1, p2, prod, a)

    def total(self, fill, cols, scalars):
        """The sum of the entries of the product form (fill, cols,
        scalars), real or complex, ``cols`` possibly in ``self.cols``.
        With no high bit it is the fill's sum.  Otherwise, with the high
        bits split into H2 and H1 above it, it is

            sum_{r1, r2} scalars[r1, r2] * (p1 @ p2.T)[r1, r2],

        where row r1 of p1 is the fill times the columns of the H1 bits set
        in r1, and row r2 of p2 the product of the columns of the H2 bits
        set in r2."""
        h = len(cols)
        if not h:
            return fill.sum() * scalars[0]
        p1, p2, prod = (self.real if cols.dtype == float
                        else (self.p1, self.p2, self.prod))
        p1[0], p2[0] = fill, 1.0
        return _weight_sum(_doublings((p1, cols[h // 2:]), (p2, cols[:h // 2])),
                           p1, p2, scalars, prod)()


class CoreTable:
    """The core register of the layered Gaussian of (n_qubits, alpha) as
    arrays, and its ideal state as a product form.

    The table first refuses a run the memory budget cannot hold
    (``check_spec_capacity``, which counts every array below and those of
    a probe), then builds the unpruned
    ``layered = layered_full_gaussian(n_qubits, alpha, rounds)``;
    ``rounds`` replaces the builder's packed pair rounds, as there.  The
    rows are the prelude's merged rotation per core qubit, in qubit order,
    then the windows in layer and slot order.  Every row is a rotation
    with its ``optimizer.prune_distance`` and a flag, whether it has
    controls, which sets its budget.  A prelude row also
    has its kernel; a window has its pair j < k (its two closed controls),
    its layer and the column (K00, K10) of its kernel.  Each row is a
    closed form of alpha and the rounds, bit for bit its Gate's value.
    Last, ``ideal`` is the normalized ideal core state
    ``ideal_core_half_shifted`` as a real ``_ProductForm``, and
    ``scratch`` the ``_Scratch`` every probe's error and probabilities
    refill, so a table's probes run one at a time.

    A gate budget is then a probe of array operations: ``kept`` prunes
    with one comparison over all rows, ``draw_noise`` draws the kept
    rotations' perturbations as one array, and ``GaussianLayerModel``
    fills the model; no probe builds a ``Gate``, a circuit or a noise dict.
    """

    def __init__(self, n_qubits: int, alpha: float, rounds=None):
        self.core = core = n_qubits - 1
        check_spec_capacity(core)
        if rounds is None:
            rounds = pack_layers(core)
        self.layered = layered_full_gaussian(n_qubits, alpha, rounds)
        self.window_layer = np.repeat(np.arange(len(rounds)),
                                      [len(pairs) for pairs in rounds])
        self.pairs = np.sort([pair for pairs in rounds for pair in pairs])
        exponents = [merged_a_exponent(k) for k in range(core)]
        self.kernels = np.array([a_matrix(alpha, m) for m in exponents])
        # each window's alpha**(2**e), one exp per e = j + k + 1 < 2 * core
        diag = np.array([alpha_power(alpha, e) for e in range(2 * core)])[
            self.pairs.sum(axis=1) + 1]
        self.columns = np.stack([diag, np.sqrt(1.0 - diag * diag)],
                                axis=1).astype(complex)
        self.distance = np.concatenate(
            [[a_xh_distance(alpha, m) for m in exponents], 1.0 - diag])
        self.controlled = np.arange(len(self.distance)) >= core
        self.scratch = _Scratch(core)
        # alpha**(y*y + y), the ideal over alpha**(1/4), at y = l + 2**b * r
        # for the low bits l and high bits r: fill alpha**(l*l + l), column
        # k alpha**(4**k + 2**k + 2**(k+1) * l) and scalar
        # alpha**((2**b * r)**2 - sum_{k in r} 4**k), each one exp of an
        # exact integer exponent
        self.ideal = ideal = _ProductForm(core, float)
        b, h, _ = _split(core)
        log_alpha = math.log(alpha)
        low = np.arange(1 << b)
        np.exp(log_alpha * (low * low + low), out=ideal.fill)
        ideal.scalars[0] = 1.0
        if h:
            high, top = np.arange(b, core), np.arange(1 << h) << b
            np.exp(log_alpha * ((4 ** high + 2 ** high)[:, None]
                                + (2 << high)[:, None] * low), out=ideal.cols)
            np.exp(log_alpha * (top * top - (top[:, None] >> high & 1)
                                @ 4 ** high), out=ideal.scalars)
        ideal.scalars /= math.sqrt(self.scratch.total(
            ideal.fill ** 2, ideal.cols ** 2, ideal.scalars ** 2))

    def kept(self, budget: ErrorBudget) -> np.ndarray:
        """The rows pruning at ``budget`` keeps: a prelude row it does not
        keep becomes exact XH, a window it does not keep is dropped."""
        return ~prunes(self.distance,
                       budget.deltas(self.controlled))

    def draw_noise(self, budget: ErrorBudget, kept: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """The (rows, 2, 2) perturbations: one ``rng.normal(size=(G, 3))``
        draw for the G kept rotations, in the pruned circuit's gate order
        (prelude, then windows by layer and slot), as ``realize_noise``
        draws them; the identity elsewhere."""
        deltas = budget.deltas(self.controlled)
        rows = np.flatnonzero(kept & (deltas > 0.0))
        noise = _identities(len(self.distance))
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
        self._ideal, self._scratch = table.ideal, table.scratch
        # a_q: the prelude gate of qubit q, or XH where pruned, on |0>
        mats = np.where(kept[:core, None, None], table.kernels, XH_MATRIX)
        self.qubits = (noise[:core] @ mats)[:, :, 0]
        self.rho = self.qubits[:, 1] / self.qubits[:, 0]
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

    def error(self) -> float:
        """``l2_error(ideal, state())``, the distance of the normalized state
        from the table's ideal after aligning global phase, with no 2**core
        array.

        The state divided by prod_q a_q(0) is the product form of the
        ratios a_q(1)/a_q(0) and R, on the bits the ideal's form uses.
        The norm and the overlap, whose phase aligns the state, are sums
        of products of the two forms' factors, one ``_Scratch.total``
        each; an error d in either moves the squared error by about
        d * eps**2.  The difference is then taken elementwise, chunk by
        chunk, as the 2 - 2|<a|b>| form would lose the answer: the
        multiply that scales each state chunk by its scalar also applies
        the norm and the phase.  No reduction sums more than 8192 floats,
        so none depends on the BLAS thread count.
        """
        scratch, ideal = self._scratch, self._ideal
        psi = scratch.form.set(self.rho, self.ratios)
        weights = np.abs(psi.cols,
                         out=_floats(scratch.cols, psi.cols.shape)[0])
        norm = math.sqrt(scratch.total(
            np.abs(psi.fill) ** 2, np.square(weights, out=weights),
            np.abs(psi.scalars) ** 2))
        overlap = complex(scratch.total(
            ideal.fill * psi.fill,
            np.multiply(ideal.cols, psi.cols, out=scratch.cols),
            ideal.scalars * psi.scalars))
        phase = overlap.conjugate() / abs(overlap) if overlap else 1.0
        diff = np.empty(psi.fill.size, dtype=complex)
        flat, part = diff.view(np.float64), np.empty(psi.fill.size)
        sq = 0.0
        for chunk, target, scale, ideal_scale in zip(
                psi.chunks(scratch.p1),
                ideal.chunks(_floats(scratch.p2, psi.cols.shape)[0]),
                (psi.scalars * (phase / norm)).tolist(),
                ideal.scalars.tolist()):
            np.multiply(chunk, scale, out=diff)
            np.multiply(target, ideal_scale, out=part)
            diff.real -= part
            sq += float(flat @ flat)
        return math.sqrt(sq)

    def state(self) -> np.ndarray:
        """The normalized core state after all layers, in any order: the
        chunks ``error`` walks, each times its scalar, concatenated."""
        b, h, _ = _split(self.core)
        # the state, or the doubling triangles of the fill and the scalars
        # (``_filled``), which are freed before it exists
        _check_capacity(self.core, copies=max(1.0, (
            (b << b >> 1) + (h << max(h - 1, 0))) / (1 << self.core)))
        psi = self._scratch.form.set(self.rho, self.ratios)
        vec = np.empty((len(psi.scalars), psi.fill.size), dtype=complex)
        for row, chunk, scale in zip(vec, psi.chunks(self._scratch.p1),
                                     psi.scalars.tolist()):
            np.multiply(chunk, scale, out=row)
        vec = vec.reshape(-1)
        _post_select(vec, self.scale * np.prod(self.qubits[:, 0]))
        return vec

    def probs(self, order) -> np.ndarray:
        """Each layer's success probability when the layers run in ``order``.

        The real weights |amplitude|**2 factor like the amplitudes.  Divided
        by its w0 > 0, which keeps every ratio of sums, bit k weighs 1 at
        x_k = 0 and c_k * prod_{j<k} R2[j, k]**x_j at x_k = 1, with
        c_k = w1/w0 and R2 the joined windows' |ratio|**2.  Its factors on
        the low b bits L (``_weight_split``) are stored as one column of at
        most 2**b entries, and those on the high bits H above them as one
        column on the high bits below k.  With H split into H2, its low
        h // 2 bits, and H1 above them, the sum of the weights is

            sum_{r1, r2} a[r1, r2] * (p1 @ p2.T)[r1, r2],

        where row r1 of p1 is the weights of L times the L columns of the
        H1 bits set in r1, row r2 of p2 the product of the L columns of the
        H2 bits set in r2, and a the products of the high columns.  As
        each layer joins, p1, p2 and a (the table's ``_Scratch.weights``)
        are refilled by doubling (``_weight_sum``), and the sum is one
        level-3 BLAS call, (128 x 256) @ (256 x 64) at core 21, and a dot
        of 2**h entries.  At core 21 the refill is 57K entries a layer,
        against 196K with b = 12, which took longer than the product: on a
        2-core box a pass took 7 ms against 16 ms.  A layer's probability
        is the ratio of the sums after and before, times its |f_rest|**2;
        the first sum is prod(1 + c_k).
        """
        b, h, h2 = _weight_split(self.core)
        p1, p2, prod, a = self._scratch.weights
        ratios = (np.abs(self.rho) ** 2).tolist()
        stored = [np.full(1 << min(k, b), c) for k, c in enumerate(ratios)]
        high = [np.ones(1 << t) for t in range(h)]  # R2[b:k, k] for k = b + t
        p1[0, 0] = p2[0] = a[0] = 1.0
        weight_sum = _weight_sum(
            _doublings((p1[0], stored[:b]), (p1, stored[b + h2:]),
                       (p2, stored[b:b + h2]), (a, high)), p1, p2, a, prod)
        bounds = self._bounds.tolist()
        js, ks, ratios2 = (v.tolist() for v in self._windows)
        total = math.prod(1.0 + c for c in ratios)
        out = np.empty(len(order))
        for i, li in enumerate(order):
            lo, hi = bounds[li], bounds[li + 1]
            for j, k, ratio2 in zip(js[lo:hi], ks[lo:hi], ratios2[lo:hi]):
                col, j = (stored[k], j) if j < b else (high[k - b], j - b)
                col.reshape(-1, 2, 1 << j)[:, 1] *= ratio2
            cur = float(weight_sum())
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
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if len(nks) != len(ps):
        raise ParameterError(
            f"{len(nks)} layer costs for {len(ps)} layer probabilities")
    if not np.all((0.0 < ps) & (ps <= 1.0)):
        raise ParameterError("layer probabilities must lie in (0, 1]: a "
                             "zero-probability layer never succeeds")
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
