"""Constructors for every circuit family in the toolkit.

All builders are pure functions returning immutable circuits.  The window
machinery follows one pattern: diagonal terms of the target exponent map
to uncontrolled rotations, pairwise terms map to ancilla-targeted
controlled rotations whose post-selected measurement applies the diagonal
window factor.
"""
from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, Element, Layer, LayeredCircuit, MeasureBarrier
from .expansion import monomial_coefficients
from .gates import Control, Gate, GateKind, ParameterError
from .optimizer import pack_layers


def _check_n(n: int, minimum: int) -> None:
    if n < minimum:
        raise ParameterError(f"need at least {minimum} qubits, got {n}")


def build_poly_phase(n: int, alpha: float, d: int) -> Circuit:
    """Phase state exp(i*alpha*x**d): one Z rotation per expansion term.

    Each term with coefficient c over digit subset S becomes Z(log2(c))
    targeted on the smallest qubit of S, closed-controlled on the rest.
    The Z part is fully diagonal, so it applies to any initial state; the
    leading Hadamards make it a preparation from |0...0>.
    """
    _check_n(n, 1)
    expansion = monomial_coefficients(n, d)
    elements: list[Element] = [Gate(GateKind.H, q) for q in range(n)]
    for subset in sorted(expansion.terms, key=lambda s: (len(s), sorted(s))):
        coeff = expansion.terms[subset]
        qubits = sorted(subset)
        target, rest = qubits[0], qubits[1:]
        elements.append(
            Gate(
                GateKind.Z,
                target,
                exponent=math.log2(coeff),
                controls=tuple(Control(q) for q in rest),
            )
        )
    return Circuit(data_qubits=n, ancilla_qubits=0, alpha=alpha,
                   elements=tuple(elements))


def build_exponential(n: int, alpha: float) -> Circuit:
    """A(j) on qubit j: state proportional to sum alpha**x |x>.

    The prepared state carries subnormalization prod_k (1+alpha**(2**k))**-1/2
    for k = 1..n, but the rotations are unitary so no post-selection occurs.
    """
    _check_n(n, 1)
    elements = tuple(Gate(GateKind.A, q, exponent=float(q)) for q in range(n))
    return Circuit(data_qubits=n, ancilla_qubits=0, alpha=alpha, elements=elements)


def _window_circuit(n: int, alpha: float, head, windows, tail=()) -> Circuit:
    """``head``, then one window per (exponent, control qubits) of
    ``windows``, then ``tail``, on n data qubits.  Window i is a B gate on
    the fresh ancilla n + i, closed-controlled on its qubits, followed by
    the barrier that measures it."""
    body: list[Element] = []
    for anc, (exponent, qubits) in enumerate(windows, start=n):
        body.append(Gate(GateKind.B, anc, exponent=exponent,
                         controls=tuple(map(Control, qubits))))
        body.append(MeasureBarrier((anc,)))
    return Circuit(data_qubits=n, ancilla_qubits=len(body) // 2, alpha=alpha,
                   elements=(*head, *body, *tail))


def build_half_gaussian(n: int, alpha: float) -> Circuit:
    """Half-Gaussian window on a uniform state: output ~ sum alpha**(x*x) |x>.

    Hadamards on all data qubits, then one ancilla-targeted B per expansion
    term of x**2: B(2j) controlled on qubit j, and B(j+k+1) doubly
    controlled on each pair j<k.  Every B uses a fresh ancilla, measured
    (post-selected on |0>) immediately after.
    """
    _check_n(n, 2)
    return _window_circuit(
        n, alpha, [Gate(GateKind.H, q) for q in range(n)],
        [(float(2 * j), (j,)) for j in range(n)]
        + [(float(j + k + 1), (j, k))
           for j in range(n) for k in range(j + 1, n)])


def merged_a_exponent(k: int) -> float:
    """Rotation exponent log2(2**k + 4**k) absorbing the half-shift into A."""
    return math.log2(2.0 ** k + 4.0 ** k)


def _full_prelude(n: int) -> tuple[Gate, ...]:
    """The full Gaussian's prelude: a Hadamard on the top qubit, then the
    merged rotation A(log2(2**k+4**k)) on each core qubit k < n-1."""
    return (Gate(GateKind.H, n - 1),) + tuple(
        Gate(GateKind.A, k, exponent=merged_a_exponent(k)) for k in range(n - 1))


def _full_postlude(n: int) -> tuple[Gate, ...]:
    """The full Gaussian's postlude: open-control CNOTs from the top qubit
    flip the core qubits, reflecting the lower half."""
    return tuple(Gate(GateKind.CNOT, q, controls=(Control(n - 1, closed=False),))
                 for q in range(n - 1))


def build_full_gaussian(n: int, alpha: float) -> Circuit:
    """Symmetric Gaussian: output ~ sum alpha**((x-(N-1)/2)**2) |x>.

    The n-1 core qubits get merged rotations A(log2(2**k+4**k)); all core
    pairs get doubly-controlled B(j+k+1) windows on fresh ancilla; the top
    qubit gets a Hadamard and open-control CNOTs flip the lower half.
    """
    _check_n(n, 3)
    return _window_circuit(
        n, alpha, _full_prelude(n),
        [(float(j + k + 1), (j, k))
         for j in range(n - 1) for k in range(j + 1, n - 1)],
        _full_postlude(n))


def layered_full_gaussian(n: int, alpha: float,
                          rounds: list[list[tuple[int, int]]] | None = None
                          ) -> LayeredCircuit:
    """Full Gaussian with ancilla reuse: pairs packed into disjoint rounds.

    The pair set over the n-1 core qubits is packed round-robin into
    core-1 rounds (core even) or core rounds (core odd) of floor(core/2)
    gates, each on its own ancilla out of a pool of floor((n-1)/2),
    followed by a measurement barrier.
    """
    _check_n(n, 3)
    core = n - 1
    n_anc = (n - 1) // 2
    if rounds is None:
        rounds = pack_layers(core)
    prelude = Circuit(data_qubits=n, ancilla_qubits=n_anc, alpha=alpha,
                      elements=_full_prelude(n))
    layers = []
    for pairs in rounds:
        gates = tuple(
            Gate(GateKind.B, n + slot, exponent=float(j + k + 1),
                 controls=(Control(j), Control(k)))
            for slot, (j, k) in enumerate(pairs))
        layers.append(Layer(gates=gates))
    postlude = Circuit(data_qubits=n, ancilla_qubits=n_anc, alpha=alpha,
                       elements=_full_postlude(n))
    return LayeredCircuit(prelude=prelude, layers=tuple(layers), postlude=postlude)


def _normalize_quadratic_form(q) -> tuple[int, int, int]:
    """Accept (cxx, cxy, cyy) or a symmetric 2x2 matrix [[cxx, b],[b, cyy]]
    meaning cxx*x**2 + 2b*xy + cyy*y**2; the three coefficients must be
    integers."""
    arr = np.asarray(q)
    if arr.shape == (2, 2):
        if arr[0, 1] != arr[1, 0]:
            raise ParameterError("quadratic form matrix must be symmetric")
        arr = np.array([arr[0, 0], arr[0, 1] + arr[1, 0], arr[1, 1]])
    elif arr.shape != (3,):
        raise ParameterError("quadratic form must be a triple or a 2x2 matrix")
    coeffs = arr.tolist()
    if not all(float(c).is_integer() for c in coeffs):
        raise ParameterError(
            f"quadratic form coefficients must be integers, got {coeffs}")
    cxx, cxy, cyy = (int(c) for c in coeffs)
    if cxx <= 0 or cyy <= 0:
        raise ParameterError("quadratic form needs positive x**2 and y**2 terms")
    if cxy < 0:
        raise ParameterError("negative cross terms are not encodable (alpha < 1)")
    return cxx, cxy, cyy


def build_gaussian_2d(n_x: int, n_y: int, q, alpha: float) -> Circuit:
    """Quadrant Gaussian over two registers: ~ sum alpha**F(x,y) |x>|y>
    with F = cxx*x**2 + cxy*x*y + cyy*y**2.

    The y register sits at qubits 0..n_y-1, the x register above it, so
    the joint basis index is x*2**n_y + y.  Pure terms become A rotations
    and within-register pair windows; each cross term x_j*y_k becomes a
    window B(log2(cxy) + j + k) spanning both registers.
    """
    _check_n(n_x, 1)
    _check_n(n_y, 1)
    cxx, cxy, cyy = _normalize_quadratic_form(q)
    x0 = n_y  # absolute index of x register bit 0
    return _window_circuit(
        n_x + n_y, alpha,
        [Gate(GateKind.A, j, exponent=math.log2(cyy) + 2 * j)
         for j in range(n_y)]
        + [Gate(GateKind.A, x0 + j, exponent=math.log2(cxx) + 2 * j)
           for j in range(n_x)],
        [(math.log2(cyy) + j + k + 1, (j, k))
         for j in range(n_y) for k in range(j + 1, n_y)]
        + [(math.log2(cxx) + j + k + 1, (x0 + j, x0 + k))
           for j in range(n_x) for k in range(j + 1, n_x)]
        + [(math.log2(cxy) + j + k, (x0 + j, k))
           for j in range(n_x) for k in range(n_y) if cxy > 0])
