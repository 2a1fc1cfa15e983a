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


def build_half_gaussian(n: int, alpha: float) -> Circuit:
    """Half-Gaussian window on a uniform state: output ~ sum alpha**(x*x) |x>.

    Hadamards on all data qubits, then one ancilla-targeted B per expansion
    term of x**2: B(2j) controlled on qubit j, and B(j+k+1) doubly
    controlled on each pair j<k.  Every B uses a fresh ancilla, measured
    (post-selected on |0>) immediately after.
    """
    _check_n(n, 2)
    elements: list[Element] = [Gate(GateKind.H, q) for q in range(n)]
    anc = n  # next free ancilla (absolute index)
    for j in range(n):
        elements.append(
            Gate(GateKind.B, anc, exponent=float(2 * j), controls=(Control(j),)))
        elements.append(MeasureBarrier((anc,)))
        anc += 1
    for j in range(n):
        for k in range(j + 1, n):
            elements.append(
                Gate(GateKind.B, anc, exponent=float(j + k + 1),
                     controls=(Control(j), Control(k))))
            elements.append(MeasureBarrier((anc,)))
            anc += 1
    return Circuit(data_qubits=n, ancilla_qubits=anc - n, alpha=alpha,
                   elements=tuple(elements))


def merged_a_exponent(k: int) -> float:
    """Rotation exponent log2(2**k + 4**k) absorbing the half-shift into A."""
    return math.log2(2.0 ** k + 4.0 ** k)


def build_full_gaussian(n: int, alpha: float) -> Circuit:
    """Symmetric Gaussian: output ~ sum alpha**((x-(N-1)/2)**2) |x>.

    The n-1 core qubits get merged rotations A(log2(2**k+4**k)); all core
    pairs get doubly-controlled B(j+k+1) windows on fresh ancilla; the top
    qubit gets a Hadamard and open-control CNOTs flip the lower half.
    """
    _check_n(n, 3)
    core = n - 1
    top = n - 1
    elements: list[Element] = [Gate(GateKind.H, top)]
    elements.extend(
        Gate(GateKind.A, k, exponent=merged_a_exponent(k)) for k in range(core))
    anc = n
    for j in range(core):
        for k in range(j + 1, core):
            elements.append(
                Gate(GateKind.B, anc, exponent=float(j + k + 1),
                     controls=(Control(j), Control(k))))
            elements.append(MeasureBarrier((anc,)))
            anc += 1
    elements.extend(
        Gate(GateKind.CNOT, q, controls=(Control(top, closed=False),))
        for q in range(core))
    return Circuit(data_qubits=n, ancilla_qubits=anc - n, alpha=alpha,
                   elements=tuple(elements))


def layered_full_gaussian(n: int, alpha: float,
                          rounds: list[list[tuple[int, int]]] | None = None
                          ) -> LayeredCircuit:
    """Full Gaussian with ancilla reuse: pairs packed into disjoint rounds.

    The pair set over the n-1 core qubits is packed round-robin into
    core-1 rounds (core even) or core rounds (core odd) of floor(core/2)
    gates, each on its own ancilla out of a pool of floor((n-1)/2),
    followed by a measurement barrier.
    """
    from .optimizer import pack_layers

    _check_n(n, 3)
    core = n - 1
    top = n - 1
    n_anc = (n - 1) // 2
    if rounds is None:
        rounds = pack_layers(core)
    prelude = Circuit(
        data_qubits=n, ancilla_qubits=n_anc, alpha=alpha,
        elements=(Gate(GateKind.H, top),)
        + tuple(Gate(GateKind.A, k, exponent=merged_a_exponent(k))
                for k in range(core)),
    )
    layers = []
    for pairs in rounds:
        gates = tuple(
            Gate(GateKind.B, n + slot, exponent=float(j + k + 1),
                 controls=(Control(j), Control(k)))
            for slot, (j, k) in enumerate(pairs))
        layers.append(Layer(gates=gates))
    postlude = Circuit(
        data_qubits=n, ancilla_qubits=n_anc, alpha=alpha,
        elements=tuple(
            Gate(GateKind.CNOT, q, controls=(Control(top, closed=False),))
            for q in range(core)),
    )
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
    n = n_x + n_y
    elements: list[Element] = []
    for j in range(n_y):
        elements.append(Gate(GateKind.A, j, exponent=math.log2(cyy) + 2 * j))
    for j in range(n_x):
        elements.append(Gate(GateKind.A, x0 + j, exponent=math.log2(cxx) + 2 * j))
    anc = n

    def window(exponent: float, q1: int, q2: int) -> None:
        nonlocal anc
        elements.append(
            Gate(GateKind.B, anc, exponent=exponent,
                 controls=(Control(q1), Control(q2))))
        elements.append(MeasureBarrier((anc,)))
        anc += 1

    for j in range(n_y):
        for k in range(j + 1, n_y):
            window(math.log2(cyy) + j + k + 1, j, k)
    for j in range(n_x):
        for k in range(j + 1, n_x):
            window(math.log2(cxx) + j + k + 1, x0 + j, x0 + k)
    if cxy > 0:
        for j in range(n_x):
            for k in range(n_y):
                window(math.log2(cxy) + j + k, x0 + j, k)
    return Circuit(data_qubits=n, ancilla_qubits=anc - n, alpha=alpha,
                   elements=tuple(elements))
