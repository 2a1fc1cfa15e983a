"""Parametric rotation gates and their exact matrices.

The whole toolkit is built from three rotation families, all parameterized
by an exponential base ``alpha`` in (0, 1) and a real exponent ``m``:

* ``A(m)``: a Y-rotation whose column ratio is ``alpha**(2**m)``; used to
  prepare exponential gradients.
* ``B(m)``: a Y-rotation that places ``alpha**(2**m)`` in the top-left
  entry; controlled forms of it block-encode diagonal window operators.
* ``Z(m)``: a Z-rotation with relative phase ``exp(i * alpha * 2**m)``;
  used for polynomial phase states.

Exponents are kept as reals: merged A rotations use non-integer exponents
such as ``log2(2**k + 4**k)``.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
# X @ H: the limit of A(m) for alpha**(2**m) -> 1.
XH_MATRIX = X_MATRIX @ H_MATRIX


class GateKind(str, Enum):
    A = "A"
    B = "B"
    Z = "Z"
    H = "H"
    X = "X"
    CNOT = "CNOT"


ROTATION_KINDS = (GateKind.A, GateKind.B, GateKind.Z)
CLIFFORD_KINDS = (GateKind.H, GateKind.X, GateKind.CNOT)


class ParameterError(ValueError):
    """A gate or circuit parameter is outside its allowed domain."""


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_exponent(m: float) -> None:
    if not math.isfinite(m):
        raise ParameterError(f"rotation exponent must be finite, got {m!r}")


def alpha_power(alpha: float, exponent: float) -> float:
    """alpha**(2**exponent), computed in log space to survive huge exponents."""
    return math.exp(math.log(alpha) * 2.0 ** exponent)


def a_matrix(alpha: float, m: float) -> np.ndarray:
    """Y-rotation inducing an amplitude ratio alpha**(2**m) between |1> and |0>."""
    _check_alpha(alpha)
    _check_exponent(m)
    a = alpha_power(alpha, m)
    return np.array([[1.0, -a], [a, 1.0]], dtype=complex) / math.sqrt(1.0 + a * a)


def b_matrix(alpha: float, m: float) -> np.ndarray:
    """Y-rotation encoding alpha**(2**m) in the top-left entry."""
    _check_alpha(alpha)
    _check_exponent(m)
    a = alpha_power(alpha, m)
    s = math.sqrt(max(0.0, 1.0 - a * a))
    return np.array([[a, -s], [s, a]], dtype=complex)


def z_matrix(alpha: float, m: float) -> np.ndarray:
    """Diagonal rotation with phase difference exp(i * alpha * 2**m)."""
    _check_alpha(alpha)
    _check_exponent(m)
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * alpha * 2.0 ** m)]], dtype=complex)


def rotation_kernel(kind: GateKind, exponent: float | None, alpha: float) -> np.ndarray:
    """The 2x2 matrix of a single-qubit gate kind (controls excluded)."""
    if kind is GateKind.A:
        return a_matrix(alpha, exponent)
    if kind is GateKind.B:
        return b_matrix(alpha, exponent)
    if kind is GateKind.Z:
        return z_matrix(alpha, exponent)
    if kind is GateKind.H:
        return H_MATRIX.copy()
    if kind is GateKind.X or kind is GateKind.CNOT:
        return X_MATRIX.copy()
    raise ParameterError(f"no kernel for gate kind {kind!r}")


def a_xh_distance(alpha: float, m: float) -> float:
    """Operator-norm distance between A(m) and the XH limit.

    A(m) - XH has the form [[c, -s], [s, c]], whose two singular values
    both equal sqrt(c**2 + s**2).
    """
    a = alpha_power(alpha, m)
    r = 1.0 / math.sqrt(1.0 + a * a)
    c = r - SQRT2_INV
    s = a * r - SQRT2_INV
    return math.hypot(c, s)


@dataclass(frozen=True)
class Control:
    """A control wire: ``closed`` triggers on |1>, open on |0>."""

    qubit: int
    closed: bool = True

    def __str__(self) -> str:
        return f"c{self.qubit}" + ("" if self.closed else "!")


_MAX_CONTROLS = {GateKind.A: 0, GateKind.B: 2, GateKind.Z: 3, GateKind.H: 0,
                 GateKind.X: 0, GateKind.CNOT: 1}


@dataclass(frozen=True)
class Gate:
    """One circuit element: a rotation or Clifford with optional controls."""

    kind: GateKind
    target: int
    exponent: float | None = None
    controls: tuple[Control, ...] = ()

    def __post_init__(self) -> None:
        if self.kind in ROTATION_KINDS:
            if self.exponent is None:
                raise ParameterError(f"{self.kind.value} gate requires an exponent")
            _check_exponent(self.exponent)
        elif self.exponent is not None:
            raise ParameterError(f"{self.kind.value} gate takes no exponent")
        n_ctl = len(self.controls)
        if n_ctl > _MAX_CONTROLS[self.kind]:
            raise ParameterError(
                f"{self.kind.value} gate supports at most "
                f"{_MAX_CONTROLS[self.kind]} controls, got {n_ctl}"
            )
        if self.kind is GateKind.CNOT and n_ctl != 1:
            raise ParameterError("CNOT requires exactly one control")
        seen = {self.target}
        for ctl in self.controls:
            if ctl.qubit in seen:
                raise ParameterError(
                    f"target/control indices must be disjoint: {self}")
            seen.add(ctl.qubit)

    @functools.cached_property
    def qubits(self) -> tuple[int, ...]:
        """Target first, then controls in declaration order; built on first read."""
        return (self.target,) + tuple(c.qubit for c in self.controls)

    def __str__(self) -> str:
        parts = [self.kind.value]
        if self.exponent is not None:
            parts.append(format_exponent(self.exponent))
        if self.kind is GateKind.CNOT:
            parts.append(str(self.controls[0]))
            parts.append(f"q{self.target}")
        else:
            parts.append(f"q{self.target}")
            parts.extend(str(c) for c in self.controls)
        return " ".join(parts)


def format_exponent(m: float) -> str:
    """Integer-valued exponents print bare; others use repr (round-trips)."""
    if float(m).is_integer() and abs(m) < 2 ** 53:
        return str(int(m))
    return repr(float(m))


@dataclass(frozen=True)
class GaussianSpec:
    """Target parameters of the full n-qubit Gaussian that ``estimate`` prices.

    Exactly one of ``alpha`` (discretization base) or ``beta`` (fixed-window
    form, amplitude-squared ratio between peak and edge) is given; with
    ``beta``, alpha is derived as beta**(1/(N-1)**2) so that
    alpha**((N-1)**2) round-trips to beta.
    """

    n_qubits: int
    alpha: float | None = None
    gate_error: float = 1e-10
    beta: float | None = None
    derived_alpha: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "n_qubits", operator.index(self.n_qubits))
        except TypeError:
            raise ParameterError(
                f"n_qubits must be an integer, got {self.n_qubits!r}") from None
        if self.n_qubits < 3:
            raise ParameterError(f"need at least 3 qubits, got {self.n_qubits}")
        if not (0.0 < self.gate_error < 1.0):
            raise ParameterError("gate_error must lie in (0, 1)")
        if self.alpha is not None and self.beta is not None:
            raise ParameterError("give alpha or beta, not both")
        if self.beta is not None:
            if not (0.0 < self.beta < 1.0):
                raise ParameterError("beta must lie in (0, 1)")
            n_points = (1 << self.n_qubits) - 1
            # Derive and verify in log space: alpha itself sits within
            # ~1e-12 of 1 for wide windows, where a bare float64 alpha no
            # longer carries 12 digits of (1 - alpha).
            log_alpha = math.log(self.beta) / (n_points * n_points)
            back = math.exp(log_alpha * n_points * n_points)
            if abs(back - self.beta) > 1e-12 * self.beta:
                raise ParameterError("beta does not round-trip through alpha")
            object.__setattr__(self, "derived_alpha", math.exp(log_alpha))
        elif self.alpha is not None:
            _check_alpha(self.alpha)
            object.__setattr__(self, "derived_alpha", self.alpha)
        else:
            raise ParameterError("one of alpha or beta is required")

