import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskit.gates import (
    Control,
    Gate,
    GateKind,
    GaussianSpec,
    ParameterError,
    XH_MATRIX,
    a_matrix,
    a_xh_distance,
    b_matrix,
    gate_matrix,
    z_matrix,
)


def test_a_matrix_entries():
    alpha, m = 0.5, 1.0
    a = alpha ** 2  # alpha**(2**m)
    norm = 1 / math.sqrt(1 + a * a)
    expected = norm * np.array([[1, -a], [a, 1]])
    np.testing.assert_allclose(a_matrix(alpha, m), expected, atol=1e-15)


def test_b_matrix_derived_values():
    # alpha=0.5, m=1: top-left 0.25, off-diagonals -+sqrt(1 - 0.0625)
    mat = b_matrix(0.5, 1.0)
    off = math.sqrt(1 - 0.5 ** 4)
    assert mat[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert mat[1, 1] == pytest.approx(0.25, abs=1e-15)
    assert mat[0, 1] == pytest.approx(-off, abs=1e-15)
    assert mat[1, 0] == pytest.approx(off, abs=1e-15)
    assert off == pytest.approx(0.9682458365518542, abs=1e-15)


def test_b_identity_when_power_approaches_one():
    # alpha**(2**m) -> 1 forces the rotation angle 2*arccos(1) -> 0
    mat = b_matrix(1 - 1e-15, 0.0)
    np.testing.assert_allclose(mat, np.eye(2), atol=1e-7)
    assert b_matrix(1 - 1e-15, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_large_m_limits():
    # A(m) -> identity and B(m) -> X as m grows
    np.testing.assert_allclose(a_matrix(0.5, 40.0), np.eye(2), atol=1e-12)
    x = np.array([[0, -1], [1, 0]])  # B limit keeps the -/+ sign layout
    np.testing.assert_allclose(b_matrix(0.5, 40.0), x, atol=1e-12)


def test_small_m_close_to_one_limits():
    # alpha near 1 with small m: A close to XH, B close to identity
    assert a_xh_distance(1 - 1e-10, 1.0) < 1e-9
    np.testing.assert_allclose(b_matrix(1 - 1e-10, 1.0), np.eye(2), atol=1e-4)


def test_z_matrix_phase():
    mat = z_matrix(0.3, 2.0)
    assert mat[0, 0] == 1.0
    assert mat[1, 1] == pytest.approx(np.exp(1j * 0.3 * 4), abs=1e-15)
    assert mat[0, 1] == mat[1, 0] == 0.0


def test_controlled_b_matrix_layout():
    alpha, m = 0.7, 2.0
    a = alpha ** 4
    s = math.sqrt(1 - alpha ** 8)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, a, 0, -s],
            [0, 0, 1, 0],
            [0, s, 0, a],
        ]
    )
    # basis |target control>: B acts on the control's |1> block
    gate = Gate(GateKind.B, 1, exponent=m, controls=(Control(0),))
    np.testing.assert_allclose(gate_matrix(gate, alpha), expected, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=1e-6, max_value=1 - 1e-9),
    m=st.floats(min_value=-3, max_value=30),
    kind=st.sampled_from([GateKind.A, GateKind.B, GateKind.Z]),
)
def test_rotation_matrices_unitary(alpha, m, kind):
    gate = Gate(kind, 0, exponent=m)
    mat = gate_matrix(gate, alpha)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("n_controls", [1, 2])
def test_controlled_gate_matrices_unitary(n_controls):
    controls = tuple(Control(i + 1) for i in range(n_controls))
    gate = Gate(GateKind.B, 0, exponent=3.0, controls=controls)
    mat = gate_matrix(gate, 0.8)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(2 ** (1 + n_controls)),
                               atol=1e-12)


def test_merged_a_ratio_identity():
    # A(log2(2**m + 2**n)) applied to |0> gives ratio alpha**(2**m + 2**n)
    alpha, m, n = 0.85, 1, 3
    exponent = math.log2(2 ** m + 2 ** n)
    col = a_matrix(alpha, exponent)[:, 0]
    assert col[1] / col[0] == pytest.approx(alpha ** (2 ** m + 2 ** n), rel=1e-13)


def test_open_control_cnot_matrix():
    gate = Gate(GateKind.CNOT, 1, controls=(Control(0, closed=False),))
    mat = gate_matrix(gate, 0.5)
    # basis |t c>: open control flips target when c == 0
    expected = np.zeros((4, 4))
    expected[2, 0] = expected[0, 2] = 1  # |00> <-> |10>
    expected[1, 1] = expected[3, 3] = 1
    np.testing.assert_allclose(mat, expected, atol=1e-15)


def test_xh_limit_matrix():
    np.testing.assert_allclose(
        XH_MATRIX, np.array([[1, -1], [1, 1]]) / math.sqrt(2), atol=1e-15)


def test_gate_parameter_errors():
    with pytest.raises(ParameterError):
        Gate(GateKind.A, 0, exponent=math.inf)
    with pytest.raises(ParameterError):
        Gate(GateKind.A, 0)  # missing exponent
    with pytest.raises(ParameterError):
        Gate(GateKind.A, 0, exponent=1.0, controls=(Control(1),))
    with pytest.raises(ParameterError):
        Gate(GateKind.B, 0, exponent=1.0,
             controls=(Control(1), Control(2), Control(3)))
    with pytest.raises(ParameterError):
        Gate(GateKind.B, 1, exponent=1.0, controls=(Control(1),))  # overlap
    with pytest.raises(ParameterError):
        gate_matrix(Gate(GateKind.A, 0, exponent=2.0), alpha=1.5)


def test_gaussian_spec_beta_roundtrip():
    spec = GaussianSpec(n_qubits=6, beta=1e-8)
    n_points = 2 ** 6 - 1
    assert spec.derived_alpha ** (n_points ** 2) == pytest.approx(1e-8, rel=1e-12)


def test_gaussian_spec_validation():
    with pytest.raises(ParameterError):
        GaussianSpec(n_qubits=1, alpha=0.5)
    with pytest.raises(ParameterError):
        GaussianSpec(n_qubits=4, alpha=1.2)
    with pytest.raises(ParameterError):
        GaussianSpec(n_qubits=4)  # neither alpha nor beta
    with pytest.raises(ParameterError):
        GaussianSpec(n_qubits=4, alpha=0.5, gate_error=0.0)
    with pytest.raises(ParameterError):
        GaussianSpec(n_qubits=4, alpha=0.5, beta=0.1)  # both alpha and beta

