import math

import numpy as np
import pytest

from gausskit.builders import (
    build_exponential,
    build_full_gaussian,
    build_gaussian_2d,
    build_half_gaussian,
    build_poly_phase,
    layered_full_gaussian,
    merged_a_exponent,
)
from gausskit.gates import Gate, GateKind, ParameterError
from gausskit.circuit import MeasureBarrier
from gausskit.simulator import l2_error, simulate_exact, simulate_postselected


def brute_window(exponents: np.ndarray, log_alpha: float) -> np.ndarray:
    """Independent oracle: normalize alpha**exponents directly."""
    amps = np.exp(log_alpha * exponents)
    return amps / np.linalg.norm(amps)


def test_linear_phase_structure():
    c = build_poly_phase(5, 0.3, 1)
    assert c.count(GateKind.H) == 5
    zs = [g for g in c.gates() if g.kind is GateKind.Z]
    assert [(g.exponent, g.target) for g in zs] == [(float(j), j) for j in range(5)]


def test_linear_phase_single_qubit():
    c = build_poly_phase(1, 0.7, 1)
    sv, _ = simulate_exact(c)
    expected = np.array([1.0, np.exp(1j * 0.7)]) / math.sqrt(2)
    np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-14)


def test_linear_phase_values():
    alpha = math.pi / 4
    sv, _ = simulate_exact(build_poly_phase(3, alpha, 1))
    x = np.arange(8)
    expected = np.exp(1j * alpha * x) / math.sqrt(8)
    np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-13)


def test_quadratic_phase_gate_structure():
    # five uncontrolled Z with exponents {0,2,4,6,8}; ten singly-controlled
    c = build_poly_phase(5, 0.2, 2)
    plain = [g for g in c.gates() if g.kind is GateKind.Z and not g.controls]
    ctrl = [g for g in c.gates() if g.kind is GateKind.Z and g.controls]
    assert sorted(g.exponent for g in plain) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert len(ctrl) == 10
    assert sorted(g.exponent for g in ctrl) == sorted(
        float(j + k + 1) for j in range(5) for k in range(j + 1, 5))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_poly_phase_diagonal(d):
    n, alpha = 3, 0.1
    sv, _ = simulate_postselected(build_poly_phase(n, alpha, d))
    x = np.arange(1 << n)
    expected = np.exp(1j * alpha * x.astype(float) ** d) / math.sqrt(1 << n)
    np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-13)


def test_poly_phase_applies_to_any_state():
    # the Z part is diagonal: it multiplies a random state elementwise
    rng = np.random.default_rng(11)
    n, alpha, d = 4, 0.37, 2
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    from gausskit.circuit import Circuit

    phase_only = build_poly_phase(n, alpha, d)
    zs = tuple(g for g in phase_only.gates() if g.kind is GateKind.Z)
    circ = Circuit(data_qubits=n, ancilla_qubits=0, alpha=alpha, elements=zs)
    # run the diagonal through the engines' gate rule from the prepared state
    state = psi.copy()
    from gausskit.simulator import _apply_gate

    for g in zs:
        _apply_gate(state, g, alpha, None)
    x = np.arange(1 << n)
    np.testing.assert_allclose(
        state, psi * np.exp(1j * alpha * x.astype(float) ** d), atol=1e-13)


def test_exponential_structure_and_state():
    c = build_exponential(3, 0.5)
    assert [(g.kind, g.target, g.exponent) for g in c.gates()] == [
        (GateKind.A, 0, 0.0), (GateKind.A, 1, 1.0), (GateKind.A, 2, 2.0)]
    sv, _ = simulate_exact(c)
    oracle = brute_window(np.arange(8, dtype=float), math.log(0.5))
    assert l2_error(oracle, sv.amplitudes) < 1e-14


def test_exponential_prefactor():
    # n=2, alpha=0.5: (1 + 0.25)**-1/2 * (1 + 0.0625)**-1/2
    c = build_exponential(2, 0.5)
    sv, _ = simulate_exact(c)
    assert sv.amplitudes[0].real == pytest.approx(
        (1 + 0.25) ** -0.5 * (1 + 0.0625) ** -0.5, rel=1e-14)
    assert sv.amplitudes[0].real == pytest.approx(0.8677218312746247, rel=1e-13)


def test_exponential_alpha_near_one_uniform():
    sv, _ = simulate_exact(build_exponential(1, 1 - 1e-12))
    np.testing.assert_allclose(np.abs(sv.amplitudes),
                               np.ones(2) / math.sqrt(2), atol=1e-6)


def test_half_gaussian_structure_n2():
    c = build_half_gaussian(2, 0.8)
    single = [g for g in c.gates() if g.kind is GateKind.B and len(g.controls) == 1]
    double = [g for g in c.gates() if g.kind is GateKind.B and len(g.controls) == 2]
    assert sorted(g.exponent for g in single) == [0.0, 2.0]
    assert [g.exponent for g in double] == [2.0]


def test_half_gaussian_exponent_multiset_n5():
    c = build_half_gaussian(5, 0.8)
    bs = [g for g in c.gates() if g.kind is GateKind.B]
    assert len(bs) == 15
    single = sorted(g.exponent for g in bs if len(g.controls) == 1)
    double = sorted(g.exponent for g in bs if len(g.controls) == 2)
    assert single == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert double == [2.0, 3.0, 4.0, 4.0, 5.0, 5.0, 6.0, 6.0, 7.0, 8.0]


def test_half_gaussian_state_and_subnormalization():
    n, alpha = 3, 0.8
    sv, rep = simulate_postselected(build_half_gaussian(n, alpha))
    x = np.arange(1 << n, dtype=float)
    oracle = brute_window(x * x, math.log(alpha))
    assert l2_error(oracle, sv.amplitudes) < 1e-13
    gamma2_oracle = sum(alpha ** (2 * v * v) for v in range(8)) / 8
    assert rep.subnormalization ** 2 == pytest.approx(gamma2_oracle, rel=1e-12)


def test_full_gaussian_gate_counts_n6():
    c = build_full_gaussian(6, 0.9)
    assert c.count(GateKind.A) == 5
    assert c.count(GateKind.H) == 1
    assert c.count(GateKind.B, n_controls=2) == 10
    assert c.count(GateKind.CNOT) == 5
    assert c.ancilla_qubits == 10
    cnots = [g for g in c.gates() if g.kind is GateKind.CNOT]
    assert all(not g.controls[0].closed and g.controls[0].qubit == 5
               for g in cnots)


def test_merged_exponent_value():
    assert merged_a_exponent(1) == pytest.approx(math.log2(6), rel=1e-15)


def test_full_gaussian_state_n3():
    sv, _ = simulate_postselected(build_full_gaussian(3, 0.5))
    x = np.arange(8, dtype=float)
    oracle = brute_window((x - 3.5) ** 2, math.log(0.5))
    assert l2_error(oracle, sv.amplitudes) < 1e-13


@pytest.mark.parametrize("n,alpha", [(3, 0.5), (4, 0.7), (6, 0.9), (7, 0.99)])
def test_full_gaussian_window_correctness(n, alpha):
    sv, _ = simulate_postselected(build_full_gaussian(n, alpha))
    x = np.arange(1 << n, dtype=float)
    oracle = brute_window((x - ((1 << n) - 1) / 2) ** 2, math.log(alpha))
    assert l2_error(oracle, sv.amplitudes) < 1e-12


def test_layered_gaussian_shapes():
    lay = layered_full_gaussian(7, 0.9)
    assert len(lay.layers) == 5
    assert all(len(layer.gates) == 3 for layer in lay.layers)
    assert lay.ancilla_qubits == 3
    lay4 = layered_full_gaussian(4, 0.8)
    assert len(lay4.layers) == 3
    assert all(len(layer.gates) == 1 for layer in lay4.layers)
    assert lay4.ancilla_qubits == 1


def test_layered_matches_flat():
    for n, alpha in [(4, 0.6), (6, 0.9), (8, 0.97)]:
        sv_lay, _ = simulate_postselected(
            layered_full_gaussian(n, alpha).to_circuit())
        sv_flat, _ = simulate_postselected(build_full_gaussian(n, alpha))
        assert l2_error(sv_lay.amplitudes, sv_flat.amplitudes) < 1e-12


def test_gaussian_2d_no_cross_gates_for_diagonal_form():
    c = build_gaussian_2d(3, 3, (1, 0, 1), 0.9)
    x0 = 3
    for g in c.gates():
        if g.kind is GateKind.B:
            regs = {q >= x0 for q in (c.qubit for c in g.controls)}
            assert len(regs) == 1  # never spans both registers


def test_gaussian_2d_cross_exponents():
    c = build_gaussian_2d(3, 3, (1, 1, 1), 0.9)
    x0 = 3
    cross = [g for g in c.gates()
             if g.kind is GateKind.B
             and len({q >= x0 for q in (ctl.qubit for ctl in g.controls)}) == 2]
    assert len(cross) == 9
    got = sorted(g.exponent for g in cross)
    want = sorted(float(j + k) for j in range(3) for k in range(3))
    assert got == want


def test_gaussian_2d_window_correctness():
    n_x = n_y = 2
    alpha = 0.9
    sv, _ = simulate_postselected(build_gaussian_2d(n_x, n_y, (1, 1, 1), alpha))
    x = np.arange(1 << n_x, dtype=float)[:, None]
    y = np.arange(1 << n_y, dtype=float)[None, :]
    oracle = brute_window((x * x + x * y + y * y).reshape(-1), math.log(alpha))
    assert l2_error(oracle, sv.amplitudes) < 1e-13


def test_gaussian_2d_rejects_bad_forms():
    with pytest.raises(ParameterError):
        build_gaussian_2d(2, 2, np.array([[1, 1], [0, 1]]), 0.9)
    with pytest.raises(ParameterError):
        build_gaussian_2d(2, 2, (0, 1, 1), 0.9)
    with pytest.raises(ParameterError):
        build_gaussian_2d(2, 2, (1, -1, 1), 0.9)
    # a coefficient that is not an integer is refused, not truncated
    for q in [(1.5, 0, 1), (1, 0.4, 1), (1, 0, np.inf),
              np.array([[1.7, 0.2], [0.2, 1]]),
              np.array([[1, 0.2], [0.2, 1]])]:
        with pytest.raises(ParameterError, match="must be integers"):
            build_gaussian_2d(2, 2, q, 0.9)


def test_gaussian_2d_matrix_form():
    # [[1, 1], [1, 1]] means x**2 + 2xy + y**2
    c_mat = build_gaussian_2d(2, 2, np.array([[1, 1], [1, 1]]), 0.9)
    c_tup = build_gaussian_2d(2, 2, (1, 2, 1), 0.9)
    assert c_mat == c_tup
    # the cross coefficient is 2b, an integer for a half-integer b
    assert build_gaussian_2d(2, 2, np.array([[1, 0.5], [0.5, 1]]), 0.9) == (
        build_gaussian_2d(2, 2, (1, 1, 1), 0.9))


def test_every_window_gate_is_measured_immediately():
    for circ in (build_half_gaussian(3, 0.8), build_full_gaussian(4, 0.9),
                 build_gaussian_2d(2, 2, (1, 1, 1), 0.9)):
        elements = circ.elements
        for i, e in enumerate(elements):
            if isinstance(e, Gate) and e.kind is GateKind.B:
                nxt = elements[i + 1]
                assert isinstance(nxt, MeasureBarrier)
                assert nxt.ancilla == (e.target,)
