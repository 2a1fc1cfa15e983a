import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gausskit.builders import (
    build_exponential,
    build_full_gaussian,
    build_half_gaussian,
    build_poly_phase,
    layered_full_gaussian,
)
from gausskit.circuit import Circuit, Layer, MeasureBarrier
from gausskit.gates import (ROTATION_KINDS, Control, Gate, GateKind,
                            GaussianSpec, ParameterError, rotation_kernel)
from gausskit.optimizer import (ErrorBudget, pack_layers, prune_distance,
                                prune_layered)
from gausskit.simulator import (
    CapacityError,
    CoreTable,
    GaussianLayerModel,
    _LOW_BITS,
    _apply_gate,
    _identities,
    ideal_core_half_shifted,
    ideal_gaussian,
    l2_error,
    realize_noise,
    sample_perturbation,
    simulate_exact,
    simulate_postselected,
    simulate_rus_process,
)


def test_single_hadamard():
    circ = Circuit(data_qubits=1, ancilla_qubits=0, alpha=0.5,
                   elements=(Gate(GateKind.H, 0),))
    sv, rep = simulate_exact(circ)
    np.testing.assert_allclose(sv.amplitudes, np.ones(2) / math.sqrt(2),
                               atol=1e-15)
    assert rep.subnormalization == 1.0
    assert rep.layer_probs == ()


def test_fig6_merge_identity_single_case():
    # A(m) + controlled B(n) + measure == single A(log2(2**m + 2**n))
    alpha, m, n = 0.8, 0, 2
    two_qubit = Circuit(
        data_qubits=1, ancilla_qubits=1, alpha=alpha,
        elements=(
            Gate(GateKind.A, 0, exponent=float(m)),
            Gate(GateKind.B, 1, exponent=float(n), controls=(Control(0),)),
            MeasureBarrier((1,)),
        ),
    )
    merged = Circuit(
        data_qubits=1, ancilla_qubits=0, alpha=alpha,
        elements=(Gate(GateKind.A, 0, exponent=math.log2(2 ** m + 2 ** n)),))
    sv_a, _ = simulate_exact(two_qubit)
    sv_b, _ = simulate_exact(merged)
    assert l2_error(sv_a.amplitudes, sv_b.amplitudes) < 1e-12


def test_fig6_merge_identity_random_triples():
    rng = np.random.default_rng(123)
    for _ in range(20):
        m = float(rng.integers(0, 6))
        n = float(rng.integers(0, 6))
        alpha = float(rng.uniform(0.3, 0.99))
        two_qubit = Circuit(
            data_qubits=1, ancilla_qubits=1, alpha=alpha,
            elements=(
                Gate(GateKind.A, 0, exponent=m),
                Gate(GateKind.B, 1, exponent=n, controls=(Control(0),)),
                MeasureBarrier((1,)),
            ),
        )
        merged = Circuit(
            data_qubits=1, ancilla_qubits=0, alpha=alpha,
            elements=(Gate(GateKind.A, 0,
                           exponent=math.log2(2.0 ** m + 2.0 ** n)),))
        sv_a, _ = simulate_exact(two_qubit)
        sv_b, _ = simulate_exact(merged)
        assert l2_error(sv_a.amplitudes, sv_b.amplitudes) < 1e-12


@pytest.mark.parametrize("make", [
    lambda: build_half_gaussian(4, 0.8),
    lambda: build_full_gaussian(5, 0.9),
    lambda: build_exponential(4, 0.5),
    lambda: build_poly_phase(4, 0.3, 2),
    lambda: layered_full_gaussian(8, 0.95).to_circuit(),
])
def test_backends_agree(make):
    circ = make()
    sv_e, rep_e = simulate_exact(circ)
    sv_p, rep_p = simulate_postselected(circ)
    assert np.abs(sv_e.amplitudes - sv_p.amplitudes).max() < 1e-12
    assert len(rep_e.layer_probs) == len(rep_p.layer_probs)
    for a, b in zip(rep_e.layer_probs, rep_p.layer_probs):
        assert a == pytest.approx(b, abs=1e-12)


def test_postselected_norm_and_gamma_consistency():
    circ = build_full_gaussian(6, 0.9)
    sv, rep = simulate_postselected(circ)
    assert sv.norm() == pytest.approx(1.0, abs=1e-12)
    assert rep.subnormalization ** 2 == pytest.approx(
        np.prod(rep.layer_probs), abs=1e-10)


def test_z_only_circuit_has_unit_probs():
    circ = build_poly_phase(4, 0.5, 2)
    _, rep = simulate_postselected(circ)
    assert all(p == 1.0 for p in rep.layer_probs) or rep.layer_probs == ()
    assert rep.subnormalization == 1.0


def test_exact_capacity_error():
    circ = Circuit(data_qubits=27, ancilla_qubits=0, alpha=0.5)
    with pytest.raises(CapacityError):
        simulate_exact(circ)


def test_exact_materializes_ancilla_lazily():
    # 12-qubit half-Gaussian holds 78 ancilla in the register but only one
    # is ever live, so the exact backend stays within budget
    circ = build_half_gaussian(12, 0.99)
    assert circ.ancilla_qubits == 78
    sv, rep = simulate_exact(circ)
    assert sv.norm() == pytest.approx(1.0, abs=1e-12)


def test_memory_limit_env(monkeypatch):
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", "1")
    with pytest.raises(CapacityError):
        simulate_postselected(build_full_gaussian(20, 0.999999))


# every capacity prediction adds numpy's two 128 KB ufunc buffers and 4 KB
# of small arrays to its states
FIXED_BYTES = 2 * 8192 * 16 + 4096


@pytest.mark.parametrize("run, circ", [
    (simulate_postselected, build_full_gaussian(9, 0.95)),
    (simulate_exact, build_half_gaussian(8, 0.95)),  # one live ancilla
], ids=["postselected", "exact"])
def test_flat_engine_capacity_boundary(monkeypatch, run, circ):
    # predicted need: 2 complex states of the largest register, 9 bits
    need_mb = ((1 << 9) * 16 * 2 + FIXED_BYTES) / 1e6
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 1.01))
    run(circ)
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 0.99))
    with pytest.raises(CapacityError):
        run(circ)


@pytest.mark.parametrize("run, circ", [
    (simulate_postselected, build_full_gaussian(16, 0.999)),
    (simulate_exact, build_half_gaussian(15, 0.999)),  # 16 bits live
    # at 14 bits a state is the size of the ufunc buffers: 3.0 states
    (simulate_postselected, build_full_gaussian(14, 0.999)),
    (simulate_exact, build_half_gaussian(13, 0.999)),
], ids=["postselected", "exact", "postselected-14", "exact-14"])
def test_flat_engine_traced_peak_within_prediction(monkeypatch, run, circ):
    tracemalloc.start()
    try:
        run(circ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the prediction covers the traced peak: a cap just below it refuses
    # the run
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(peak * 0.999 / 1e6))
    with pytest.raises(CapacityError):
        run(circ)


def test_layered_22q_exceeds_exact_backend(monkeypatch):
    # ten ancilla live per layer push the joint register past the budget;
    # the post-selected backend handles the same circuit (criterion 8 runs
    # it end to end)
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", "200")
    lay = layered_full_gaussian(22, 1 - 1e-12)
    with pytest.raises(CapacityError):
        simulate_exact(lay.to_circuit())


def test_exact_capacity_checked_before_any_state(monkeypatch):
    # the peak register, 16 data qubits plus the 7 ancilla of a layer, is
    # over the cap: the run fails before it allocates the 1 MB data state
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", "10")
    circ = layered_full_gaussian(16, 0.999).to_circuit()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            simulate_exact(circ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 16) * 16


def test_l2_error_trivial_cases():
    a = np.array([1.0, 0.0])
    assert l2_error(a, a) == 0.0
    b = np.array([0.0, 1.0])
    assert l2_error(a, b) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_l2_error_phase_alignment():
    rng = np.random.default_rng(4)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    assert l2_error(v, v * np.exp(1j * 1.234)) < 1e-14


def test_l2_error_derived_arithmetic():
    # direct arithmetic: sqrt((1 - sqrt(1 - 1e-4))**2 + 1e-4)
    a = np.array([1.0, 0.0])
    b = np.array([math.sqrt(1 - 1e-4), 1e-2])
    expected = math.sqrt((1 - math.sqrt(1 - 1e-4)) ** 2 + 1e-4)
    assert expected == pytest.approx(1.0000125005469072e-2, rel=1e-12)
    assert l2_error(a, b) == pytest.approx(expected, rel=1e-12)


def test_l2_error_dimension_mismatch():
    with pytest.raises(ParameterError):
        l2_error(np.ones(2), np.ones(4))


def test_perturbation_norm_pinned():
    rng = np.random.default_rng(9)
    for delta in (1e-2, 1e-4, 1e-6):
        p = sample_perturbation(delta, rng)
        np.testing.assert_allclose(p @ p.conj().T, np.eye(2), atol=1e-14)
        dist = np.linalg.norm(p - np.eye(2), ord=2)
        assert dist == pytest.approx(delta, rel=1e-10)


# the controls each gate kind admits
CONTROL_COUNTS = {GateKind.A: (0,), GateKind.B: (0, 1, 2),
                  GateKind.Z: (0, 1, 2, 3), GateKind.H: (0,), GateKind.X: (0,),
                  GateKind.CNOT: (1,)}


def _dense_gate(gate, alpha, p, bits, n_bits):
    """The 2**n_bits operator of ``gate`` with qubit q on bit bits[q], built
    from Kronecker products: K on the target times the control projectors,
    the identity off that block, then P on the target."""
    proj = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    kernel = rotation_kernel(gate.kind, gate.exponent, alpha)
    target = bits[gate.target]
    values = {bits[c.qubit]: int(c.closed) for c in gate.controls}

    def kron(on_target, on_control):
        out = np.ones((1, 1))
        for bit in reversed(range(n_bits)):  # most significant first
            out = np.kron(out, on_target if bit == target else
                          on_control[values[bit]] if bit in values else
                          np.eye(2))
        return out

    block = kron(np.eye(2), proj)
    controlled = kron(kernel, proj) + np.eye(1 << n_bits) - block
    return kron(p, (np.eye(2), np.eye(2))) @ controlled


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_apply_gate_matches_dense_kronecker_operator(data):
    # the one gate rule both flat engines share, against an operator built
    # independently of its strided views
    kind = data.draw(st.sampled_from(list(GateKind)))
    n_controls = data.draw(st.sampled_from(CONTROL_COUNTS[kind]))
    n_bits = data.draw(st.integers(n_controls + 1, 6))
    bits = data.draw(st.permutations(range(n_bits)))
    closed = data.draw(st.lists(st.booleans(), min_size=n_controls,
                                max_size=n_controls))
    noisy = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    gate = Gate(kind, 0,
                float(rng.uniform(-2, 6)) if kind in ROTATION_KINDS else None,
                tuple(Control(i + 1, c) for i, c in enumerate(closed)))
    alpha = float(rng.uniform(0.1, 0.99))
    p = sample_perturbation(0.3, rng) if noisy else np.eye(2)
    vec = rng.normal(size=1 << n_bits) + 1j * rng.normal(size=1 << n_bits)
    expected = _dense_gate(gate, alpha, p, bits, n_bits) @ vec
    _apply_gate(vec, gate, alpha, {gate: p} if noisy else None,
                bits.__getitem__)
    np.testing.assert_allclose(vec, expected, rtol=0, atol=1e-13)


def test_realize_noise_is_one_draw_of_single_perturbations():
    # one (G, 3) normal array gives, bit for bit, the G perturbations that
    # G single draws give, in gate order
    gates = layered_full_gaussian(9, 0.99).to_circuit().gates()
    budget = ErrorBudget.two_to_one(1e-3)
    noise = realize_noise(gates, budget, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    singles = {g: sample_perturbation(budget.delta_for(g), rng)
               for g in gates if budget.delta_for(g) > 0.0}
    assert list(noise) == list(singles) and len(noise) == 9 - 1 + 28
    for gate, p in singles.items():
        assert np.array_equal(noise[gate], p)


def _noisy_error(lay, budget, seed):
    """(error against the closed form, report) of one noisy flat run."""
    noise = realize_noise(lay.to_circuit().gates(), budget,
                          np.random.default_rng(seed))
    state, rep = simulate_postselected(lay.to_circuit(), noise=noise)
    eps = l2_error(ideal_gaussian(lay.data_qubits, lay.alpha), state.amplitudes)
    return eps, rep


def test_noise_determinism_bit_identical():
    lay = layered_full_gaussian(8, 0.98)
    budget = ErrorBudget.two_to_one(1e-5)
    r1 = _noisy_error(lay, budget, seed=33)
    r2 = _noisy_error(lay, budget, seed=33)
    assert r1 == r2
    r3 = _noisy_error(lay, budget, seed=34)
    assert r3[0] != r1[0]


def test_noisy_backends_agree():
    lay = layered_full_gaussian(6, 0.9)
    flat = lay.to_circuit()
    budget = ErrorBudget.two_to_one(1e-3)
    noise = realize_noise(flat.gates(), budget, np.random.default_rng(17))
    sv_e, rep_e = simulate_exact(flat, noise=noise)
    sv_p, rep_p = simulate_postselected(flat, noise=noise)
    assert np.abs(sv_e.amplitudes - sv_p.amplitudes).max() < 1e-12
    for a, b in zip(rep_e.layer_probs, rep_p.layer_probs):
        assert a == pytest.approx(b, abs=1e-12)


def test_run_noisy_zero_budget_reproduces_ideal():
    lay = layered_full_gaussian(9, 0.99)
    budget = ErrorBudget.two_to_one(0.0)
    assert realize_noise(lay.to_circuit().gates(), budget,
                         np.random.default_rng(0)) == {}
    eps, _ = _noisy_error(lay, budget, seed=0)
    assert eps <= 1e-10


def test_run_noisy_error_scales_with_delta():
    lay = layered_full_gaussian(8, 0.99)
    e4, _ = _noisy_error(lay, ErrorBudget.two_to_one(1e-4), seed=5)
    e6, _ = _noisy_error(lay, ErrorBudget.two_to_one(1e-6), seed=5)
    assert e4 > 10 * e6  # roughly linear in delta


def test_ideal_gaussian_num_and_symmetry():
    amps = ideal_gaussian(3, 0.5)
    x = np.arange(8, dtype=float)
    brute = 0.5 ** ((x - 3.5) ** 2)
    brute /= np.linalg.norm(brute)
    np.testing.assert_allclose(amps, brute, atol=1e-15)
    np.testing.assert_allclose(amps, amps[::-1], atol=1e-15)


def test_ideal_one_qubit_symmetric():
    amps = ideal_gaussian(1, 0.37)
    np.testing.assert_allclose(amps, np.ones(2) / math.sqrt(2), atol=1e-15)


def test_ideal_infinite_tail_larger_error():
    # infinite-tail reference charges the truncated mass as well
    finite = ideal_gaussian(4, 0.9, tail="finite")
    infinite = ideal_gaussian(4, 0.9, tail="infinite")
    assert np.linalg.norm(infinite) < 1.0
    np.testing.assert_allclose(infinite / np.linalg.norm(infinite), finite,
                               atol=1e-13)


def test_ideal_state_beta_mode():
    spec = GaussianSpec(n_qubits=5, beta=1e-6)
    amps = ideal_gaussian(5, spec.derived_alpha)
    # beta-window form: beta**((x/(N-1) - 1/2)**2)
    x = np.arange(32, dtype=float)
    brute = 1e-6 ** ((x / 31 - 0.5) ** 2)
    brute /= np.linalg.norm(brute)
    np.testing.assert_allclose(amps, brute, atol=1e-12)


def _probe(full, budget=ErrorBudget.uniform(0.0), noise_seed=0, noisy=True):
    """``estimate``'s probe of the unpruned ``full`` at ``budget``: its
    table, the rows pruning keeps and the kept rotations' noise drawn from
    ``noise_seed`` (the identity when not ``noisy``); the default is the
    zero budget, which prunes nothing and draws no noise."""
    table = CoreTable(full)
    kept = table.kept(budget)
    noise = (table.draw_noise(budget, kept, np.random.default_rng(noise_seed))
             if noisy else _identities(len(table.gates)))
    return GaussianLayerModel(table, kept, noise)


def _flat_reference(full, budget, noise_seed, order, noisy=True):
    """(circuit, noise) of the same run per gate: ``full`` pruned at
    ``budget`` and flattened with its layers in ``order`` and no postlude,
    and ``realize_noise`` from ``noise_seed`` (None when not ``noisy``)."""
    lay, _ = prune_layered(full, budget)
    noise = (realize_noise(lay.to_circuit().gates(), budget,
                           np.random.default_rng(noise_seed))
             if noisy else None)
    ordered = dataclasses.replace(
        lay, layers=tuple(lay.layers[i] for i in order),
        postlude=dataclasses.replace(lay.postlude, elements=()))
    return ordered.to_circuit(), noise


def test_core_pipeline_matches_full_simulation():
    lay = layered_full_gaussian(7, 0.9)
    model = _probe(lay)
    core_state = model.state()
    probs = model.probs(range(len(lay.layers)))
    _, rep = simulate_postselected(lay.to_circuit())
    assert list(probs) == pytest.approx(list(rep.layer_probs), abs=1e-13)
    ideal_core = np.exp(math.log(0.9) * (np.arange(64) + 0.5) ** 2)
    ideal_core /= np.linalg.norm(ideal_core)
    assert l2_error(ideal_core, core_state) < 1e-12


def _assert_same_run(state, probs, sv_exact, rep_exact):
    assert np.abs(state - sv_exact.amplitudes).max() < 1e-12
    assert len(probs) == len(rep_exact.layer_probs)
    assert np.abs(np.subtract(probs, rep_exact.layer_probs)).max(
        initial=0.0) < 1e-12


@seed(20261017)
@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(4, 8), draw=st.integers(0, 2 ** 32 - 1),
       noisy=st.booleans())
def test_core_pipeline_matches_exact_backend(n, draw, noisy):
    # relabelled rounds, pruning (the flat prelude then holds H/X pairs)
    # and a random layer order; the exact backend runs the same pruned,
    # flattened layers
    rng = np.random.default_rng(draw)
    eps = 10.0 ** -rng.uniform(1.5, 4.0)
    budget = ErrorBudget.two_to_one(min(0.2, eps * 10.0 ** rng.uniform(-0.5, 1.5)))
    full = layered_full_gaussian(n, 1.0 - eps, rounds=pack_layers(n - 1, rng))
    noise_seed = int(rng.integers(2 ** 31))
    model = _probe(full, budget, noise_seed, noisy)
    order = tuple(int(i) for i in rng.permutation(model.n_layers))
    state, probs = model.state(), model.probs(order)
    sv, rep = simulate_exact(*_flat_reference(full, budget, noise_seed, order,
                                              noisy))
    # the top qubit (most significant) holds only the prelude's Hadamard
    _assert_same_run(np.kron(np.ones(2) / math.sqrt(2), state), probs, sv, rep)


@seed(20261017)
@settings(max_examples=60, deadline=None, database=None)
@given(full=st.booleans(), n=st.integers(3, 6),
       draw=st.integers(0, 2 ** 32 - 1), noisy=st.booleans())
def test_postselected_windows_match_exact_backend(full, n, draw, noisy):
    # random open/closed controls make the two control axes of a window
    # distinguishable; the full Gaussian adds its open-control postlude
    rng = np.random.default_rng(draw)
    circ = (build_full_gaussian if full else build_half_gaussian)(n, 0.9)
    elements = tuple(
        dataclasses.replace(e, controls=tuple(
            Control(c.qubit, closed=bool(rng.integers(2)))
            for c in e.controls))
        if isinstance(e, Gate) and e.kind is GateKind.B else e
        for e in circ.elements)
    circ = dataclasses.replace(circ, elements=elements)
    noise = (realize_noise(circ.gates(), ErrorBudget.two_to_one(1e-2), rng)
             if noisy else None)
    sv, rep = simulate_postselected(circ, noise=noise)
    _assert_same_run(sv.amplitudes, rep.layer_probs,
                     *simulate_exact(circ, noise=noise))


@pytest.mark.parametrize("gate", [
    Gate(GateKind.CNOT, 1, controls=(Control(0),)),
    Gate(GateKind.H, 7),  # an ancilla
    Gate(GateKind.X, 2),  # a second gate on a core qubit
])
def test_core_pipeline_rejects_gate_outside_product_prelude(gate):
    # the table reads only the unpruned product prelude: the top-qubit H
    # and one uncontrolled gate per core qubit, in qubit order
    lay = layered_full_gaussian(6, 0.9)
    prelude = dataclasses.replace(
        lay.prelude, elements=lay.prelude.elements + (gate,))
    lay = dataclasses.replace(lay, prelude=prelude)
    with pytest.raises(ParameterError):
        CoreTable(lay)


def _unchecked_layer(gate):
    # Layer admits only two-control B gates; skip its check so that the
    # model's own window check is the one under test
    layer = object.__new__(Layer)
    object.__setattr__(layer, "gates", (gate,))
    return layer


@pytest.mark.parametrize("gate", [
    Gate(GateKind.B, 6, exponent=2.0, controls=(Control(0),)),
    Gate(GateKind.Z, 6, exponent=2.0,
         controls=(Control(0), Control(1), Control(2))),
    Gate(GateKind.B, 6, exponent=2.0,
         controls=(Control(0), Control(1, closed=False))),
    Gate(GateKind.B, 6, exponent=2.0, controls=(Control(0), Control(4))),
])
def test_layer_model_rejects_window_outside_pair_contract(gate):
    # a window must be two closed controls on core qubits, the only shape
    # the pairwise factor R[j, k]**(x_j*x_k) describes
    lay = layered_full_gaussian(5, 0.9)
    lay = lay.with_layers(lay.layers + (_unchecked_layer(gate),))
    with pytest.raises(ParameterError):
        CoreTable(lay)


def test_layer_model_multiplies_repeated_pairs():
    # two windows on one pair act as one window with the product ratio
    lay = layered_full_gaussian(5, 0.9)
    twice = lay.with_layers(lay.layers + lay.layers[:1])
    model = _probe(twice)
    sv, rep = simulate_postselected(dataclasses.replace(
        twice, postlude=dataclasses.replace(twice.postlude, elements=())
    ).to_circuit())
    _assert_same_run(np.kron(np.ones(2) / math.sqrt(2), model.state()),
                     model.probs(range(len(twice.layers))), sv, rep)


def _probe_budget(full, case, ratio, rng):
    """A base delta whose budget prunes ``full`` as ``case`` says: nothing,
    some windows, every window of the layer with the smallest largest
    deviation, or every A gate."""
    alpha = full.alpha
    windows = [[prune_distance(g, alpha) for g in layer.gates]
               for layer in full.layers]
    flat = sorted(d for layer in windows for d in layer)
    a_gates = [prune_distance(g, alpha) for g in full.prelude.gates()
               if g.kind is GateKind.A]
    if case == "none":
        return 0.5 * min(flat[0] / ratio, min(a_gates))
    if case == "some":
        levels = sorted(set(flat))
        return levels[int(rng.integers(1, len(levels)))] / ratio
    if case == "layer":
        return min(max(layer) for layer in windows) * (1 + 1e-9) / ratio
    return max(a_gates) * 1.01


@seed(20261019)
@settings(max_examples=80, deadline=None, database=None)
@given(n=st.integers(4, 14), alloc=st.sampled_from(["2to1", "uniform"]),
       case=st.sampled_from(["none", "some", "layer", "all_a"]),
       draw=st.integers(0, 2 ** 32 - 1))
def test_array_probe_matches_per_gate_reference(n, alloc, case, draw):
    # the estimate's probe (table prune, one noise array, array fill)
    # against pruning, noise dict and flat post-selected run per gate, in
    # the same random layer order
    rng = np.random.default_rng(draw)
    # the top A and window exponents are about 4**(n - 2): 1 - alpha below
    # 4**-(n - 2) keeps every budget here under the 0.5 a perturbation
    # allows, and 1e-2 of that puts every A within reach of XH
    low = 2.0 if case == "all_a" else 0.5
    eps = 4.0 ** -(n - 2) * 10.0 ** -rng.uniform(low, 4.0)
    full = layered_full_gaussian(n, 1.0 - eps,
                                 rounds=pack_layers(n - 1, rng))
    ratio = 2.0 if alloc == "2to1" else 1.0
    delta = _probe_budget(full, case, ratio, rng)
    budget = (ErrorBudget.two_to_one if alloc == "2to1"
              else ErrorBudget.uniform)(delta)
    noise_seed = int(rng.integers(2 ** 31))

    table = CoreTable(full)
    kept = table.kept(budget)
    model = GaussianLayerModel(
        table, kept,
        table.draw_noise(budget, kept, np.random.default_rng(noise_seed)))

    lay, info = prune_layered(full, budget)
    assert int((~kept).sum()) == info.total
    assert model.n_layers == len(lay.layers)
    assert {"none": info.total == 0,
            "some": 0 < info.removed_b_gates,
            "layer": len(lay.layers) < len(full.layers),
            "all_a": info.replaced_a_gates == n - 1}[case]
    noise = realize_noise(lay.to_circuit().gates(), budget,
                          np.random.default_rng(noise_seed))
    order = tuple(int(i) for i in rng.permutation(len(lay.layers)))
    ordered = dataclasses.replace(
        lay, layers=tuple(lay.layers[i] for i in order),
        postlude=dataclasses.replace(lay.postlude, elements=()))
    sv, rep = simulate_postselected(ordered.to_circuit(), noise=noise)
    state, probs = model.state(), model.probs(order)
    np.testing.assert_allclose(np.kron(np.ones(2) / math.sqrt(2), state),
                               sv.amplitudes, rtol=0, atol=1e-13)
    np.testing.assert_allclose(probs, rep.layer_probs, rtol=0, atol=1e-13)


def test_core_pipeline_capacity_boundary(monkeypatch):
    # predicted need of state(): one complex 2**core state, the
    # tracemalloc peak measured at core 15 and at core 18
    model = _probe(layered_full_gaussian(9, 0.95))
    need_mb = ((1 << 8) * 16 * 1.0 + FIXED_BYTES) / 1e6
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 1.01))
    model.state()
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 0.99))
    with pytest.raises(CapacityError):
        model.state()


def test_layer_model_capacity_boundary(monkeypatch):
    # predicted need of probs(): the low weights (2**(core - 1) floats),
    # the column factors stored on up to 12 low bits (2**min(k, 12) floats
    # for bit k), ``out`` (one float per layer) and numpy's fixed buffers;
    # the call it admits stays under it
    for n in (9, 16):
        core = n - 1
        lay = layered_full_gaussian(n, 0.99999)
        model = _probe(lay)
        order = range(len(lay.layers))
        floats = ((1 << core - 1) + sum(1 << min(k, 12) for k in range(core))
                  + len(order))
        need_mb = (floats * 8 + FIXED_BYTES) / 1e6
        monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 1.01))
        tracemalloc.start()
        try:
            model.probs(order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need_mb * 1e6
        monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 0.99))
        with pytest.raises(CapacityError):
            model.probs(order)


def test_layer_model_matches_sequential_probs():
    lay = layered_full_gaussian(8, 0.97)
    model = _probe(lay)
    identity = list(range(len(lay.layers)))
    np.testing.assert_allclose(model.probs(identity),
                               simulate_postselected(
                                   lay.to_circuit())[1].layer_probs,
                               atol=1e-12)
    # any reordering keeps the product (windows commute)
    rng = np.random.default_rng(2)
    perm = rng.permutation(len(lay.layers))
    assert np.prod(model.probs(perm)) == pytest.approx(
        np.prod(model.probs(identity)), rel=1e-12)
    # past the hypothesis sizes: a noisy, pruned 13-qubit run in a random
    # order against the flat circuit in that order
    budget = ErrorBudget.two_to_one(1e-3)
    full = layered_full_gaussian(13, 0.99999)
    _, info = prune_layered(full, budget)
    assert info.removed_b_gates > 0 and info.replaced_a_gates > 0
    model = _probe(full, budget, noise_seed=2)
    order = tuple(int(i) for i in rng.permutation(model.n_layers))
    sv, rep = simulate_postselected(*_flat_reference(full, budget, 2, order))
    _assert_same_run(np.kron(np.ones(2) / math.sqrt(2), model.state()),
                     model.probs(order), sv, rep)


@pytest.mark.parametrize("random_order", [False, True],
                         ids=["identity", "random"])
@pytest.mark.parametrize("extra", [1, 2, 4])
def test_layer_probs_on_both_sides_of_the_stored_bits(extra, random_order):
    # probs() stores each column's factors on the low _LOW_BITS bits and
    # keeps those above as scalars: up to n = b + 2 every column is stored,
    # at n = b + 4 the top columns have scalars and the top bit folds over
    # them; a noisy, pruned run against the flat circuit in that order
    n = _LOW_BITS + extra
    budget = ErrorBudget.two_to_one(1e-3)
    full = layered_full_gaussian(n, 1 - 1e-8)
    lay, info = prune_layered(full, budget)
    assert info.removed_b_gates > 0 and info.replaced_a_gates > 0
    high = [g for layer in lay.layers for g in layer.gates
            if min(c.qubit for c in g.controls) >= _LOW_BITS]
    assert bool(high) == (extra > 2)
    order = tuple(range(len(lay.layers)))
    if random_order:
        order = tuple(int(i) for i in
                      np.random.default_rng(n).permutation(len(order)))
    _, rep = simulate_postselected(*_flat_reference(full, budget, n, order))
    np.testing.assert_allclose(
        _probe(full, budget, noise_seed=n).probs(order), rep.layer_probs,
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("core", [12, 15, 18])
def test_ideal_core_half_shifted_is_the_closed_form(core):
    # built in one buffer, bit for bit the expression it stands for
    alpha = 1 - 1e-7
    y = np.arange(1 << core, dtype=float)
    amps = np.exp(math.log(alpha) * (y + 0.5) ** 2)
    assert np.array_equal(ideal_core_half_shifted(core, alpha),
                          amps / np.linalg.norm(amps))


def test_monte_carlo_known_mean():
    stats = simulate_rus_process(10.0, [4.0, 4.0], [0.5, 0.5], 200000, seed=0)
    assert abs(stats.mean - 64.0) <= 3 * stats.stderr


def test_monte_carlo_all_success():
    stats = simulate_rus_process(5.0, [2.0, 3.0], [1.0, 1.0], 1000, seed=1)
    assert stats.samples.min() == stats.samples.max() == 10.0


def test_monte_carlo_matches_formula_on_circuit():
    from gausskit.optimizer import expected_t_depth
    from gausskit.resources import layered_t_depth

    lay = layered_full_gaussian(6, 0.9)
    budget = ErrorBudget.two_to_one(1e-4)
    n0, nks = layered_t_depth(lay, budget)
    ps = _probe(lay).probs(range(len(lay.layers)))
    stats = simulate_rus_process(n0, nks, ps, 100000, seed=0)
    et = expected_t_depth(n0, list(zip(nks, ps)))
    assert abs(stats.mean - et) <= 3 * stats.stderr


def test_monte_carlo_ordering_paired_comparison():
    # ascending-probability execution costs less than descending
    ps = [0.5, 0.7, 0.9]
    nks = [4.0, 4.0, 4.0]
    asc = simulate_rus_process(10.0, nks, sorted(ps), 50000, seed=3)
    desc = simulate_rus_process(10.0, nks, sorted(ps, reverse=True), 50000,
                                seed=3)
    assert asc.mean + 3 * asc.stderr < desc.mean


def test_rus_rejects_zero_probability():
    with pytest.raises(ParameterError):
        simulate_rus_process(1.0, [1.0], [0.0], 10, seed=0)
