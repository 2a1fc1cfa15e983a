import dataclasses
import math

import numpy as np
import pytest

from gausskit import resources, simulator
from gausskit.builders import build_poly_phase, layered_full_gaussian
from gausskit.gates import (Control, Gate, GateKind, GaussianSpec,
                            ParameterError, rotation_kernel)
from gausskit.optimizer import (ErrorBudget, expected_t_depth, prune_layered,
                                qubit_threshold)
from gausskit.resources import (
    CostModel,
    circuit_t_depth,
    estimate,
    gate_t_cost,
    layered_t_depth,
)


def test_single_rotation_formula():
    model = CostModel()
    assert model.single_rotation(1e-3) == pytest.approx(
        1.15 * math.log2(1000) + 9.2, rel=1e-12)
    assert model.single_rotation(1e-3) == pytest.approx(20.66, abs=0.01)


def test_controlled_formulas_and_toffoli_gap():
    model = CostModel()
    for eps in (1e-2, 1e-5, 1e-9):
        assert (model.doubly_controlled(eps) - model.controlled_rotation(eps)
                == pytest.approx(4.0, abs=1e-12))
        assert model.controlled_rotation(eps) == pytest.approx(
            2 * (1.15 * math.log2(2 / eps) + 9.2), rel=1e-12)


def test_doubly_controlled_at_double_budget():
    # synthesized to accuracy 2*delta: 2.3*log2(1/delta) + 22.4
    model = CostModel()
    delta = 1e-4
    assert model.doubly_controlled(2 * delta) == pytest.approx(
        2.3 * math.log2(1 / delta) + 22.4, rel=1e-12)


def test_gate_t_cost_classes():
    model = CostModel()
    cnot = Gate(GateKind.CNOT, 0, controls=(Control(1),))
    assert gate_t_cost(cnot, 1e-3) == (0.0, 0.0)
    h = Gate(GateKind.H, 0)
    assert gate_t_cost(h, 1e-3) == (0.0, 0.0)
    z = Gate(GateKind.Z, 0, exponent=2.0)
    count, depth = gate_t_cost(z, 1e-3)
    assert count == depth == pytest.approx(model.single_rotation(1e-3))
    b2 = Gate(GateKind.B, 2, exponent=1.0, controls=(Control(0), Control(1)))
    count, depth = gate_t_cost(b2, 2e-4)
    assert count == depth == pytest.approx(2.3 * math.log2(1e4) + 22.4, rel=1e-12)


def test_gate_t_cost_domain():
    with pytest.raises(ParameterError):
        gate_t_cost(Gate(GateKind.A, 0, exponent=1.0), 1.0)


def test_layered_t_depth_values():
    lay = layered_full_gaussian(7, 0.9)
    budget = ErrorBudget.two_to_one(1e-4)
    n0, nks = layered_t_depth(lay, budget)
    assert n0 == pytest.approx(1.15 * math.log2(1e4) + 9.2, rel=1e-12)
    assert len(nks) == 5
    for nk in nks:
        assert nk == pytest.approx(2.3 * math.log2(1e4) + 22.4, rel=1e-12)


def test_fold_prelude_equivalence():
    # adding the prelude depth to the first layer gives the same value
    n0, nks = 13.0, [7.0, 8.0, 9.0]
    ps = [0.9, 0.8, 0.7]
    direct = expected_t_depth(n0, list(zip(nks, ps)))
    folded = expected_t_depth(0.0, list(zip([nks[0] + n0] + nks[1:], ps)))
    assert direct == pytest.approx(folded, rel=1e-14)


def test_circuit_t_depth_z_only_stages():
    # uncontrolled Z gates on distinct qubits form one parallel stage
    circ = build_poly_phase(4, 0.3, 1)
    budget = ErrorBudget.uniform(1e-3)
    depth = circuit_t_depth(circ, budget)
    assert depth == pytest.approx(CostModel().single_rotation(1e-3), rel=1e-12)


def test_circuit_t_depth_clifford_postlude_free():
    lay = layered_full_gaussian(6, 0.9)
    budget = ErrorBudget.two_to_one(1e-4)
    full = circuit_t_depth(lay.to_circuit(), budget)
    n0, nks = layered_t_depth(lay, budget)
    assert full == pytest.approx(n0 + sum(nks), rel=1e-12)


def test_estimate_small_point_deterministic():
    spec = GaussianSpec(n_qubits=8, alpha=0.99, gate_error=1e-5)
    r1 = estimate(spec, seed=12)
    r2 = estimate(spec, seed=12)
    assert r1 == r2
    assert r1.l2_error < 1e-3
    assert r1.expected_t_depth > 0
    assert r1.subnormalization ** 2 == pytest.approx(
        np.prod(r1.layer_probs), rel=1e-10)


def test_estimate_threshold_selects_qubits():
    assert qubit_threshold(1 - 1e-10, 1e-10) == 19


def test_estimate_orders_by_packed_probability():
    # the permutation sorts the probabilities measured in packed order;
    # the re-measured executed-order values may differ slightly since each
    # p_k is conditional on the windows already applied
    spec = GaussianSpec(n_qubits=9, alpha=0.995, gate_error=1e-6)
    packed = estimate(spec, seed=4, order="identity")
    rep = estimate(spec, seed=4, order="optimal")
    expected = tuple(int(i) for i in np.argsort(packed.layer_probs,
                                                kind="stable"))
    assert rep.ordering == expected
    assert np.prod(rep.layer_probs) == pytest.approx(
        np.prod(packed.layer_probs), rel=1e-10)


def test_estimate_optimal_no_worse_than_identity():
    spec = GaussianSpec(n_qubits=9, alpha=0.995, gate_error=1e-6)
    opt = estimate(spec, seed=4, order="optimal")
    ident = estimate(spec, seed=4, order="identity")
    assert opt.expected_t_depth <= ident.expected_t_depth + 1e-9


def test_estimate_target_error_search():
    spec = GaussianSpec(n_qubits=8, alpha=0.99, gate_error=1e-3)
    rep = estimate(spec, target_error=1e-5, seed=2)
    assert rep.l2_error <= 1e-5
    assert rep.delta < 1e-3


@pytest.mark.parametrize("order, alloc", [("optimal", "2to1"),
                                          ("random", "uniform")])
def test_estimate_search_equals_fixed_delta_run(order, alloc):
    # the search hands its accepted run to ordering; a fresh fixed-delta
    # estimate at the accepted delta must give the same report (the last
    # bisection candidate here misses the target, so it is not the one)
    spec = GaussianSpec(n_qubits=9, alpha=1 - 1e-5)
    rep = estimate(spec, target_error=3e-5, seed=3, order=order, alloc=alloc)
    assert rep.l2_error <= 3e-5
    fixed = estimate(dataclasses.replace(spec, gate_error=rep.delta), seed=3,
                     order=order, alloc=alloc)
    assert rep == fixed


def test_estimate_core_simulation_count(monkeypatch):
    # the unpruned circuit is built once; 15 bisection candidates prune it
    # and build one core state each; the accepted run takes probabilities
    # in packed order, then in the chosen order, and a fixed delta builds
    # one state
    calls = []

    def counting_build(*args):
        calls.append(("build",))
        return layered_full_gaussian(*args)

    monkeypatch.setattr(resources, "layered_full_gaussian", counting_build)
    for name in ("state", "probs"):
        method = getattr(simulator.GaussianLayerModel, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append((_name, *(tuple(a) for a in args)))
            return _method(self, *args)

        monkeypatch.setattr(simulator.GaussianLayerModel, name, counting)
    spec = GaussianSpec(n_qubits=8, alpha=0.99, gate_error=1e-5)
    rep = estimate(spec, target_error=1e-5, seed=2)
    packed = tuple(range(len(rep.ordering)))
    assert calls == [("build",)] + [("state",)] * 15 + [
        ("probs", packed), ("probs", rep.ordering)]
    calls.clear()
    rep = estimate(spec, seed=2)
    assert calls == [("build",), ("state",), ("probs", packed),
                     ("probs", rep.ordering)]


def test_estimate_error_is_the_same_in_every_order():
    # the windows commute, so the core state, and its error, do not depend
    # on the layer order; only the probabilities and the T-depth do
    spec = GaussianSpec(n_qubits=16, beta=1.3e-14, gate_error=2.67e-10)
    eps = [estimate(spec, seed=3, order=order).l2_error
           for order in ("identity", "random", "optimal")]
    assert eps[0] == eps[1] == eps[2]


def _longdouble_core_error(layered, noise) -> float:
    """The core error of ``layered`` under ``noise``, built gate by gate in
    extended precision: prelude rotations as 2x2 updates, each window as
    <0|P B|0> on its control subspace and <0|P|0> elsewhere."""
    core = layered.data_qubits - 1
    alpha = layered.alpha
    state = np.zeros(1 << core, dtype=np.clongdouble)
    state[0] = 1
    for gate in layered.prelude.gates():
        if gate.target == core:
            continue  # the top qubit only feeds the symmetrizing postlude
        mat = rotation_kernel(gate.kind, gate.exponent,
                              alpha).astype(np.clongdouble)
        if gate in noise:
            mat = noise[gate].astype(np.clongdouble) @ mat
        view = state.reshape(-1, 2, 1 << gate.target)
        a, b = view[:, 0, :].copy(), view[:, 1, :].copy()
        view[:, 0, :] = mat[0, 0] * a + mat[0, 1] * b
        view[:, 1, :] = mat[1, 0] * a + mat[1, 1] * b
    x = np.arange(1 << core)
    for layer in layered.layers:
        for gate in layer.gates:
            p = noise.get(gate, np.eye(2)).astype(np.clongdouble)
            kernel = rotation_kernel(gate.kind, gate.exponent, alpha)
            sel = np.ones(x.size, dtype=bool)
            for c in gate.controls:
                sel &= ((x >> c.qubit) & 1) == int(c.closed)
            state *= np.where(sel, (p @ kernel.astype(np.clongdouble))[0, 0],
                              p[0, 0])
    state /= np.sqrt(np.vdot(state, state).real)
    y = np.arange(1 << core, dtype=np.longdouble)
    ideal = np.exp(np.log(np.longdouble(alpha)) * (y + 0.5) ** 2)
    ideal /= np.sqrt((ideal * ideal).sum())
    ov = np.vdot(ideal, state)
    return float(np.linalg.norm(ideal - state * np.conj(ov / abs(ov))))


@pytest.mark.parametrize("n, spec_args, delta, seed", [
    (12, {"beta": 1.3e-14}, 1e-10, 3),
    (15, {"alpha": 1 - 1e-9}, 1e-9, 1),  # one gate pruned
    (14, {"alpha": 1 - 1e-7}, 1e-8, 4),
])
def test_estimate_error_matches_long_double_oracle(n, spec_args, delta, seed):
    spec = GaussianSpec(n_qubits=n, gate_error=delta, **spec_args)
    rep = estimate(spec, seed=seed, order="random")
    budget = ErrorBudget.two_to_one(delta)
    layered, _ = prune_layered(layered_full_gaussian(n, rep.alpha), budget)
    noise = simulator.realize_noise(layered.to_circuit().gates(), budget,
                                    np.random.default_rng(seed))
    oracle = _longdouble_core_error(layered, noise)
    assert rep.l2_error == pytest.approx(oracle, rel=1e-6)


def test_estimate_core_error_equals_full_register_error():
    # the core-register shortcut must give the same numbers as simulating
    # the full symmetrized register
    from gausskit.builders import layered_full_gaussian
    from gausskit.optimizer import prune_layered
    from gausskit.simulator import (ideal_gaussian, l2_error, realize_noise,
                                    simulate_postselected)

    spec = GaussianSpec(n_qubits=8, alpha=0.995, gate_error=2e-5)
    rep = estimate(spec, seed=6, order="optimal")
    budget = ErrorBudget.two_to_one(spec.gate_error)
    layered, _ = prune_layered(layered_full_gaussian(8, 0.995), budget)
    noise = realize_noise(layered.to_circuit().gates(), budget,
                          np.random.default_rng(6))
    layered = layered.with_layers(
        tuple(layered.layers[i] for i in rep.ordering))
    state, full_rep = simulate_postselected(layered, noise=noise)
    eps_full = l2_error(ideal_gaussian(8, 0.995), state.amplitudes)
    assert rep.l2_error == pytest.approx(eps_full, rel=1e-9, abs=1e-14)
    assert full_rep.layer_probs == pytest.approx(rep.layer_probs, abs=1e-12)
