import dataclasses
import math

import numpy as np
import pytest

from gausskit import simulator
from gausskit.builders import build_poly_phase, layered_full_gaussian
from gausskit.gates import Control, Gate, GateKind, GaussianSpec, ParameterError
from gausskit.optimizer import ErrorBudget, expected_t_depth, qubit_threshold
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
    # 15 bisection candidates plus the chosen-order run; a fixed delta
    # simulates in packed order, then in the chosen order
    calls = []
    core_pipeline = simulator.core_pipeline

    def counting(*args, **kwargs):
        calls.append(kwargs.get("order"))
        return core_pipeline(*args, **kwargs)

    monkeypatch.setattr(simulator, "core_pipeline", counting)
    spec = GaussianSpec(n_qubits=8, alpha=0.99, gate_error=1e-5)
    estimate(spec, target_error=1e-5, seed=2)
    assert len(calls) == 16
    assert calls[:15] == [None] * 15 and calls[15] is not None
    calls.clear()
    estimate(spec, seed=2)
    assert len(calls) == 2
    assert calls[0] is None and calls[1] is not None


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
