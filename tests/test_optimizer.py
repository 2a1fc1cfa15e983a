import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskit.builders import build_full_gaussian, layered_full_gaussian
from gausskit.gates import (Control, Gate, GateKind, ParameterError,
                            a_xh_distance)
from gausskit.optimizer import (
    DivergentCostError,
    ErrorBudget,
    alpha_matching_gate_error,
    expected_t_depth,
    order_layers,
    pack_layers,
    prune_circuit,
    prune_layered,
    qubit_threshold,
)
from gausskit.simulator import l2_error, simulate_postselected


def test_qubit_threshold_paper_corners():
    assert qubit_threshold(0.99, 0.01) == 5
    assert qubit_threshold(1 - 1e-10, 1e-10) == 19


def test_qubit_threshold_against_direct_condition():
    # independent oracle: scan the defining inequality
    def direct(alpha, delta):
        n = 0
        while alpha ** (2.0 ** n + 4.0 ** n) > delta:
            n += 1
        return n

    for alpha, delta in [(0.99, 0.01), (0.9, 0.3), (0.5, 0.4), (0.999, 1e-4),
                         (1 - 1e-6, 1e-6)]:
        assert qubit_threshold(alpha, delta) == direct(alpha, delta)


def test_qubit_threshold_coarse_case():
    # alpha=0.5, delta=0.4: even one qubit's rotation is within threshold
    # (0.5**2 = 0.25 < 0.4), so the scan and closed form both give 0
    assert qubit_threshold(0.5, 0.4) == 0


def test_qubit_threshold_domain():
    with pytest.raises(ParameterError):
        qubit_threshold(1.0, 0.5)
    with pytest.raises(ParameterError):
        qubit_threshold(0.5, 0.0)


def test_pack_layers_round_shapes():
    rounds = pack_layers(6)
    assert len(rounds) == 5
    assert all(len(r) == 3 for r in rounds)
    rounds = pack_layers(5)
    assert len(rounds) == 5
    assert all(len(r) == 2 for r in rounds)
    assert pack_layers(2) == [[(0, 1)]]


@pytest.mark.parametrize("core", range(2, 13))
def test_pack_layers_exact_cover_and_matching(core):
    rounds = pack_layers(core)
    seen = [p for r in rounds for p in r]
    assert len(seen) == core * (core - 1) // 2
    assert set(seen) == {(j, k) for j in range(core) for k in range(j + 1, core)}
    for r in rounds:
        used = [q for p in r for q in p]
        assert len(used) == len(set(used))


def test_pack_layers_random_relabeling_still_covers():
    rng = np.random.default_rng(5)
    rounds = pack_layers(7, rng=rng)
    seen = {p for r in rounds for p in r}
    assert seen == {(j, k) for j in range(7) for k in range(j + 1, 7)}


def test_expected_t_depth_examples():
    assert expected_t_depth(10.0, [(4.0, 0.5), (4.0, 0.5)]) == pytest.approx(64.0)
    assert expected_t_depth(3.0, [(2.0, 1.0), (5.0, 1.0)]) == pytest.approx(10.0)
    # single layer: (n0 + n1) / p
    assert expected_t_depth(7.0, [(3.0, 0.25)]) == pytest.approx(40.0)


def test_expected_t_depth_divergence():
    with pytest.raises(DivergentCostError):
        expected_t_depth(1.0, [(1.0, 0.0)])


def test_expected_t_depth_monotonicity():
    base = expected_t_depth(5.0, [(4.0, 0.9), (4.0, 0.8)])
    assert expected_t_depth(5.0, [(4.0, 0.95), (4.0, 0.8)]) <= base
    assert expected_t_depth(5.0, [(4.5, 0.9), (4.0, 0.8)]) >= base


def test_order_layers_sorts_by_probability():
    plan = order_layers([(4.0, 0.9), (4.0, 0.7), (4.0, 0.95)])
    assert plan.permutation == (1, 0, 2)


def test_order_layers_two_layer_preference():
    risky_first = expected_t_depth(0.0, [(4.0, 0.5), (4.0, 0.9)])
    safe_first = expected_t_depth(0.0, [(4.0, 0.9), (4.0, 0.5)])
    assert risky_first < safe_first
    plan = order_layers([(4.0, 0.9), (4.0, 0.5)])
    assert plan.permutation == (1, 0)
    assert plan.predicted_expected_t_depth == pytest.approx(risky_first)


def test_order_layers_tie_break_deterministic():
    plan = order_layers([(4.0, 0.8), (4.0, 0.8), (4.0, 0.8)])
    assert plan.permutation == (0, 1, 2)


def test_order_layers_brute_force_optimal_small():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_layers = int(rng.integers(2, 7))
        layers = [(float(rng.uniform(1, 10)), float(rng.uniform(0.3, 1.0)))
                  for _ in range(n_layers)]
        plan = order_layers(layers)
        best = min(expected_t_depth(0.0, [layers[i] for i in p])
                   for p in itertools.permutations(range(n_layers)))
        assert plan.predicted_expected_t_depth == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("n_layers, seed, certain", [
    (7, 11, False), (7, 12, True), (8, 13, False), (8, 14, True)])
def test_order_layers_brute_force_optimal_seven_and_eight(n_layers, seed,
                                                         certain):
    rng = np.random.default_rng(seed)
    layers = [(float(rng.uniform(1, 10)), float(rng.uniform(0.3, 1.0)))
              for _ in range(n_layers)]
    if certain:
        layers[int(rng.integers(n_layers))] = (float(rng.uniform(1, 10)), 1.0)
    plan = order_layers(layers)
    best = min(expected_t_depth(0.0, [layers[i] for i in p])
               for p in itertools.permutations(range(n_layers)))
    assert plan.predicted_expected_t_depth == pytest.approx(best, rel=1e-12)


def test_order_layers_equal_costs_never_beaten():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_layers = int(rng.integers(2, 7))
        nk = float(rng.uniform(1, 10))
        layers = [(nk, float(rng.uniform(0.3, 1.0))) for _ in range(n_layers)]
        plan = order_layers(layers)
        for p in itertools.permutations(range(n_layers)):
            assert (plan.predicted_expected_t_depth
                    <= expected_t_depth(0.0, [layers[i] for i in p]) + 1e-9)


def test_order_layers_large_instance_uses_exchange_rule():
    rng = np.random.default_rng(3)
    layers = [(float(rng.uniform(1, 10)), float(rng.uniform(0.3, 0.99)))
              for _ in range(12)]
    plan = order_layers(layers)
    ratios = [layers[i][0] / (1 - layers[i][1]) for i in plan.permutation]
    assert ratios == sorted(ratios)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 20.0), st.floats(0.05, 1.0)),
                min_size=1, max_size=5))
def test_order_layers_property_no_worse_than_identity(layers):
    plan = order_layers(layers)
    identity_cost = expected_t_depth(0.0, layers)
    assert plan.predicted_expected_t_depth <= identity_cost + 1e-9


def test_error_budget_allocations():
    b = ErrorBudget.two_to_one(1e-4)
    assert b.delta_single == 1e-4
    assert b.delta_controlled == 2e-4
    u = ErrorBudget.uniform(1e-4)
    assert u.delta_controlled == 1e-4
    clifford = Gate(GateKind.CNOT, 0, controls=(Control(1),))
    single = Gate(GateKind.A, 0, exponent=1.0)
    controlled = Gate(GateKind.B, 2, exponent=1.0,
                      controls=(Control(0), Control(1)))
    assert [b.delta_for(g) for g in (clifford, single, controlled)] == [
        0.0, 1e-4, 2e-4]
    assert [u.delta_for(g) for g in (clifford, single, controlled)] == [
        0.0, 1e-4, 1e-4]


def test_prune_removes_near_identity_windows():
    alpha = 1 - 1e-9
    circ = build_full_gaussian(6, alpha)
    budget = ErrorBudget.two_to_one(1e-3)
    pruned, info = prune_circuit(circ, budget)
    assert info.removed_b_gates > 0
    assert info.replaced_a_gates > 0
    sv_p, _ = simulate_postselected(pruned)
    sv_f, _ = simulate_postselected(circ)
    assert l2_error(sv_p.amplitudes, sv_f.amplitudes) <= info.total * 1e-3


def test_prune_noop_for_significant_gates():
    circ = build_full_gaussian(5, 0.9)
    pruned, info = prune_circuit(circ, ErrorBudget.two_to_one(1e-8))
    assert info.total == 0
    assert pruned == circ


def test_prune_layered_drops_empty_layers():
    alpha = 1 - 1e-10
    lay = layered_full_gaussian(8, alpha)
    budget = ErrorBudget.two_to_one(1e-2)
    pruned, info = prune_layered(lay, budget)
    assert info.removed_b_gates > 0
    assert len(pruned.layers) <= len(lay.layers)
    sv_p, _ = simulate_postselected(pruned)
    sv_f, _ = simulate_postselected(lay)
    assert l2_error(sv_p.amplitudes, sv_f.amplitudes) <= info.total * 1e-2


def test_alpha_matching_gate_error_coupling():
    for delta in (1e-3, 1e-6, 1e-9):
        alpha = alpha_matching_gate_error(delta)
        assert a_xh_distance(alpha, 1.0) == pytest.approx(delta, rel=1e-6)
