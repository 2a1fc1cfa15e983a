"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values are
computed by independent oracles inside this module (direct normalization
of closed forms, exhaustive permutation search, condition scans), never by
the code paths under test.
"""
import itertools
import math
import time

import numpy as np

import gausskit as gk
from gausskit import resources, simulator
from gausskit.builders import (
    build_exponential,
    build_full_gaussian,
    build_gaussian_2d,
    build_half_gaussian,
    build_poly_phase,
    layered_full_gaussian,
)
from gausskit.circuit import Circuit, MeasureBarrier
from gausskit.gates import Control, Gate, GateKind, GaussianSpec
from gausskit.optimizer import ErrorBudget, expected_t_depth
from gausskit.simulator import (
    CoreTable,
    GaussianLayerModel,
    l2_error,
    simulate_exact,
    simulate_postselected,
    simulate_rus_process,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _oracle_normalize(exponents: np.ndarray, alpha: float) -> np.ndarray:
    amps = np.exp(math.log(alpha) * exponents)
    return amps / math.sqrt(float((amps * amps).sum()))


def test_criterion_1_gate_count_identities():
    t0 = time.time()
    ok = True
    detail = ""
    for n in range(4, 15):
        circ = build_full_gaussian(n, 0.9)
        lay = layered_full_gaussian(n, 0.9)
        checks = [
            circ.count(GateKind.A) == n - 1,
            circ.count(GateKind.B, n_controls=2) == (n - 1) * (n - 2) // 2,
            circ.count(GateKind.CNOT) == n - 1,
            circ.count(GateKind.H) == 1,
            lay.ancilla_qubits == (n - 1) // 2,
            sum(len(l.gates) for l in lay.layers) == (n - 1) * (n - 2) // 2,
        ]
        if not all(checks):
            ok = False
            detail = f"mismatch at n={n}: {checks}"
            break
    _report(1, "gate-count identities n=4..14", ok,
            detail or f"({time.time() - t0:.2f}s)")


def test_criterion_2_window_correctness():
    t0 = time.time()
    worst = 0.0
    where = ""
    for alpha in (0.5, 0.8, 0.99):
        for n in range(1, 9):
            x = np.arange(1 << n, dtype=float)
            # polynomial phase (degree 2 exercises the controlled ladder)
            sv, _ = simulate_postselected(build_poly_phase(n, alpha, 2))
            target = np.exp(1j * alpha * x * x) / math.sqrt(1 << n)
            err = l2_error(target, sv.amplitudes)
            if err > worst:
                worst, where = err, f"phase n={n} a={alpha}"
            # exponential
            sv, _ = simulate_postselected(build_exponential(n, alpha))
            err = l2_error(_oracle_normalize(x, alpha), sv.amplitudes)
            if err > worst:
                worst, where = err, f"exponential n={n} a={alpha}"
            # half-Gaussian
            if n >= 2:
                sv, _ = simulate_postselected(build_half_gaussian(n, alpha))
                err = l2_error(_oracle_normalize(x * x, alpha), sv.amplitudes)
                if err > worst:
                    worst, where = err, f"half n={n} a={alpha}"
            # full Gaussian
            if n >= 3:
                sv, _ = simulate_postselected(build_full_gaussian(n, alpha))
                center = ((1 << n) - 1) / 2.0
                err = l2_error(_oracle_normalize((x - center) ** 2, alpha),
                               sv.amplitudes)
                if err > worst:
                    worst, where = err, f"full n={n} a={alpha}"
        # two-dimensional quadrant Gaussian
        for n_x, n_y in ((2, 2), (3, 3), (4, 4)):
            sv, _ = simulate_postselected(
                build_gaussian_2d(n_x, n_y, (1, 1, 1), alpha))
            xs = np.arange(1 << n_x, dtype=float)[:, None]
            ys = np.arange(1 << n_y, dtype=float)[None, :]
            form = (xs * xs + xs * ys + ys * ys).reshape(-1)
            err = l2_error(_oracle_normalize(form, alpha), sv.amplitudes)
            if err > worst:
                worst, where = err, f"2d ({n_x},{n_y}) a={alpha}"
    ok = worst <= 1e-10
    _report(2, "window correctness vs brute-force oracles", ok,
            f"worst L2 {worst:.2e} at {where} ({time.time() - t0:.1f}s)")


def test_criterion_3_backend_equivalence():
    t0 = time.time()
    worst_state = 0.0
    worst_prob = 0.0
    cases = []
    for n in (5, 9, 12):
        cases.append(build_half_gaussian(n, 0.99))
        cases.append(build_full_gaussian(n, 0.95))
        cases.append(build_exponential(n, 0.8))
        cases.append(build_poly_phase(n, 0.4, 2))
        cases.append(layered_full_gaussian(n, 0.97).to_circuit())
        cases.append(build_gaussian_2d(n // 2, n - n // 2, (1, 1, 1), 0.95))
    for circ in cases:
        sv_e, rep_e = simulate_exact(circ)
        sv_p, rep_p = simulate_postselected(circ)
        worst_state = max(worst_state,
                          float(np.abs(sv_e.amplitudes - sv_p.amplitudes).max()))
        for a, b in zip(rep_e.layer_probs, rep_p.layer_probs):
            worst_prob = max(worst_prob, abs(a - b))
    ok = worst_state <= 1e-12 and worst_prob <= 1e-12
    _report(3, "exact vs post-selected backend equivalence", ok,
            f"state {worst_state:.2e}, probs {worst_prob:.2e} "
            f"({time.time() - t0:.1f}s)")


def test_criterion_4_merge_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        m = float(rng.integers(0, 7))
        n = float(rng.integers(0, 7))
        alpha = float(rng.uniform(0.3, 0.995))
        pair = Circuit(
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
                           exponent=math.log2(2.0 ** m + 2.0 ** n)),),
        )
        sv_a, _ = simulate_exact(pair)
        sv_b, _ = simulate_exact(merged)
        worst = max(worst, l2_error(sv_a.amplitudes, sv_b.amplitudes))
    ok = worst <= 1e-12
    _report(4, "rotation-merge identity, 20 random triples", ok,
            f"worst {worst:.2e} ({time.time() - t0:.2f}s)")


def test_criterion_5_qubit_threshold_corners():
    got_low = gk.qubit_threshold(0.99, 0.01)
    got_high = gk.qubit_threshold(1 - 1e-10, 1e-10)
    ok = got_low == 5 and got_high == 19
    _report(5, "qubit-threshold corners (5 and 19)", ok,
            f"got {got_low} and {got_high}")


def _probe(layered, budget, seed):
    """The core-register model ``estimate`` probes for ``layered`` at
    ``budget``: the unpruned table, its kept rows and noise from ``seed``."""
    table = CoreTable(layered)
    kept = table.kept(budget)
    return GaussianLayerModel(
        table, kept, table.draw_noise(budget, kept,
                                      np.random.default_rng(seed)))


def test_criterion_6_expected_cost_vs_monte_carlo():
    t0 = time.time()
    detail_parts = []
    ok = True
    for n, alpha, seed in ((4, 0.8, 0), (6, 0.9, 1), (8, 0.95, 2),
                           (10, 0.99, 3)):
        lay = layered_full_gaussian(n, alpha)
        budget = ErrorBudget.two_to_one(1e-4)
        n0, nks = resources.layered_t_depth(lay, budget)
        # the zero-budget probe: the noiseless, unpruned circuit
        ps = _probe(lay, ErrorBudget.two_to_one(0.0), 0).probs(
            range(len(lay.layers)))
        formula = expected_t_depth(n0, list(zip(nks, ps)))
        stats = simulate_rus_process(n0, nks, ps, 100000, seed=seed)
        dev = abs(stats.mean - formula) / stats.stderr
        detail_parts.append(f"n={n}: {dev:.2f}SE")
        if dev > 3.0:
            ok = False
    _report(6, "expected T-depth formula vs Monte Carlo (1e5 trials)", ok,
            ", ".join(detail_parts) + f" ({time.time() - t0:.1f}s)")


def test_criterion_7_ordering_optimality():
    t0 = time.time()
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(100):
        n_layers = int(rng.integers(2, 7))
        layers = [(float(rng.uniform(1, 20)), float(rng.uniform(0.2, 1.0)))
                  for _ in range(n_layers)]
        plan = gk.order_layers(layers)
        brute = min(expected_t_depth(0.0, [layers[i] for i in p])
                    for p in itertools.permutations(range(n_layers)))
        if not math.isclose(plan.predicted_expected_t_depth, brute,
                            rel_tol=1e-12):
            failures += 1
    # equal-cost case: increasing-p ordering never beaten
    equal_ok = True
    for _ in range(100):
        n_layers = int(rng.integers(2, 7))
        nk = float(rng.uniform(1, 20))
        layers = [(nk, float(rng.uniform(0.2, 1.0))) for _ in range(n_layers)]
        plan = gk.order_layers(layers)
        best = min(expected_t_depth(0.0, [layers[i] for i in p])
                   for p in itertools.permutations(range(n_layers)))
        if plan.predicted_expected_t_depth > best * (1 + 1e-12):
            equal_ok = False
    ok = failures == 0 and equal_ok
    _report(7, "ordering attains brute-force minimum 100/100", ok,
            f"failures={failures}, equal-cost ok={equal_ok} "
            f"({time.time() - t0:.1f}s)")


def test_criterion_8_headline_resource_figures():
    t0 = time.time()
    # 22-qubit fixed-window Gaussian, beta ~ 1.3e-14, achieved eps <= 1e-9
    spec = GaussianSpec(n_qubits=22, beta=1.3e-14)
    rep = resources.estimate(spec, target_error=1e-9, seed=3)
    ok_a = rep.l2_error <= 1e-9 and 1900 * 0.75 <= rep.expected_t_depth <= 1900 * 1.25
    detail_a = (f"22q: ET={rep.expected_t_depth:.0f} (band 1425..2375), "
                f"eps={rep.l2_error:.2e}, delta={rep.delta:.2e}")
    # most extreme heatmap corner: alpha = 1 - 1e-10 at eps 1e-10, 19 qubits
    alpha = 1 - 1e-10
    n = gk.qubit_threshold(alpha, 1e-10)
    spec_b = GaussianSpec(n_qubits=n, alpha=alpha)
    rep_b = resources.estimate(spec_b, target_error=1e-10, seed=3)
    ok_b = (n == 19 and rep_b.l2_error <= 1e-10
            and 2000 * 0.75 <= rep_b.expected_t_depth <= 2000 * 1.25)
    detail_b = (f"corner: n={n}, ET={rep_b.expected_t_depth:.0f} "
                f"(band 1500..2500), eps={rep_b.l2_error:.2e}")
    _report(8, "headline expected T-depth (~1900 and ~2000)", ok_a and ok_b,
            f"{detail_a}; {detail_b} ({time.time() - t0:.0f}s)")


def test_criterion_9_ordering_benefit_at_scale():
    t0 = time.time()
    rng = np.random.default_rng(11)
    details = []
    ok = True
    for alpha, eps_target in ((1 - 1e-6, 1e-6), (1 - 1e-8, 1e-8),
                              (1 - 1e-10, 1e-10)):
        n = gk.qubit_threshold(alpha, eps_target)
        spec = GaussianSpec(n_qubits=n, alpha=alpha)
        rep = resources.estimate(spec, target_error=eps_target, seed=7)
        budget = ErrorBudget.two_to_one(rep.delta)
        layered = layered_full_gaussian(n, alpha)
        model = _probe(layered, budget, 7)
        layered, _ = gk.prune_layered(layered, budget)
        n0, nks = resources.layered_t_depth(layered, budget)
        n_layers = len(nks)

        def cost(order):
            ps = model.probs(order)
            return expected_t_depth(n0, list(zip(nks, ps)))

        packed = list(range(n_layers))
        opt_order = np.argsort(model.probs(packed), kind="stable")
        opt = cost(opt_order)
        randoms = [cost(rng.permutation(n_layers)) for _ in range(100)]
        reduction = 1.0 - opt / float(np.mean(randoms))
        details.append(f"n={n}: {reduction * 100:.1f}%")
        if not (0.03 <= reduction <= 0.12):
            ok = False
    _report(9, "ordering benefit in the 3..12% band", ok,
            ", ".join(details) + f" ({time.time() - t0:.0f}s)")


def test_criterion_10_pruning_soundness():
    t0 = time.time()
    rng = np.random.default_rng(55)
    worst_ratio = 0.0
    pruned_any = 0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        alpha = 1.0 - 10.0 ** rng.uniform(-9, -1)
        delta = 10.0 ** rng.uniform(-5, -0.8)
        circ = build_full_gaussian(n, alpha)
        budget = ErrorBudget.two_to_one(delta)
        pruned, info = gk.prune_circuit(circ, budget)
        if info.total == 0:
            continue
        pruned_any += 1
        sv_p, _ = simulate_postselected(pruned)
        sv_f, _ = simulate_postselected(circ)
        dist = l2_error(sv_p.amplitudes, sv_f.amplitudes)
        bound = info.total * delta
        worst_ratio = max(worst_ratio, dist / bound)
    ok = worst_ratio <= 1.0 and pruned_any >= 20
    _report(10, "pruning soundness (distance <= removed * delta)", ok,
            f"worst distance/bound {worst_ratio:.3f} over {pruned_any} "
            f"pruning-active instances ({time.time() - t0:.1f}s)")
