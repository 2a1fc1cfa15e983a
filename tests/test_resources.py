import collections
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from gausskit import resources, simulator
from gausskit.builders import build_poly_phase, layered_full_gaussian
from gausskit.circuit import Circuit, LayeredCircuit
from gausskit.gates import (Control, Gate, GateKind, GaussianSpec,
                            ParameterError, rotation_kernel)
from gausskit.optimizer import (ErrorBudget, expected_t_depth, prune_layered,
                                qubit_threshold)
from gausskit.resources import (
    circuit_t_depth,
    estimate,
    layered_t_depth,
    rotation_t_cost,
)


def test_single_rotation_formula():
    assert rotation_t_cost(1e-3, 0) == pytest.approx(
        1.15 * math.log2(1000) + 9.2, rel=1e-12)
    assert rotation_t_cost(1e-3, 0) == pytest.approx(20.66, abs=0.01)


def test_controlled_formulas_and_toffoli_gap():
    for eps in (1e-2, 1e-5, 1e-9):
        assert (rotation_t_cost(eps, 2) - rotation_t_cost(eps, 1)
                == pytest.approx(4.0, abs=1e-12))
        assert rotation_t_cost(eps, 1) == pytest.approx(
            2 * (1.15 * math.log2(2 / eps) + 9.2), rel=1e-12)


def test_doubly_controlled_at_double_budget():
    # synthesized to accuracy 2*delta: 2.3*log2(1/delta) + 22.4
    delta = 1e-4
    assert rotation_t_cost(2 * delta, 2) == pytest.approx(
        2.3 * math.log2(1 / delta) + 22.4, rel=1e-12)


def _t_depth_of(*elements):
    return circuit_t_depth(Circuit(data_qubits=4, ancilla_qubits=0,
                                   alpha=0.9, elements=elements),
                           ErrorBudget.two_to_one(1e-4))


def test_gate_t_cost_classes():
    # circuit_t_depth prices each gate by its class at its budget:
    # Cliffords are free, an uncontrolled Z costs one single rotation and
    # a doubly-controlled B at 2*delta 2.3*log2(1/delta) + 22.4
    assert _t_depth_of(Gate(GateKind.CNOT, 0, controls=(Control(1),)),
                       Gate(GateKind.H, 0)) == 0.0
    assert (_t_depth_of(Gate(GateKind.Z, 0, exponent=2.0))
            == rotation_t_cost(1e-4, 0))
    b2 = Gate(GateKind.B, 2, exponent=1.0, controls=(Control(0), Control(1)))
    assert _t_depth_of(b2) == pytest.approx(2.3 * math.log2(1e4) + 22.4,
                                            rel=1e-12)


def test_gate_t_cost_domain():
    # an accuracy outside (0, 1) or a third control has no cost
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ParameterError):
            rotation_t_cost(eps, 0)
    with pytest.raises(ParameterError):
        rotation_t_cost(1e-3, 3)
    with pytest.raises(ParameterError):
        _t_depth_of(Gate(GateKind.Z, 3, exponent=1.0,
                         controls=(Control(0), Control(1), Control(2))))


def test_layered_t_depth_values():
    lay = layered_full_gaussian(7, 0.9)
    budget = ErrorBudget.two_to_one(1e-4)
    n0, nks = layered_t_depth(lay, budget)
    assert n0 == pytest.approx(1.15 * math.log2(1e4) + 9.2, rel=1e-12)
    assert len(nks) == 5
    for nk in nks:
        assert nk == pytest.approx(2.3 * math.log2(1e4) + 22.4, rel=1e-12)


@pytest.mark.parametrize("n", [7, 13])
@pytest.mark.parametrize("delta", [1e-9, 1e-5, 1e-3, 0.2])
def test_layered_t_depth_is_the_per_gate_max(n, delta):
    # pricing one gate per class gives, bit for bit, each stage's max over
    # all its gates, on circuits pruned from nothing to every rotation
    full = layered_full_gaussian(n, 1 - 1e-6)
    for budget in (ErrorBudget.two_to_one(delta), ErrorBudget.uniform(delta)):
        lay, _ = prune_layered(full, budget)

        def stage(gates):
            return max((resources._gate_t_depth(g, budget) for g in gates),
                       default=0.0)

        assert layered_t_depth(lay, budget) == (
            stage(lay.prelude.gates()), [stage(layer.gates)
                                         for layer in lay.layers])


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
    assert depth == pytest.approx(rotation_t_cost(1e-3, 0), rel=1e-12)


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


def test_estimate_with_every_window_pruned():
    # delta = 1e-3 prunes all three windows of n = 4 at alpha = 0.99999:
    # every order is the empty plan, and the runs report the same numbers
    spec = GaussianSpec(n_qubits=4, alpha=0.99999, gate_error=1e-3)
    reports = [estimate(spec, seed=0, order=order)
               for order in ("optimal", "identity", "random")]
    assert reports[0].layer_probs == () and reports[0].ordering == ()
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert reports[0].subnormalization == 1.0


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _spec_run_need(core: int) -> float:
    """Bytes of a spec run on ``core`` bits, none of them a 2**core array:
    with b = min(core, 12) low bits and h = core - b high bits, a product
    form of 2**b-entry fill, h columns of 2**b entries and 2**h scalars;
    the table's real ideal form; its complex scratch, one form, h columns
    and the sums' p1 (2**(h - h // 2) rows of 2**b), p2 (2**(h // 2) rows)
    and product (2**h); then a probe's doubling triangle (b * 2**(b-1)
    complex entries), its sum arguments and chunk buffers, or the arrays
    of probs; and numpy's fixed ufunc buffers."""
    b = min(core, 12)
    h = core - b
    form = (h + 1) * 2 ** b + 2 ** h
    sums = (2 ** (h - h // 2) + 2 ** (h // 2)) * 2 ** b + 2 ** h
    floats = (form + 2 * (form + h * 2 ** b + sums) + (b + h + 7) * 2 ** b
              + 16 * 2 ** h)
    return floats * 8 + 2 * 8192 * 16 + 4096


@pytest.mark.parametrize("n", [12, 16, 19, 22, 24, 27])
def test_estimate_capacity_covers_state_ideal_and_chunk(monkeypatch, n):
    # a cap just below the spec run's need refuses the run before its
    # table or any probe array exists, and the run it admits stays under
    # it: 5.3 MB traced at n = 22, where one core state alone is 33.6 MB,
    # and up to the largest core, 26 bits at n = 27.  One small run first
    # makes the lazy imports of a process's first estimate (0.7 MB, from
    # numpy.random) before anything is traced.
    estimate(GaussianSpec(n_qubits=4, beta=1e-3, gate_error=1e-6))
    core = n - 1
    spec = GaussianSpec(n_qubits=n, beta=1e-3, gate_error=1e-6)
    need = _spec_run_need(core)
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need * 0.99 / 1e6))

    def refused():
        with pytest.raises(simulator.CapacityError):
            estimate(spec)

    assert _traced_peak(refused) < (1 << core) * 16 / 4
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need * 1.01 / 1e6))
    assert _traced_peak(lambda: estimate(spec)) <= need


def test_spec_runs_build_no_core_sized_array(monkeypatch):
    # the error comes from the model's factors, so no spec run calls the
    # oracles that take whole core states, and a fixed-delta estimate at
    # n = 22, whose core state alone would be 33.6 MB, traces at most 8 MB
    def oracle(*args):
        raise AssertionError("a spec run built a core-sized array")

    for name in ("ideal_core_half_shifted", "l2_error"):
        monkeypatch.setattr(simulator, name, oracle)
    monkeypatch.setattr(simulator.GaussianLayerModel, "state", oracle)
    spec = GaussianSpec(n_qubits=22, beta=1.3e-14, gate_error=2.67e-10)
    assert _traced_peak(lambda: estimate(spec, seed=3)) <= 8e6
    spec = GaussianSpec(n_qubits=14, beta=1.3e-14)
    assert estimate(spec, target_error=1e-9, seed=1).l2_error <= 1e-9
    assert resources.noiseless_run(14, spec.derived_alpha)[1] < 1e-12


def test_estimate_checks_alloc_before_its_table(monkeypatch):
    # an unknown allocation is refused with the ordering, before the table
    # builds its circuit (18 to 25 ms at n = 22)
    def no_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(simulator, "CoreTable", no_table)
    spec = GaussianSpec(n_qubits=22, beta=1.3e-14, gate_error=2.67e-10)
    with pytest.raises(ParameterError, match="unknown allocation scheme"):
        estimate(spec, alloc="x")


def test_estimate_error_does_not_depend_on_blas_threads():
    # no reduction of the error or of the layer probabilities sums more
    # than 8192 floats, which OpenBLAS does on one thread, so one and two
    # threads give equal reports; at n = 22 probs' product is (128 x 256)
    # @ (256 x 64) and its a a full slice of 8192 floats
    script = ("from gausskit.gates import GaussianSpec\n"
              "from gausskit.resources import estimate\n"
              "for n in (16, 19, 22):\n"
              "    print(repr(estimate(GaussianSpec(n_qubits=n, beta=1.3e-14,"
              " gate_error=2.67e-10), seed=3)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(resources.__file__)))
    outputs = [subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src,
                         "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")]
    assert outputs[0].count("EstimateReport(") == 3
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [4, 9, 14])
def test_noiseless_run_is_the_zero_budget_probe(n):
    # the zero budget prunes nothing and draws no noise: the probe gives
    # the probabilities of the flat post-selected run of the whole circuit,
    # and the error of its state to rounding
    alpha = 1 - 1e-6
    rep, eps = resources.noiseless_run(n, alpha)
    sv, flat = simulator.simulate_postselected(
        layered_full_gaussian(n, alpha).to_circuit())
    np.testing.assert_allclose(rep.layer_probs, flat.layer_probs,
                               rtol=0, atol=1e-13)
    assert eps == pytest.approx(simulator.l2_error(
        simulator.ideal_gaussian(n, alpha), sv.amplitudes), rel=0, abs=1e-14)


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1e-5])
def test_estimate_rejects_target_outside_positive_reals(target):
    spec = GaussianSpec(n_qubits=8, alpha=0.99)
    with pytest.raises(ParameterError, match="target_error must be finite"):
        estimate(spec, target_error=target, seed=2)


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


@pytest.fixture
def model_calls(monkeypatch):
    """Every unpruned-circuit build and core-model error(), state() and
    probs() call, in order."""
    calls = []

    def counting_build(*args):
        calls.append(("build",))
        return layered_full_gaussian(*args)

    monkeypatch.setattr(simulator, "layered_full_gaussian", counting_build)
    for name in ("error", "state", "probs"):
        method = getattr(simulator.GaussianLayerModel, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append((_name, *(tuple(a) for a in args)))
            return _method(self, *args)

        monkeypatch.setattr(simulator.GaussianLayerModel, name, counting)
    return calls


def test_estimate_core_simulation_count(model_calls):
    # the unpruned circuit is built once; the grid search probes 4 deltas
    # here, each pruning it and taking one core model's error, with no
    # core state built; the accepted run takes probabilities in packed
    # order, then in the chosen order, and a fixed delta takes one error
    spec = GaussianSpec(n_qubits=8, alpha=0.99, gate_error=1e-5)
    rep = estimate(spec, target_error=1e-5, seed=2)
    packed = tuple(range(len(rep.ordering)))
    probes = model_calls.count(("error",))
    assert probes == 4 <= 6
    assert model_calls == [("build",)] + [("error",)] * probes + [
        ("probs", packed), ("probs", rep.ordering)]
    model_calls.clear()
    rep = estimate(spec, seed=2)
    assert model_calls == [("build",), ("error",), ("probs", packed),
                           ("probs", rep.ordering)]


@pytest.mark.parametrize("order, passes", [("optimal", 2), ("identity", 1),
                                           ("random", 1)])
def test_estimate_probability_passes_per_order(model_calls, order, passes):
    # only the optimal order reads the packed-order pass; the identity
    # order's answer is that pass, and a random order skips it
    spec = GaussianSpec(n_qubits=8, alpha=0.99, gate_error=1e-5)
    rep = estimate(spec, seed=2, order=order)
    probs = [call for call in model_calls if call[0] == "probs"]
    assert len(probs) == passes
    assert probs[-1] == ("probs", rep.ordering)


def test_search_probes_build_no_gates_circuits_or_noise_dicts(monkeypatch):
    # a probe is array operations on the table read once per estimate, so
    # the Gates and LayeredCircuits an estimate builds do not grow with its
    # probes (4 here), and no probe draws a noise dict
    built = collections.Counter()
    for cls in (Gate, LayeredCircuit):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def no_dict(*args):
        raise AssertionError("a probe drew a noise dict")

    monkeypatch.setattr(simulator, "realize_noise", no_dict)
    spec = GaussianSpec(n_qubits=8, alpha=0.99)
    rep = estimate(spec, target_error=1e-5, seed=2)
    searched = dict(built)
    built.clear()
    estimate(dataclasses.replace(spec, gate_error=rep.delta), seed=2)
    assert searched == dict(built) and searched["Gate"] > 0


def test_estimate_unreachable_target_builds_one_state(model_calls,
                                                      monkeypatch):
    deltas = []
    packed_run = resources._packed_run

    def recording(table, delta, *args):
        deltas.append(delta)
        return packed_run(table, delta, *args)

    monkeypatch.setattr(resources, "_packed_run", recording)
    spec = GaussianSpec(n_qubits=8, alpha=0.99)
    with pytest.raises(ParameterError,
                       match="unreachable even at delta=1e-15"):
        estimate(spec, target_error=1e-30, seed=2)
    assert deltas == [1e-15]
    assert model_calls == [("build",), ("error",)]


def _bisection_search(table, target_error, seed, alloc):
    """The oracle: 14 halvings of [-15, log10 0.05] in log10 delta, keeping
    the run at the largest midpoint that met the target."""
    lo, hi = -15.0, math.log10(0.05)
    accepted = resources._packed_run(table, 10.0 ** lo, seed, alloc)
    assert accepted.eps <= target_error
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        run = resources._packed_run(table, 10.0 ** mid, seed, alloc)
        if run.eps <= target_error:
            lo, accepted = mid, run
        else:
            hi = mid
    return accepted


_CORNER = 1 - 1e-10


# the first five noise seeds of the benchmark's bisect workload, seed 11
_BENCH_SEEDS = (693047345, 434630808, 500485737, 1980404187, 1871419219)


@pytest.mark.parametrize("n, alpha, target, noise_seed", [
    (19, _CORNER, 1e-10, 3),  # criterion 8b
    (12, 1 - 1e-6, 1e-6, 7),  # the three criterion-9 calls
    (16, 1 - 1e-8, 1e-8, 7),
    (19, _CORNER, 1e-10, 7),
    *[(19, _CORNER, 1e-10, noise_seed) for noise_seed in _BENCH_SEEDS],
])
def test_estimate_search_equals_bisection(monkeypatch, n, alpha, target,
                                          noise_seed):
    spec = GaussianSpec(n_qubits=n, alpha=alpha)
    packed_run, probes = resources._packed_run, []

    def counting(*args):
        probes.append(args[1])
        return packed_run(*args)

    monkeypatch.setattr(resources, "_packed_run", counting)
    rep = estimate(spec, target_error=target, seed=noise_seed)
    # a converged secant is confirmed in one probe on the bench seeds
    assert noise_seed not in _BENCH_SEEDS or len(probes) <= 4
    monkeypatch.setattr(resources, "_packed_run", packed_run)
    monkeypatch.setattr(resources, "_search_delta", _bisection_search)
    assert estimate(spec, target_error=target, seed=noise_seed) == rep


def test_grid_points_are_the_bisection_midpoints():
    # every path of 14 halvings ends its lo on the grid point whose bits
    # are the path's accept decisions, as the same float
    rng = np.random.default_rng(5)
    top = 1 << resources._GRID_BITS
    assert resources._grid_log_delta(0) == -15.0
    assert resources._grid_log_delta(top) == math.log10(0.05)
    for k in [top - 1, top // 2, 1, *rng.integers(0, top, size=200)]:
        lo, hi = -15.0, math.log10(0.05)
        for bit in range(13, -1, -1):
            mid = 0.5 * (lo + hi)
            if int(k) >> bit & 1:
                lo = mid
            else:
                hi = mid
        assert resources._grid_log_delta(int(k)) == lo
    points = [resources._grid_log_delta(k) for k in range(top + 1)]
    assert all(a < b for a, b in zip(points, points[1:]))


def _index_bisection(eps_at, target_error):
    """The oracle on grid indices: the bisection's 14 halvings of
    [0, 2**14], with eps_at(0) known to meet the target."""
    lo, hi = 0, 1 << resources._GRID_BITS
    for _ in range(resources._GRID_BITS):
        mid = (lo + hi) // 2
        if eps_at(mid) <= target_error:
            lo = mid
        else:
            hi = mid
    return lo


# each halving of the bracket costs at most three probes, plus k = 0
_PROBE_BOUND = 3 * 14 + 1


@st.composite
def _step_errors(draw, monotone):
    """An error function of the grid index: a power of delta plus a jump at
    each of a few breakpoints (upward only when ``monotone``), and a
    target between its extremes."""
    top = 1 << resources._GRID_BITS
    power = draw(st.floats(0.0 if monotone else -2.0, 3.0))
    offset = draw(st.floats(-5.0, 5.0))
    cuts = draw(st.lists(st.integers(1, top - 1), max_size=8))
    jump = st.floats(0.0 if monotone else -3.0, 3.0)
    jumps = [(cut, draw(jump)) for cut in sorted(cuts)]
    zeros = set() if monotone else set(draw(st.lists(st.integers(0, top - 1),
                                                     max_size=4)))

    def eps_at(k):
        if k in zeros:
            return 0.0
        level = offset + power * resources._grid_log_delta(k)
        level += sum(size for cut, size in jumps if cut <= k)
        return 10.0 ** level

    levels = [math.log10(eps) for eps in map(eps_at, (0, top // 2, top - 1))
              if eps > 0.0] or [0.0]
    target = 10.0 ** draw(st.floats(min(levels) - 0.3, max(levels) + 0.3))
    return eps_at, target


def _probed(eps_at):
    probes = []

    def recording(k):
        probes.append(k)
        return eps_at(k)

    return recording, probes


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(case=_step_errors(monotone=True))
def test_grid_search_equals_bisection_on_monotone_errors(case):
    eps_at, target = case
    assume(eps_at(0) <= target)
    recording, probes = _probed(eps_at)
    k = resources._grid_search(recording, target)
    assert k == _index_bisection(eps_at, target)
    assert len(probes) <= _PROBE_BOUND


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(case=_step_errors(monotone=False))
def test_grid_search_brackets_any_error(case):
    eps_at, target = case
    recording, probes = _probed(eps_at)
    if eps_at(0) > target:
        with pytest.raises(ParameterError):
            resources._grid_search(recording, target)
        assert probes == [0]
        return
    k = resources._grid_search(recording, target)
    top = 1 << resources._GRID_BITS
    assert eps_at(k) <= target
    assert k + 1 == top or eps_at(k + 1) > target
    assert len(probes) == len(set(probes)) <= _PROBE_BOUND
    assert probes[0] == 0 and top not in probes


def _power_error(answer, target):
    """A power of delta, eps = target * (delta / delta*)**0.5, with delta*
    between grid points ``answer`` and ``answer`` + 1: the error approaches
    the target from below, more slowly than the first secant step's slope
    1 assumes."""
    x_target = 0.5 * (resources._grid_log_delta(answer)
                      + resources._grid_log_delta(answer + 1))
    return lambda k: target * 10.0 ** (
        0.5 * (resources._grid_log_delta(k) - x_target))


def test_grid_search_confirms_a_converged_secant_in_one_probe():
    # the first secant undershoots to 2000 and the second lands on the
    # answer, both in the bracket's lower half; after those two stalls the
    # guess is the new lo + 1, which closes the bracket where a midpoint
    # probe (10192) would have cost one more
    eps_at = _power_error(4000, 1e-6)
    recording, probes = _probed(eps_at)
    k = resources._grid_search(recording, 1e-6)
    assert probes == [0, 2000, 4000, 4001]
    assert k == 4000 == _index_bisection(eps_at, 1e-6)


def test_grid_search_continues_when_the_confirming_probe_meets_the_target():
    # the same error up to the secant's answer, then flat at the target up
    # to a jump at 5000: the confirming probe 4001 moves lo without
    # closing the bracket, and the search goes on to the bisection's answer
    power = _power_error(4000, 1e-6)

    def eps_at(k):
        return power(k) if k <= 4000 else 1e-6 if k < 5000 else 1.0

    recording, probes = _probed(eps_at)
    k = resources._grid_search(recording, 1e-6)
    assert probes[:5] == [0, 2000, 4000, 4001, 10192]
    assert k == 4999 == _index_bisection(eps_at, 1e-6)
    assert len(probes) == len(set(probes)) <= _PROBE_BOUND


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
    (13, {"beta": 1.3e-14}, 2.67e-10, 2),  # core 12: exactly one chunk
    (19, {"beta": 1.3e-14}, 2.67e-10, 3),  # six high bits, 64 chunks
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
    state, full_rep = simulate_postselected(layered.to_circuit(), noise=noise)
    eps_full = l2_error(ideal_gaussian(8, 0.995), state.amplitudes)
    assert rep.l2_error == pytest.approx(eps_full, rel=1e-9, abs=1e-14)
    assert full_rep.layer_probs == pytest.approx(rep.layer_probs, abs=1e-12)
