import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gausskit import resources, simulator, textio
from gausskit.builders import layered_full_gaussian
from gausskit.circuit import validate
from gausskit.cli import FAMILIES, main
from gausskit.gates import GateKind, GaussianSpec


@pytest.fixture
def runner():
    return CliRunner()


def test_generate_layered_gaussian_validates(runner, tmp_path):
    out = tmp_path / "circuit.txt"
    result = runner.invoke(main, ["generate", "--family", "gaussian",
                                  "--n", "6", "--alpha", "0.9", "--layered",
                                  "--out", str(out)])
    assert result.exit_code == 0
    circuit = textio.load(str(out))
    assert validate(circuit) == []
    assert circuit.ancilla_qubits == 2


def test_generate_phase_line_counts(runner):
    result = runner.invoke(main, ["generate", "--family", "phase", "--n", "5",
                                  "--d", "2", "--alpha", "0.3"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    z_plain = [l for l in lines if l.startswith("Z ") and "c" not in l]
    z_ctrl = [l for l in lines if l.startswith("Z ") and "c" in l]
    assert len(z_plain) == 5
    assert len(z_ctrl) == 10


def test_generate_gaussian2d_cross_lines(runner):
    result = runner.invoke(main, ["generate", "--family", "gaussian2d",
                                  "--n", "3,3", "--q", "1,1,1",
                                  "--alpha", "0.9"])
    assert result.exit_code == 0
    circuit = textio.loads(result.output)
    x0 = 3
    cross = [g for g in circuit.gates()
             if g.kind is GateKind.B
             and len({q >= x0 for q in (c.qubit for c in g.controls)}) == 2]
    assert cross


def test_generate_usage_error_exit_2(runner):
    result = runner.invoke(main, ["generate", "--family", "phase"])
    assert result.exit_code == 2


def test_simulate_noiseless_gaussian(runner):
    result = runner.invoke(main, ["simulate", "--n", "6", "--alpha", "0.9"])
    assert result.exit_code == 0
    eps_line = [l for l in result.output.splitlines() if "epsilon" in l][0]
    assert float(eps_line.split()[-1]) <= 1e-10


def test_simulate_half_gaussian_file_gamma(runner, tmp_path):
    out = tmp_path / "half.txt"
    runner.invoke(main, ["generate", "--family", "half-gaussian", "--n", "3",
                         "--alpha", "0.8", "--out", str(out)])
    result = runner.invoke(main, ["simulate", str(out), "--family",
                                  "half-gaussian"])
    assert result.exit_code == 0
    gamma = float([l for l in result.output.splitlines()
                   if l.startswith("gamma")][0].split()[-1])
    closed = (sum(0.8 ** (2 * x * x) for x in range(8)) / 8) ** 0.5
    assert gamma == pytest.approx(closed, rel=1e-10)


def test_simulate_parse_error_exit_3(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("QUBITS data=2 ancilla=0 alpha=0.5\nWAT q0\n")
    result = runner.invoke(main, ["simulate", str(bad)])
    assert result.exit_code == 3


@pytest.mark.parametrize("text, line", [
    # a window whose ancilla is never measured
    ("QUBITS data=2 ancilla=1 alpha=0.5\n# window\n\nH q0\nB 1 q2 c0 c1\n", 5),
    # a second window on an ancilla not measured since the first
    ("QUBITS data=2 ancilla=1 alpha=0.5\nH q0\nB 1 q2 c0\nB 2 q2 c0\n"
     "MEASURE a0\n", 4),
    # alpha outside (0, 1) in a Clifford-only file
    ("QUBITS data=2 ancilla=0 alpha=1.5\nH q0\n", 1),
    # a gate beyond the register
    ("QUBITS data=2 ancilla=0 alpha=0.5\n\nH q0\n# top\nH q7\n", 5),
    # negative register sizes
    ("QUBITS data=-3 ancilla=0 alpha=0.5\n", 1),
    ("QUBITS data=2 ancilla=-1 alpha=0.5\nH q0\n", 1),
    # an empty data register
    ("QUBITS data=0 ancilla=0 alpha=0.5\n", 1),
    # numbers dumps would rewrite: digit separators, a leading +,
    # non-ASCII digits
    ("QUBITS data=2 ancilla=1 alpha=0.5\nH q0\nB 1_0 q2 c0 c1\nMEASURE a0\n",
     3),
    ("QUBITS data=2 ancilla=1 alpha=0.5\nB +1 q2 c0 c1\nMEASURE a0\n", 2),
    ("QUBITS data=2 ancilla=1 alpha=0.5\nB 1 q2 c0 c1\nMEASURE a+0\n", 3),
    ("QUBITS data=2 ancilla=0 alpha=0.5\n\nH q\u0661\n", 3),
    ("QUBITS data=2 ancilla=1 alpha=0.5\nB \u0661 q2 c0 c1\nMEASURE a0\n",
     2),
    ("QUBITS data=\u0662 ancilla=0 alpha=0.5\nH q0\n", 1),
    ("QUBITS data=2 ancilla=+0 alpha=0.5\nH q0\n", 1),
    ("QUBITS data=1_0 ancilla=0 alpha=0.5\nH q0\n", 1),
], ids=["unmeasured-ancilla", "reused-ancilla", "alpha-range", "qubit-range",
        "negative-data", "negative-ancilla", "empty-data", "exponent-separator",
        "exponent-plus", "measure-plus", "target-arabic-digit",
        "exponent-arabic-digit", "data-arabic-digit", "ancilla-plus",
        "data-separator"])
def test_simulate_invalid_file_exit_3(runner, tmp_path, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["simulate", str(bad)])
    assert result.exit_code == 3
    assert f"line {line}:" in result.output


@pytest.mark.parametrize("args", [
    ["generate", "--family", "gaussian2d", "--n", "3,3", "--alpha", "0.9",
     "--q", "1,x,1"],
    ["simulate", "--n", "6", "--alpha", "0.9", "--q", "1,x,1"],
    ["generate", "--family", "gaussian", "--n", "4,9", "--alpha", "0.9"],
], ids=["generate-q", "simulate-q", "generate-n-count"])
def test_bad_integer_list_usage_error_exit_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Usage:" in result.output


FAMILY_ARGS = {
    "phase": ["--n", "4", "--d", "2", "--alpha", "0.3"],
    "exponential": ["--n", "5", "--alpha", "0.6"],
    "half-gaussian": ["--n", "4", "--alpha", "0.8"],
    "gaussian": ["--n", "6", "--alpha", "0.9"],
    "gaussian2d": ["--n", "3,3", "--q", "1,1,1", "--alpha", "0.9"],
}


@pytest.mark.parametrize("family, extra",
                         [(f, []) for f in FAMILIES]
                         + [("gaussian", ["--layered"])],
                         ids=[*FAMILIES, "gaussian-layered"])
def test_generated_file_matches_family_target(runner, tmp_path, family, extra):
    path = tmp_path / "circuit.txt"
    args = FAMILY_ARGS[family]
    gen = runner.invoke(main, ["generate", "--family", family, *args, *extra,
                               "--out", str(path)])
    assert gen.exit_code == 0
    result = runner.invoke(main, ["simulate", str(path), "--family", family,
                                  *args])
    assert result.exit_code == 0
    eps_line = [l for l in result.output.splitlines() if "epsilon" in l][0]
    assert float(eps_line.split()[-1]) <= 1e-10


@pytest.mark.parametrize("family", list(FAMILIES))
def test_generate_rejects_alpha_outside_unit_interval(runner, family):
    args = list(FAMILY_ARGS[family])
    args[args.index("--alpha") + 1] = "1.5"
    result = runner.invoke(main, ["generate", "--family", family, *args])
    assert result.exit_code == 2
    assert "alpha must lie in (0, 1)" in result.output


@pytest.mark.parametrize("split", ["2,3", "3,2"])
def test_gaussian2d_file_takes_its_split_from_n(runner, tmp_path, split):
    path = tmp_path / "g2d.txt"
    args = ["--n", split, "--q", "2,1,1", "--alpha", "0.9"]
    gen = runner.invoke(main, ["generate", "--family", "gaussian2d", *args,
                               "--out", str(path)])
    assert gen.exit_code == 0
    result = runner.invoke(main, ["simulate", str(path), "--family",
                                  "gaussian2d", *args])
    assert result.exit_code == 0
    eps_line = [l for l in result.output.splitlines() if "epsilon" in l][0]
    assert float(eps_line.split()[-1]) <= 1e-10


@pytest.mark.parametrize("args", [
    ["--family", "gaussian2d", "--q", "2,1,1"],
    ["--family", "gaussian2d", "--n", "3,3", "--q", "2,1,1"],
    ["--n", "7"],
    ["--alpha", "0.5"],
    ["--beta", "0.1"],
], ids=["2d-no-split", "2d-wrong-sum", "n-wrong-sum", "alpha-mismatch",
        "beta"])
def test_simulate_file_rejects_options_the_file_fixes(runner, tmp_path, args):
    # a 5-qubit file with header alpha 0.9
    path = tmp_path / "g2d.txt"
    runner.invoke(main, ["generate", "--family", "gaussian2d", "--n", "2,3",
                         "--q", "2,1,1", "--alpha", "0.9", "--out", str(path)])
    row = tmp_path / "row.csv"
    result = runner.invoke(main, ["simulate", str(path), *args,
                                  "--out", str(row)])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert not row.exists()


def _epsilon(output: str) -> float:
    return float([l for l in output.splitlines() if "epsilon" in l][0].split()[-1])


@pytest.fixture
def layered_file(runner, tmp_path):
    path = tmp_path / "g6.txt"
    runner.invoke(main, ["generate", "--family", "gaussian", "--n", "6",
                         "--alpha", "0.9", "--layered", "--out", str(path)])
    return str(path)


def test_simulate_file_with_delta_draws_noise_from_seed(runner, layered_file):
    base = ["simulate", layered_file, "--family", "gaussian"]
    clean = runner.invoke(main, base)
    runs = [runner.invoke(main, base + ["--delta", "1e-4", *seed])
            for seed in ([], ["--seed", "0"], ["--seed", "9"])]
    assert [r.exit_code for r in runs] == [0, 0, 0]
    assert runs[0].output == runs[1].output  # --seed defaults to 0
    assert runs[1].output != runs[2].output  # the seed draws the noise
    assert _epsilon(clean.output) <= 1e-10 < _epsilon(runs[0].output)


def test_simulate_noisy_spec_takes_order_alloc_seed(runner):
    base = ["simulate", "--n", "7", "--alpha", "0.95", "--delta", "1e-5"]
    default = runner.invoke(main, base)
    given = runner.invoke(main, base + ["--order", "optimal", "--alloc",
                                        "2to1", "--seed", "0"])
    other = runner.invoke(main, base + ["--order", "identity", "--alloc",
                                        "uniform", "--seed", "5"])
    assert [r.exit_code for r in (default, given, other)] == [0, 0, 0]
    assert default.output == given.output
    assert other.output != default.output


@pytest.mark.parametrize("use_file, extra", [
    (True, ["--order", "random", "--delta", "1e-4"]),
    (True, ["--seed", "9"]),
    (True, ["--alloc", "uniform"]),
    (False, ["--order", "optimal"]),
    (False, ["--alloc", "2to1"]),
    (False, ["--seed", "0"]),
], ids=["file-order", "file-seed", "file-alloc", "spec-order", "spec-alloc",
        "spec-seed"])
def test_simulate_rejects_options_the_branch_ignores(runner, layered_file,
                                                     use_file, extra):
    source = [layered_file] if use_file else ["--n", "6", "--alpha", "0.9"]
    result = runner.invoke(main, ["simulate", *source, *extra])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert extra[0] in result.output


@pytest.mark.parametrize("command, option", [
    ("simulate --n 6 --alpha 0.9 --family gaussian", "--family"),
    ("simulate --n 6 --alpha 0.9 --d 2", "--d"),
    ("simulate --n 6 --alpha 0.9 --q 1,0,1", "--q"),
    ("simulate --n 6 --alpha 0.9 --ideal finite", "--ideal"),
    ("simulate {gaussian} --d 2", "--d"),
    ("simulate {gaussian} --q 1,0,1", "--q"),
    ("simulate {gaussian} --ideal infinite", "--ideal"),
    ("simulate {phase} --family phase --d 2 --ideal finite", "--ideal"),
    ("simulate {exponential} --family exponential --ideal infinite",
     "--ideal"),
    ("simulate {gaussian2d} --family gaussian2d --n 3,3 --q 1,1,1 "
     "--ideal finite", "--ideal"),
    ("simulate {gaussian} --family gaussian --d 2", "--d"),
    ("generate --family gaussian --n 6 --alpha 0.9 --d 2", "--d"),
    ("generate --family gaussian --n 6 --alpha 0.9 --q 1,0,1", "--q"),
    ("generate --family phase --n 4 --alpha 0.3 --q 1,1,1", "--q"),
    ("generate --family half-gaussian --n 4 --alpha 0.9 --layered",
     "--layered"),
    ("simulate --n 6 --alpha 0.9 --delta 1e-5 --seed -1", "--seed"),
    ("sweep --n 6 --alpha 0.9 --delta 1e-5 --seed -1", "--seed"),
], ids=["spec-family", "spec-d", "spec-q", "spec-ideal", "file-d", "file-q",
        "file-ideal", "phase-ideal", "exponential-ideal", "gaussian2d-ideal",
        "gaussian-d", "generate-gaussian-d", "generate-gaussian-q",
        "generate-phase-q", "generate-half-layered", "simulate-seed",
        "sweep-seed"])
def test_options_a_branch_never_reads_exit_2(runner, tmp_path, command,
                                             option):
    files = {}
    for family, args in FAMILY_ARGS.items():
        if "{%s}" % family in command:
            files[family] = str(tmp_path / f"{family}.txt")
            gen = runner.invoke(main, ["generate", "--family", family, *args,
                                       "--out", files[family]])
            assert gen.exit_code == 0
    result = runner.invoke(main, shlex.split(command.format(**files)))
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert f"'{option}'" in result.output


def test_sweep_trials_draw_distinct_seeds(runner):
    # trial 0 keeps seed ^ grid_index; later trials move past every point
    result = runner.invoke(main, ["sweep", "--axis", "delta=1e-5:1e-4:2",
                                  "--alpha", "0.99", "--n", "6",
                                  "--trials", "2", "--seed", "0"])
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()[1:]
    assert [int(r.split(",")[-1]) for r in rows] == [0, 2, 1, 3]


@pytest.mark.parametrize("args", [
    ["generate", "--family", "gaussian", "--n", "6"],
    ["simulate", "--n", "6"],
    ["sweep", "--n", "6", "--delta", "1e-5"],
], ids=["generate", "simulate", "sweep"])
def test_alpha_with_beta_usage_error_exit_2(runner, args):
    result = runner.invoke(main, [*args, "--alpha", "0.9", "--beta", "0.5"])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "not both" in result.output


@pytest.mark.parametrize("args", [
    ["--axis", "delta=1e-6:1e-5:2", "--delta", "0.3", "--alpha", "0.99"],
    ["--axis", "alpha=0.9:0.99:2", "--alpha", "0.95", "--delta", "1e-5"],
    ["--axis", "beta=0.1:0.2:2", "--beta", "0.3", "--n", "5",
     "--delta", "1e-5"],
    ["--axis", "n=5:6:2:lin", "--n", "6", "--alpha", "0.99"],
    ["--axis", "n=5:7:3:lin", "--axis", "n=5:7:2:lin", "--alpha", "0.99"],
    ["--couple-alpha", "--alpha", "0.9"],
    ["--couple-alpha", "--beta", "0.1", "--n", "5"],
    ["--couple-alpha", "--axis", "alpha=0.9:0.99:2"],
    ["--couple-alpha", "--axis", "beta=0.1:0.2:2", "--n", "5"],
    ["--trials", "0", "--alpha", "0.99"],
    ["--threads", "0", "--alpha", "0.99"],
], ids=["delta-axis", "alpha-axis", "beta-axis", "n-axis", "same-axis-twice",
        "couple-alpha", "couple-beta", "couple-alpha-axis", "couple-beta-axis",
        "trials-0", "threads-0"])
def test_sweep_rejects_options_it_would_ignore(runner, args):
    result = runner.invoke(main, ["sweep", *args])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "n_qubits" not in result.output


def test_readme_cli_examples_run(runner, tmp_path, monkeypatch):
    # every `gausskit ...` line of README's CLI block, in order
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(l)[1:] for l in lines if l.startswith("gausskit ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        if (args[0] == "simulate" and not args[1].startswith("-")
                and "--family" in args):
            eps_line = [l for l in result.output.splitlines()
                        if "epsilon" in l][0]
            assert float(eps_line.split()[-1]) <= 1e-10, args


def test_simulate_capacity_exit_4(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", "1")
    result = runner.invoke(main, ["simulate", "--n", "18",
                                  "--alpha", "0.9999999"])
    assert result.exit_code == 4


@pytest.mark.parametrize("value", ["abc", "nan", "-5", "0"])
def test_malformed_memory_limit_exits_2(runner, layered_file, monkeypatch,
                                        value):
    # a cap that is not a finite positive number of MB is never ignored:
    # every branch that checks capacity exits 2 and names the variable
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", value)
    spec = ["--n", "6", "--alpha", "0.9"]
    for args in (["simulate", *spec], ["simulate", *spec, "--delta", "1e-6"],
                 ["simulate", layered_file],
                 ["sweep", *spec, "--delta", "1e-6"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert f"GAUSSKIT_MEM_LIMIT_MB={value!r}" in result.output


@pytest.mark.parametrize("n, option, value", [
    (6, "alpha", 0.9), (12, "alpha", 0.999999), (16, "alpha", 0.99999),
    (10, "beta", 0.01)], ids=["n6", "n12", "n16", "beta"])
def test_noiseless_spec_run_matches_flat_oracle(runner, monkeypatch, tmp_path,
                                                n, option, value):
    # the core-register run against the flat engine on all n qubits; the
    # CSV row carries gamma at full precision, and the spy the
    # probabilities the report prints
    probs, seen = simulator.GaussianLayerModel.probs, []

    def spy(self, order):
        seen.append(probs(self, order))
        return seen[-1]

    monkeypatch.setattr(simulator.GaussianLayerModel, "probs", spy)
    row = tmp_path / "row.csv"
    result = runner.invoke(main, ["simulate", "--n", str(n),
                                  f"--{option}", str(value), "--out", str(row)])
    assert result.exit_code == 0
    alpha = GaussianSpec(n_qubits=n, **{option: value}).derived_alpha
    _, flat = simulator.simulate_postselected(
        layered_full_gaussian(n, alpha).to_circuit())
    fields = row.read_text().splitlines()[1].split(",")
    assert float(fields[4]) == pytest.approx(flat.subnormalization,
                                             rel=0, abs=1e-12)
    assert int(fields[6]) == len(flat.layer_probs) == len(seen[0])
    np.testing.assert_allclose(seen[0], flat.layer_probs, rtol=0, atol=1e-10)
    assert _epsilon(result.output) <= 1e-14


def test_noiseless_spec_run_capacity_is_the_core_register(runner, monkeypatch):
    # n = 16 needs no state of its 15 core bits: with b = 12 low bits and
    # h = 3 high bits, the real ideal form (4 * 2**12 + 8 floats), the
    # complex scratch (a form, 3 columns of 2**12 and the sums' 4 + 2 rows
    # of 2**12 and 8 products), a probe's 22 * 2**12 + 128 floats and
    # numpy's fixed ufunc buffers (1.97 MB), not the two 16-bit states of
    # a flat run (2.36 MB)
    form = 4 * 4096 + 8
    floats = form + 2 * (form + 3 * 4096 + 6 * 4096 + 8) + 22 * 4096 + 128
    need_mb = (floats * 8 + 2 * 8192 * 16 + 4096) / 1e6
    args = ["simulate", "--n", "16", "--alpha", "0.9999999"]
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 1.01))
    assert runner.invoke(main, args).exit_code == 0
    monkeypatch.setenv("GAUSSKIT_MEM_LIMIT_MB", repr(need_mb * 0.99))
    tracemalloc.start()
    try:
        assert runner.invoke(main, args).exit_code == 4
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 15) * 16 / 4  # refused before the table's arrays


def test_runs_whose_windows_are_all_pruned(runner):
    # at alpha = 0.99999 and n = 4, these deltas prune every window: the
    # run has no layers to order, and the sweep keeps its whole grid
    sim = runner.invoke(main, ["simulate", "--n", "4", "--alpha", "0.99999",
                               "--delta", "1e-3"])
    assert sim.exit_code == 0
    sweep = runner.invoke(main, ["sweep", "--n", "4", "--alpha", "0.99999",
                                 "--axis", "delta=1e-4:1e-2:3"])
    assert sweep.exit_code == 0
    rows = [r.split(",") for r in sweep.output.strip().splitlines()[1:]]
    assert [int(r[6]) for r in rows] == [0, 0, 0]


def test_simulate_deterministic_under_seed(runner):
    args = ["simulate", "--n", "7", "--alpha", "0.95", "--delta", "1e-5",
            "--seed", "9"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_sweep_csv_deterministic(runner, tmp_path):
    args = ["sweep", "--axis", "delta=1e-5:1e-4:3:log", "--alpha", "0.99",
            "--seed", "5", "--trials", "2"]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.exit_code == 0
    assert r1.output == r2.output
    lines = r1.output.strip().splitlines()
    assert lines[0].startswith("n_qubits,")
    assert len(lines) == 1 + 3 * 2


def test_sweep_threads_do_not_change_results(runner):
    base = ["sweep", "--axis", "delta=1e-5:1e-4:4:log", "--alpha", "0.99",
            "--seed", "3"]
    r1 = runner.invoke(main, base + ["--threads", "1"])
    r4 = runner.invoke(main, base + ["--threads", "4"])
    assert r1.output == r4.output


@pytest.mark.parametrize("threads", ["2", "4"])
def test_sweep_runs_every_point_on_the_calling_thread(runner, monkeypatch,
                                                      threads):
    seen = []
    estimate = resources.estimate

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return estimate(*args, **kwargs)

    monkeypatch.setattr(resources, "estimate", recording)
    result = runner.invoke(main, ["sweep", "--axis", "delta=1e-5:1e-4:4:log",
                                  "--alpha", "0.99", "--trials", "2",
                                  "--threads", threads])
    assert result.exit_code == 0
    assert seen == [threading.get_ident()] * 8


def test_degenerate_sweep_matches_simulate(runner):
    # threshold(0.99, 1e-5) = 6, so the sweep runs a 6-qubit point
    sweep = runner.invoke(main, ["sweep", "--axis", "delta=1e-5:1e-5:1",
                                 "--alpha", "0.99", "--seed", "0"])
    sim = runner.invoke(main, ["simulate", "--n", "6", "--alpha", "0.99",
                               "--delta", "1e-5", "--seed", "0"])
    row = sweep.output.strip().splitlines()[1].split(",")
    sim_lines = {l.split(":")[0].strip(): l.split()[-1]
                 for l in sim.output.splitlines()}
    assert int(row[0]) == 6
    # the human-readable report prints 7 significant digits
    assert float(row[3]) == pytest.approx(float(sim_lines["epsilon (L2)"]),
                                          rel=1e-5)
    assert float(row[5]) == pytest.approx(
        float(sim_lines["expected T-depth"]), rel=1e-4)


def test_sweep_refuses_a_threshold_below_three_qubits(runner):
    # alpha 0.3 and 0.4 at delta 1e-2 need one qubit: the spec's bound
    result = runner.invoke(main, ["sweep", "--axis", "alpha=0.3:0.4:2",
                                  "--delta", "1e-2"])
    assert result.exit_code == 2
    assert "need at least 3 qubits, got 1" in result.output


def test_sweep_rejects_three_axes(runner):
    result = runner.invoke(main, ["sweep", "--axis", "delta=1e-5:1e-4:2",
                                  "--axis", "alpha=0.9:0.99:2",
                                  "--axis", "n=4:6:2"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["--axis", "alpha=0.9:0.99:2"], "sweep needs a delta value or axis"),
    (["--axis", "n=5:6:2:lin", "--delta", "1e-5"],
     "sweep needs alpha, beta, or --couple-alpha"),
    (["--axis", "beta=0.1:0.2:2", "--delta", "1e-5"],
     "beta sweeps need an explicit --n"),
    (["--axis", "n=5:6:2:lin", "--couple-alpha"],
     "--couple-alpha needs a delta value or axis"),
], ids=["no-delta", "no-alpha", "beta-without-n", "couple-without-delta"])
def test_sweep_point_without_its_values_exits_2(runner, args, message):
    result = runner.invoke(main, ["sweep", *args])
    assert result.exit_code == 2
    assert message in result.output


_UNMEASURED_WINDOW = """\
QUBITS data=3 ancilla=2 alpha=0.8
H q0
H q1
H q2
B 1 q3 c0 c1
B 2 q4 c1 c2
MEASURE a0
A 0.5 q0
B 1.5 q3 c0 c2
MEASURE a1
MEASURE a0
"""


def test_simulate_file_barrier_leaving_a_window_unmeasured_exits_2(
        runner, tmp_path):
    # the file is valid, but its first barrier leaves the a1 window
    # unmeasured, so the post-selected engine cannot charge that window
    # to one barrier
    path = tmp_path / "late.txt"
    path.write_text(_UNMEASURED_WINDOW)
    assert validate(textio.load(str(path))) == []
    result = runner.invoke(main, ["simulate", str(path)])
    assert result.exit_code == 2
    assert "ancilla [4] unmeasured" in result.output


def test_sweep_couple_alpha(runner):
    result = runner.invoke(main, ["sweep", "--axis", "delta=1e-4:1e-3:2:log",
                                  "--couple-alpha", "--seed", "1"])
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()[1:]
    assert len(rows) == 2
    # alpha column tracks the coupling, so qubit counts vary with delta
    ns = [int(r.split(",")[0]) for r in rows]
    assert ns == sorted(ns, reverse=True)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gausskit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gausskit, sys; sys.exit('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
