"""The benchmark's workloads: seeded inputs, one timed operation, and the
oracle check of its output.

Each workload is a closed loop with one caller: operation ``i`` starts when
operation ``i - 1`` has returned.  ``inputs`` turns the workload seed into
specs and circuits; ``run`` passes only those to gausskit; ``check`` judges
the output against an invariant (a bound, a band, a closed form, a second
backend), never against a number pinned from an earlier run.

``traces_memory`` says whether the traced run starts ``tracemalloc``: it
multiplies the cost of per-gate Python work several times over, so only
the workloads whose memory the trace reports (``bisect``, ``ladder``) pay
it.

``run`` takes ``span``, a context-manager factory.  The untraced loop passes
one that does nothing; the traced loop passes the tracer's, so the
benchmark's own spans (``bench.estimate.n<N>``, ``cli.main``) group the
library calls beneath them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

# modules, not functions: the tracer swaps functions on their modules
from gausskit import (builders, circuit, cli, optimizer, resources, simulator,
                      textio)
from gausskit.gates import GaussianSpec
from gausskit.optimizer import ErrorBudget

TOL = 1e-10


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance after aligning global phase (benchmark's own copy,
    so the check does not rest on the code under test)."""
    ov = np.vdot(a, b)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a - b * np.conj(phase)))


def normalized_power(alpha: float, exponents: np.ndarray) -> np.ndarray:
    amps = np.exp(math.log(alpha) * exponents)
    return amps / np.linalg.norm(amps)


def full_gaussian_oracle(n: int, alpha: float) -> np.ndarray:
    x = np.arange(1 << n, dtype=float)
    return normalized_power(alpha, (x - ((1 << n) - 1) / 2.0) ** 2)


def noise_seeds(rng: np.random.Generator) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=1024)]


def gates_built(n: int) -> int:
    return len(builders.layered_full_gaussian(n, 0.5).to_circuit().gates())


@dataclass
class Outcome:
    """What one operation returned.

    ``value`` is the raw output, kept until it has been checked.  ``units``
    counts the work items behind ``ops_per_s`` (estimate calls,
    grid points or circuits); ``t_depths`` feeds ``expected_t_depth``;
    ``pruned`` and ``built`` feed ``optimizer.pruned_frac``.
    """

    value: object
    units: int
    t_depths: list[float]
    pruned: int = 0
    built: int = 0
    extra: dict = field(default_factory=dict)


class Bisect:
    """Criterion-8 corner: ``estimate(spec, target_error=...)`` at n = 19,
    alpha = 1 - 1e-10, target 1e-10.  Seventeen core simulations per call,
    so the simulator's per-candidate path dominates."""

    name = "bisect"
    traces_memory = True

    def inputs(self, seed: int, toy: bool) -> dict:
        rng = np.random.default_rng([seed, 1])
        if toy:
            n, alpha, target, band = 8, 1 - 1e-4, 1e-4, (1.0, math.inf)
        else:
            n, alpha, target, band = 19, 1 - 1e-10, 1e-10, (1500.0, 2500.0)
        return {"spec": GaussianSpec(n_qubits=n, alpha=alpha), "n": n,
                "target": target, "band": band, "seeds": noise_seeds(rng),
                "built": gates_built(n)}

    def run(self, inp: dict, i: int, span) -> Outcome:
        with span(f"bench.estimate.n{inp['n']}"):
            rep = resources.estimate(inp["spec"], target_error=inp["target"],
                                     seed=inp["seeds"][i % len(inp["seeds"])])
        return Outcome(rep, 1, [rep.expected_t_depth], rep.pruned_gates,
                       inp["built"])

    def check(self, inp: dict, out: Outcome) -> list[str]:
        rep = out.value
        problems = []
        if not rep.l2_error <= inp["target"]:
            problems.append(f"eps {rep.l2_error:.3e} above target {inp['target']:.0e}")
        lo, hi = inp["band"]
        if not lo <= rep.expected_t_depth <= hi:
            problems.append(f"ET {rep.expected_t_depth:.1f} outside {lo:g}..{hi:g}")
        return problems


class Ladder:
    """Fixed-delta ``estimate`` at n = 16, 19 and 22 (beta 1.3e-14, delta
    2.67e-10).  Two core simulations plus ordering per size; the n = 22 core
    state is 32 MB, so this carries the bandwidth regime and peak memory."""

    name = "ladder"
    traces_memory = True
    beta = 1.3e-14
    delta = 2.67e-10

    def inputs(self, seed: int, toy: bool) -> dict:
        rng = np.random.default_rng([seed, 2])
        sizes = (6, 8, 10) if toy else (16, 19, 22)
        return {"specs": [GaussianSpec(n_qubits=n, beta=self.beta,
                                       gate_error=self.delta) for n in sizes],
                "seeds": noise_seeds(rng),
                "built": sum(gates_built(n) for n in sizes)}

    def run(self, inp: dict, i: int, span) -> Outcome:
        seed = inp["seeds"][i % len(inp["seeds"])]
        reports = []
        for spec in inp["specs"]:
            with span(f"bench.estimate.n{spec.n_qubits}"):
                reports.append(resources.estimate(spec, seed=seed))
        return Outcome(reports, len(reports),
                       [r.expected_t_depth for r in reports],
                       sum(r.pruned_gates for r in reports), inp["built"])

    def check(self, inp: dict, out: Outcome) -> list[str]:
        """The smallest size must match the flat post-selected backend run
        on the same pruned circuit, noise and layer order."""
        rep = out.value[0]
        n = rep.n_qubits
        budget = ErrorBudget.two_to_one(rep.delta)
        layered, _ = optimizer.prune_layered(
            builders.layered_full_gaussian(n, rep.alpha), budget)
        noise = simulator.realize_noise(layered.to_circuit().gates(), budget,
                                        np.random.default_rng(rep.seed))
        ordered = layered.with_layers(
            tuple(layered.layers[k] for k in rep.ordering))
        state, flat = simulator.simulate_postselected(ordered.to_circuit(),
                                                      noise=noise)
        eps = l2_distance(full_gaussian_oracle(n, rep.alpha), state.amplitudes)
        problems = []
        if not abs(eps - rep.l2_error) <= 1e-6 * rep.l2_error + 1e-14:
            problems.append(f"n={n}: eps {rep.l2_error:.6e} vs flat {eps:.6e}")
        if (len(flat.layer_probs) != len(rep.layer_probs)
                or not np.allclose(flat.layer_probs, rep.layer_probs,
                                   rtol=0.0, atol=TOL)):
            problems.append(f"n={n}: layer probabilities differ from flat run")
        return problems


class Sweep:
    """In-process ``gausskit sweep`` over a 4 x 4 alpha x delta grid whose
    points stay at n <= 13, once with ``--threads 1`` and once with
    ``--threads 2``.  Per-gate Python work, not vector bandwidth."""

    name = "sweep"
    traces_memory = False

    def inputs(self, seed: int, toy: bool) -> dict:
        rng = np.random.default_rng([seed, 3])
        u = [float(v) for v in rng.uniform(0.0, 0.1, size=4)]
        points = 2 if toy else 4
        a_lo, a_hi = 1 - 10 ** -(2 + u[0]), 1 - 10 ** -((4 if toy else 6) - u[1])
        d_lo, d_hi = 10 ** -(8 - u[2]), 10 ** -(3 + u[3])
        args = ["sweep",
                "--axis", f"alpha={a_lo!r}:{a_hi!r}:{points}:lin",
                "--axis", f"delta={d_lo!r}:{d_hi!r}:{points}:log",
                "--seed", str(int(rng.integers(0, 2 ** 31)))]
        return {"args": args, "points": points * points}

    def run(self, inp: dict, i: int, span) -> Outcome:
        texts, times = [], []
        for threads in (1, 2):
            args = inp["args"] + ["--threads", str(threads)]
            with span("cli.main"):
                t0 = time.perf_counter()
                texts.append(invoke_cli(args))
                times.append(time.perf_counter() - t0)
        rows = list(csv.DictReader(io.StringIO(texts[0])))
        return Outcome(texts, 2 * inp["points"],
                       [float(r["expected_t_depth"]) for r in rows],
                       extra={"sweep_t1_s": times[0], "sweep_t2_s": times[1]})

    def check(self, inp: dict, out: Outcome) -> list[str]:
        one, two = out.value
        problems = []
        if one != two:
            problems.append("--threads 1 and --threads 2 CSVs differ")
        rows = list(csv.reader(io.StringIO(one)))
        if rows[:1] != [cli.CSV_COLUMNS] or len(rows) != inp["points"] + 1:
            problems.append(f"CSV has {len(rows)} lines for {inp['points']} points")
        elif any(int(r[0]) > 13 for r in rows[1:]):
            problems.append("a grid point left the n <= 13 range")
        return problems


def invoke_cli(args: list[str]) -> str:
    """Run the gausskit command line in this process; return its stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main.main(args=args, prog_name="gausskit",
                          standalone_mode=False)
    except SystemExit as exc:
        raise RuntimeError(f"gausskit {args[0]} exited with {exc.code}") from None
    return buf.getvalue()


@dataclass(frozen=True)
class FileCase:
    family: str
    circuit: object
    oracle: np.ndarray


class Files:
    """Circuits of every builder family at n = 4..10 through
    ``textio.dumps`` -> ``loads`` -> ``validate`` -> ``simulate_postselected``
    (plus ``simulate_exact`` for n <= 9) and ``circuit_t_depth``."""

    name = "files"
    traces_memory = False
    families = ("phase3", "exponential", "half", "full", "layered", "2d")
    forms = ((1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 2, 1))
    exact_max_n = 9
    delta = 1e-6

    def inputs(self, seed: int, toy: bool) -> dict:
        rng = np.random.default_rng([seed, 4])
        cases = [self._case(family, n, rng)
                 for n in ((4, 5) if toy else range(4, 11))
                 for family in self.families]
        order = rng.permutation(len(cases))
        return {"cases": [cases[k] for k in order],
                "budget": ErrorBudget.two_to_one(self.delta)}

    def _case(self, family: str, n: int, rng: np.random.Generator) -> FileCase:
        x = np.arange(1 << n, dtype=float)
        alpha = float(rng.uniform(0.9, 0.999))
        if family == "phase3":
            # keep alpha * x**3 within a few turns: at 1e9 radians float64
            # phases carry 1e-7 of rounding, far above the 1e-10 check
            alpha = 8 * math.pi * float(rng.uniform(1, 2)) / ((1 << n) - 1) ** 3
            return FileCase(family, builders.build_poly_phase(n, alpha, 3),
                            np.exp(1j * alpha * x ** 3) / math.sqrt(1 << n))
        if family == "exponential":
            return FileCase(family, builders.build_exponential(n, alpha),
                            normalized_power(alpha, x))
        if family == "half":
            return FileCase(family, builders.build_half_gaussian(n, alpha),
                            normalized_power(alpha, x * x))
        if family == "full":
            return FileCase(family, builders.build_full_gaussian(n, alpha),
                            full_gaussian_oracle(n, alpha))
        if family == "layered":
            return FileCase(family,
                            builders.layered_full_gaussian(n, alpha).to_circuit(),
                            full_gaussian_oracle(n, alpha))
        n_x, n_y = n - n // 2, n // 2
        q = self.forms[int(rng.integers(len(self.forms)))]
        xs = np.arange(1 << n_x, dtype=float)[:, None]
        ys = np.arange(1 << n_y, dtype=float)[None, :]
        form = (q[0] * xs * xs + q[1] * xs * ys + q[2] * ys * ys).reshape(-1)
        return FileCase(family, builders.build_gaussian_2d(n_x, n_y, q, alpha),
                        normalized_power(alpha, form))

    def run(self, inp: dict, i: int, span) -> Outcome:
        case = inp["cases"][i % len(inp["cases"])]
        text = textio.dumps(case.circuit)
        loaded = textio.loads(text)
        problems = circuit.validate(loaded)
        state, rep = simulator.simulate_postselected(loaded)
        exact = (simulator.simulate_exact(loaded)
                 if loaded.data_qubits <= self.exact_max_n else None)
        t_depth = resources.circuit_t_depth(loaded, inp["budget"])
        return Outcome((case, text, loaded, problems, state, rep, exact),
                       1, [t_depth])

    def check(self, inp: dict, out: Outcome) -> list[str]:
        case, text, loaded, problems, state, rep, exact = out.value
        where = f"{case.family} n={loaded.data_qubits}"
        problems = [f"{where}: {p}" for p in problems]
        if textio.dumps(loaded) != text:
            problems.append(f"{where}: dumps(loads(text)) != text")
        err = l2_distance(case.oracle, state.amplitudes)
        if not err <= TOL:
            problems.append(f"{where}: {err:.2e} from its closed form")
        if exact is not None:
            e_state, e_rep = exact
            if not (np.abs(e_state.amplitudes - state.amplitudes).max() <= TOL
                    and len(e_rep.layer_probs) == len(rep.layer_probs)
                    and np.allclose(e_rep.layer_probs, rep.layer_probs,
                                    rtol=0.0, atol=TOL)):
                problems.append(f"{where}: exact and post-selected disagree")
        if not 0.0 < out.t_depths[0] < math.inf:
            problems.append(f"{where}: T-depth {out.t_depths[0]}")
        return problems


WORKLOADS = {w.name: w for w in (Bisect(), Ladder(), Sweep(), Files())}
