"""gausskit benchmark: time to a resource estimate, and where it goes.

    python3 perfbench/run.py --workload {bisect,ladder,sweep,files} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; gausskit is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones listed in ``BENCHMARK.json``, measured with no
tracing; with ``--trace 1`` they are its per-layer ones: the run spends half
its time untraced (the base for ``trace.overhead_frac``) and half with every
public gausskit function wrapped in a span, then writes the spans as JSON
lines and every per-function row under ``.bench_build/perfbench/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""
import time

START = time.perf_counter()  # setup_s counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bisect", "ladder", "sweep", "files")
SETUP_PROBES = 3
SPAN_BUDGET = 200_000  # stop the traced loop early rather than hold more
SHOWN_FAILURES = 5
ENGINE_HINTS = ("simulate", "pipeline", "engine")


def nospan(name):
    return nullcontext()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            print(f"check failed: {message}", file=sys.stderr)


class Phase:
    """Durations and outcomes of the operations that completed."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.outcomes: list = []

    def percentile(self, q: float) -> float:
        if len(self.durations) == 1:
            return self.durations[0]
        return statistics.quantiles(self.durations, n=100,
                                    method="inclusive")[int(q) - 1]


def measure(workload, inputs, budget: float, tally: Tally, span=nospan,
            tracer=None) -> Phase:
    """Closed loop for ``budget`` seconds.  An operation starts only if the
    median so far says it ends in time, and at least one always runs."""
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        expected = statistics.median(phase.durations) if phase.durations else 0.0
        if i and (elapsed + expected > budget
                  or (tracer and len(tracer.spans) > SPAN_BUDGET)):
            return phase
        if tracer:
            tracer.op = i
            tracer.active = True
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = workload.run(inputs, i, span)
            took = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            problems = workload.check(inputs, outcome)
        except Exception:  # a raising operation is a failed one; keep going
            tally.fail(traceback.format_exc())
        else:
            if problems:
                tally.fail("; ".join(problems))
            else:
                outcome.value = None  # keep only the metric inputs
                phase.durations.append(took)
                phase.outcomes.append(outcome)
        i += 1


def end_to_end(phase: Phase, setup: list[float], tally: Tally) -> dict:
    if not phase.durations:
        return {"setup_s": statistics.median(setup),
                "pass_frac": 1.0 - tally.failed / tally.attempted}
    t_depths = [t for out in phase.outcomes for t in out.t_depths]
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(phase.durations),
        "op_p90_s": phase.percentile(90),
        "ops_per_s": (sum(out.units for out in phase.outcomes)
                      / sum(phase.durations)),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "pass_frac": 1.0 - tally.failed / tally.attempted,
        "expected_t_depth": statistics.fmean(t_depths),
    }


def per_layer(tracer, plain: Phase, traced: Phase) -> dict:
    """Every ``<module>.<fn>.calls`` / ``.self_s`` row (per operation),
    ``<module>.self_s``, and the derived layer metrics."""
    ops = max(len({s.op for s in tracer.spans}), 1)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span, own in tracer.self_times().items():
        module = span.name.split(".", 1)[0]
        calls[span.name] += 1
        self_s[span.name] += own
        self_s[module] += own
    rows = {}
    for name in calls:
        rows[f"{name}.calls"] = calls[name] / ops
    for name, total in self_s.items():
        rows[f"{name}.self_s"] = total / ops

    def in_simulator(span) -> bool:
        return span is not None and span.name.startswith("simulator.")

    engines = 0
    peaks = defaultdict(int)
    for span in tracer.spans:
        if not in_simulator(span) or in_simulator(span.parent):
            continue
        fn = span.name.split(".", 1)[1]
        if fn[:1].isupper() or any(h in fn for h in ENGINE_HINTS):
            engines += 1
        outer = span.parent
        while outer is not None and not outer.name.startswith("bench.estimate.n"):
            outer = outer.parent
        if outer is not None:
            n = int(outer.name.rsplit(".n", 1)[1])
            peaks[n] = max(peaks[n], span.peak_bytes)
    for n, peak in peaks.items():
        rows[f"simulator.peak_traced_mb.n{n}"] = peak / 1e6
        # _check_capacity(core, copies=4) on the n - 1 qubit core register
        rows[f"simulator.predicted_mb.n{n}"] = (1 << (n - 1)) * 16 * 4 / 1e6
    estimates = calls.get("resources.estimate", 0)
    rows["simulator.sims_per_estimate"] = engines / estimates if estimates else 0.0
    rows["simulator.noise_draws"] = calls.get("simulator.sample_perturbation", 0) / ops
    built = sum(out.built for out in traced.outcomes)
    rows["optimizer.pruned_frac"] = (
        sum(out.pruned for out in traced.outcomes) / built if built else 0.0)
    for key in ("sweep_t1_s", "sweep_t2_s"):
        values = [out.extra[key] for out in plain.outcomes if key in out.extra]
        if values:
            rows[f"cli.{key}"] = statistics.median(values)
    if plain.durations and traced.durations:
        rows["trace.overhead_frac"] = (statistics.median(traced.durations)
                                       / statistics.median(plain.durations) - 1.0)
    rows["trace.ops"] = float(len(traced.durations))
    return rows


def probe_setup(args) -> None:
    """Import gausskit and warm the workload's code path on toy inputs."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS as TABLE

    workload = TABLE[args.workload]
    workload.run(workload.inputs(args.seed, toy=True), 0, nospan)
    print(json.dumps({"setup_s": time.perf_counter() - START}))


def run_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: setup probe exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def report(spec: dict, metrics: dict, tally: Tally, layers: bool,
           samples: int) -> None:
    listed = spec["per_layer"] if layers else spec["end_to_end"]
    print(f"{'timed operations':>48} {samples:>24}")
    out = {}
    for entry in listed:
        value = metrics.get(entry["name"], None if not layers else 0.0)
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:>48} {value!r:>24} {entry['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs, for the self-test")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "gausskit", "__init__.py")):
        print(f"error: no gausskit sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    setup = [run_probe(args) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, SRC)
    import gausskit
    from spans import Tracer
    from workloads import WORKLOADS as TABLE

    workload = TABLE[args.workload]
    workload.run(workload.inputs(args.seed, toy=True), 0, nospan)
    inputs = workload.inputs(args.seed, args.toy)
    tally = Tally()
    if not args.trace:
        plain = measure(workload, inputs, args.seconds, tally)
        report(spec, end_to_end(plain, setup, tally), tally, layers=False,
               samples=len(plain.durations))
        return 0

    plain = measure(workload, inputs, args.seconds / 2, tally)
    tracer = Tracer()
    if workload.traces_memory:
        tracemalloc.start()
    uninstall = tracer.install(gausskit)
    try:
        traced = measure(workload, inputs, args.seconds / 2, tally,
                         span=tracer.span, tracer=tracer)
    finally:
        uninstall()
        tracemalloc.stop()  # a no-op when it never started
    rows = per_layer(tracer, plain, traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    tracer.write_jsonl(stem + ".spans.jsonl")
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(rows.items())), fh, indent=1)
    report(spec, rows, tally, layers=True, samples=len(traced.durations))
    return 0


if __name__ == "__main__":
    sys.exit(main())
