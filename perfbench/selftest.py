"""Self-test of the benchmark itself (not part of the repository's tests).

    python3 perfbench/selftest.py

Runs every workload at toy size with and without tracing and checks that
the result line carries every metric ``BENCHMARK.json`` names, with its
unit; then feeds each workload's checker a deliberately corrupted output
and requires it to count a failure; then checks the tracer's self-time
arithmetic and that it patches names bound at import.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gausskit  # noqa: E402
from gausskit import optimizer, resources  # noqa: E402
from run import nospan  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_toy(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class ResultLine(unittest.TestCase):
    def check_line(self, workload: str, trace: int) -> None:
        result = run_toy(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for entry in listed:
            got = result["metrics"][entry["name"]]
            self.assertEqual(got["unit"], entry["unit"], entry["name"])
            self.assertIsInstance(got["value"], (int, float), entry["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, entry["name"])

    def test_every_workload_prints_every_metric(self):
        for name in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check_line(name, trace)

    def test_bare_tree_fails_without_result(self):
        import shutil
        import tempfile

        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "files",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Checkers(unittest.TestCase):
    """Each checker passes a real toy output and flags a corrupted one."""

    def toy(self, name: str):
        workload = WORKLOADS[name]
        inputs = workload.inputs(5, toy=True)
        out = workload.run(inputs, 0, nospan)
        self.assertEqual(workload.check(inputs, out), [])
        return workload, inputs, out

    def test_bisect(self):
        workload, inputs, out = self.toy("bisect")
        rep = out.value
        out.value = dataclasses.replace(rep, l2_error=2 * inputs["target"])
        self.assertTrue(workload.check(inputs, out))
        full = workload.inputs(5, toy=False)
        out.value = dataclasses.replace(rep, l2_error=0.5e-10,
                                        expected_t_depth=2000.0)
        self.assertEqual(workload.check(full, out), [])
        out.value = dataclasses.replace(rep, l2_error=0.5e-10,
                                        expected_t_depth=3000.0)
        self.assertTrue(workload.check(full, out))

    def test_ladder(self):
        workload, inputs, out = self.toy("ladder")
        first = out.value[0]
        out.value[0] = dataclasses.replace(first, l2_error=first.l2_error * 1.001)
        self.assertTrue(workload.check(inputs, out))
        probs = (first.layer_probs[0] - 1e-6,) + first.layer_probs[1:]
        out.value[0] = dataclasses.replace(first, layer_probs=probs)
        self.assertTrue(workload.check(inputs, out))

    def test_sweep(self):
        workload, inputs, out = self.toy("sweep")
        one, two = out.value
        out.value = (one, two[:-2] + ("0" if two[-2] != "0" else "1") + two[-1])
        self.assertTrue(workload.check(inputs, out))
        out.value = (one, one)
        self.assertEqual(workload.check(inputs, out), [])

    def test_files(self):
        workload, inputs, out = self.toy("files")
        case, text, loaded, problems, state, rep, exact = out.value

        def corrupted(**changes) -> list[str]:
            fields = dict(case=case, text=text, loaded=loaded,
                          problems=problems, state=state, rep=rep, exact=exact)
            fields.update(changes)
            out.value = tuple(fields.values())
            return workload.check(inputs, out)

        bumped = state.amplitudes.copy()
        bumped[0] += 1e-6
        self.assertTrue(corrupted(state=dataclasses.replace(state, amplitudes=bumped)))
        self.assertTrue(corrupted(text=text + "H q0\n"))
        self.assertTrue(corrupted(problems=["ancilla 9 never measured"]))
        self.assertIsNotNone(exact)
        e_state, e_rep = exact
        e_bumped = e_state.amplitudes.copy()
        e_bumped[-1] += 1e-6
        self.assertTrue(corrupted(exact=(dataclasses.replace(
            e_state, amplitudes=e_bumped), e_rep)))
        self.assertEqual(corrupted(), [])


class TracerArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.02)
            workers = [threading.Thread(target=self.child, args=(tracer,))
                       for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            self.assertFalse(any(w.is_alive() for w in workers))
        outer = tracer.spans[0]
        kids = [s for s in tracer.spans if s.parent is outer]
        self.assertEqual(len(kids), 2)
        union = max(k.end for k in kids) - min(k.start for k in kids)
        own = tracer.self_times()[outer]
        self.assertAlmostEqual(own, (outer.end - outer.start) - union, places=9)
        self.assertGreater(own, 0.015)

    @staticmethod
    def child(tracer: Tracer) -> None:
        with tracer.span("child"):
            time.sleep(0.05)

    def test_install_patches_import_time_bindings_and_restores(self):
        original = optimizer.prune_layered
        self.assertIs(resources.prune_layered, original)
        tracer = Tracer()
        uninstall = tracer.install(gausskit)
        try:
            self.assertIsNot(resources.prune_layered, original)
            self.assertIs(resources.prune_layered, optimizer.prune_layered)
            self.assertIs(gausskit.prune_layered, optimizer.prune_layered)
            spec = gausskit.GaussianSpec(n_qubits=6, alpha=0.99, gate_error=1e-3)
            resources.estimate(spec, seed=1)
        finally:
            uninstall()
        self.assertIs(resources.prune_layered, original)
        self.assertIs(gausskit.prune_layered, original)
        names = {s.name for s in tracer.spans}
        self.assertIn("resources.estimate", names)
        self.assertIn("optimizer.prune_layered", names)
        self.assertTrue(all(not n.split(".")[1].startswith("_") for n in names))
        self.assertTrue(np.isfinite(sum(tracer.self_times().values())))


if __name__ == "__main__":
    unittest.main(verbosity=2)
