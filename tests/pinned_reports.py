"""The pinned reports: a fixed set of ``estimate`` and ``noiseless_run``
calls whose answers ``test_pinned_reports.py`` compares with the golden
file ``tests/data/pinned_reports.json``.

The set covers acceptance criteria 8a, 8b and 9, the fixed-delta
estimate at n = 16, 19 and 22 in each of the three orders, the
benchmark's ``bisect`` search on its first noise seeds, n = 5..13 under
both allocations, and ``noiseless_run``.  A change that moves a pinned
value on purpose rewrites the file with

    PYTHONPATH=src python tests/pinned_reports.py

and reports each moved field with its old and new value.
"""
from __future__ import annotations

import json
import os

import numpy as np

from gausskit.gates import GaussianSpec
from gausskit.optimizer import qubit_threshold
from gausskit.resources import estimate, noiseless_run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "pinned_reports.json")

# the fixed-delta point of the benchmark's ``ladder`` workload
_LADDER = {"beta": 1.3e-14, "gate_error": 2.67e-10}


def cases() -> list[dict]:
    """Each call of the set: an id, the spec's fields and the keyword
    arguments of ``estimate``, or the (n, alpha) of ``noiseless_run``."""
    out = [
        {"id": "criterion-8a", "spec": {"n_qubits": 22, "beta": 1.3e-14},
         "kwargs": {"target_error": 1e-9, "seed": 3}},
        {"id": "criterion-8b", "spec": {"n_qubits": 19, "alpha": 1 - 1e-10},
         "kwargs": {"target_error": 1e-10, "seed": 3}},
    ]
    for alpha, target in ((1 - 1e-6, 1e-6), (1 - 1e-8, 1e-8),
                          (1 - 1e-10, 1e-10)):
        n = qubit_threshold(alpha, target)
        out.append({"id": f"criterion-9-n{n}",
                    "spec": {"n_qubits": n, "alpha": alpha},
                    "kwargs": {"target_error": target, "seed": 7}})
    for n in (16, 19, 22):
        for order in ("optimal", "identity", "random"):
            out.append({"id": f"ladder-n{n}-{order}",
                        "spec": {"n_qubits": n, **_LADDER},
                        "kwargs": {"seed": 3, "order": order}})
    # the first noise seeds of the benchmark's bisect workload at seed 1
    for seed in np.random.default_rng([1, 1]).integers(0, 2 ** 31,
                                                        size=3).tolist():
        out.append({"id": f"bisect-{seed}",
                    "spec": {"n_qubits": 19, "alpha": 1 - 1e-10},
                    "kwargs": {"target_error": 1e-10, "seed": seed}})
    for n in range(5, 14):
        for alloc in ("2to1", "uniform"):
            out.append({"id": f"small-n{n}-{alloc}",
                        "spec": {"n_qubits": n, "alpha": 1 - 1e-5},
                        "kwargs": {"target_error": 1e-5, "seed": n,
                                   "alloc": alloc}})
    for n in (5, 9, 13, 16, 19, 22):
        out.append({"id": f"noiseless-n{n}", "noiseless": [n, 1 - 1e-8]})
    return out


def run(case: dict) -> dict:
    """The pinned fields of one call's answer."""
    if "noiseless" in case:
        rep, eps = noiseless_run(*case["noiseless"])
        return {"l2_error": eps, "layer_probs": list(rep.layer_probs)}
    rep = estimate(GaussianSpec(**case["spec"]), **case["kwargs"])
    return {"delta": rep.delta, "l2_error": rep.l2_error,
            "layer_probs": list(rep.layer_probs),
            "expected_t_depth": rep.expected_t_depth,
            "ordering": list(rep.ordering), "pruned_gates": rep.pruned_gates}


def main() -> None:
    pinned = [{**case, "report": run(case)} for case in cases()]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(pinned, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
