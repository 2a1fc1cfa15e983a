"""The pinned reports (``pinned_reports.py``) against their golden file.

delta, the layer order, the pruned count and the layer count compare
exactly.  eps compares within 1e-6 relative, the bound of the
long-double oracle; a noiseless run's eps is rounding, below 1e-15, and
compares within 1e-14 absolute, the bound its own test sets.  ET
compares within 1e-12 relative and each probability within 1e-12.
"""
import json

import pytest

import pinned_reports

with open(pinned_reports.GOLDEN) as f:
    _PINNED = json.load(f)


def test_golden_file_holds_every_case():
    # a case added to or taken from the set without regenerating the file
    assert [{k: v for k, v in case.items() if k != "report"}
            for case in _PINNED] == pinned_reports.cases()


@pytest.mark.parametrize("case", _PINNED, ids=[c["id"] for c in _PINNED])
def test_pinned_report(case):
    want, got = case["report"], pinned_reports.run(case)
    assert len(got["layer_probs"]) == len(want["layer_probs"])
    assert got["layer_probs"] == pytest.approx(want["layer_probs"],
                                               rel=0, abs=1e-12)
    if "noiseless" in case:
        assert got["l2_error"] == pytest.approx(want["l2_error"], rel=0,
                                                abs=1e-14)
        return
    assert got["delta"] == want["delta"]
    assert got["ordering"] == want["ordering"]
    assert got["pruned_gates"] == want["pruned_gates"]
    assert got["l2_error"] == pytest.approx(want["l2_error"], rel=1e-6,
                                            abs=0)
    assert got["expected_t_depth"] == pytest.approx(
        want["expected_t_depth"], rel=1e-12, abs=0)
