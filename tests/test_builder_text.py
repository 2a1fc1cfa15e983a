"""Every builder's exact output: one sha256 per family of the
concatenated ``textio.dumps`` text, which pins element order, qubit
indices and every exponent float.

A change that moves a builder's text on purpose rewrites ``DIGESTS`` with
the dict this command prints:

    PYTHONPATH=src python tests/test_builder_text.py
"""
from __future__ import annotations

import hashlib

import pytest

from gausskit import textio
from gausskit.builders import (build_exponential, build_full_gaussian,
                               build_gaussian_2d, build_half_gaussian,
                               build_poly_phase, layered_full_gaussian)

_SIZES = range(3, 9)
_ALPHAS = (0.5, 0.9, 0.999)
_FORMS = ((1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 2, 1), (3, 0, 5))
FAMILIES = ("phase", "exponential", "half", "full", "layered", "2d",
            "2d-26bit")


def circuits(family: str) -> list:
    """The circuits whose texts ``family``'s digest covers."""
    if family == "phase":
        return [build_poly_phase(n, a, d)
                for n in _SIZES for a in _ALPHAS for d in (1, 2, 3)]
    if family == "exponential":
        return [build_exponential(n, a) for n in _SIZES for a in _ALPHAS]
    if family == "half":
        return [build_half_gaussian(n, a) for n in _SIZES for a in _ALPHAS]
    if family == "full":
        return [build_full_gaussian(n, a) for n in _SIZES for a in _ALPHAS]
    if family == "layered":
        return [layered_full_gaussian(n, a).to_circuit()
                for n in _SIZES for a in _ALPHAS]
    if family == "2d":
        # every split of 2..8 data qubits over the two registers
        return [build_gaussian_2d(n_x, n - n_x, q, a)
                for n in range(2, 9) for n_x in range(1, n)
                for q in _FORMS for a in _ALPHAS]
    if family == "2d-26bit":
        # 26-bit exponents leave no slack for a reordered sum:
        # (log2(23) + 1) + j + k rounds differently from log2(23) + j + k + 1
        return [build_gaussian_2d(1, 26, (1, 0, 23), 0.9)]
    raise KeyError(family)


def digest(family: str) -> str:
    text = "".join(textio.dumps(c) for c in circuits(family))
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    "phase":
        "ce6de23f72bbb48c8b77863e5858589f7d4de65f043da06a49d9ed4a9e5005cb",
    "exponential":
        "3adf750f38d88bc95b9e58be409ceeafc46e0f51e02be5ea5ef06c14f2142bd7",
    "half":
        "58abf06c7e22763b29d42bac829b3e379df1b89c57dac498ec345d5e7392ce54",
    "full":
        "e72ee71a6921e79be376346a3011b17e2a098d3db2d1a17cfa5259ff4600ec0e",
    "layered":
        "b592259aee9c253a1559d5590aad626c1c89c2ce2b29999cde58ca69b8acc9ae",
    "2d":
        "4ab9b64591ecc55b44e288875f73b40d836b6b3f4f8fe9911f664029ef1a134a",
    "2d-26bit":
        "d0ca8a93455f04a4c4f7c9e2b11db1105b0e69e26077c56f984e0b339f9165f8",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_builder_text_is_pinned(family):
    assert digest(family) == DIGESTS.get(family)


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in FAMILIES:
        print(f'    "{name}":\n        "{digest(name)}",')
    print("}")
