"""Expansion of x**d over binary digits.

With x = sum_j 2**j x_j and idempotent bits (x_j**2 == x_j), any monomial
x**d collapses to an integer combination of products over digit subsets:

    x**d = sum_S c_S * prod_{j in S} x_j,   1 <= |S| <= d.

For d=1 the coefficients are the place values 2**j; for d=2 they are 4**j
on singletons and 2**(j+k+1) on pairs.  Degrees above 4 are rejected: the
cost model does not cover rotations with more than two controls.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .gates import ParameterError

MAX_DEGREE = 4


@dataclass(frozen=True)
class MonomialExpansion:
    n_bits: int
    degree: int
    terms: dict[frozenset[int], int]
    # each term as (bit mask of its digit subset, coefficient)
    _masks: tuple[tuple[int, int], ...] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_masks", tuple(
            (sum(1 << j for j in subset), coeff)
            for subset, coeff in self.terms.items()))

    def evaluate(self, x: int) -> int:
        """Direct evaluation of the expansion at integer x (for checking)."""
        return sum(coeff for mask, coeff in self._masks if x & mask == mask)


def monomial_coefficients(n: int, d: int) -> MonomialExpansion:
    """Exact integer coefficients of x**d over n binary digits."""
    if n < 1:
        raise ParameterError("need at least one bit")
    if not (1 <= d <= MAX_DEGREE):
        raise ParameterError(
            f"degree must lie in 1..{MAX_DEGREE} (cost model limit), got {d}")
    # Multiply (sum_j 2**j x_j) together d times, reducing x_j**2 -> x_j
    # by keying on digit subsets.
    terms: dict[frozenset[int], int] = {frozenset(): 1}
    for _ in range(d):
        nxt: dict[frozenset[int], int] = {}
        for subset, coeff in terms.items():
            for j in range(n):
                key = subset | {j}
                nxt[key] = nxt.get(key, 0) + coeff * (1 << j)
        terms = nxt
    return MonomialExpansion(n_bits=n, degree=d, terms=terms)
