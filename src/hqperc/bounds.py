"""Exact integer evaluation of the minimum-percolating-set bounds.

Everything here is big-integer arithmetic; no floating point is involved.
The general lower bound is a rational expression, so its evaluator returns
the ceiling (the minimum set size is an integer); reports describe it as a
ceiled rational bound.
"""

from __future__ import annotations

__all__ = [
    "BoundReport",
    "bound_report",
    "formula_m2",
    "formula_m3",
    "formula_m4",
    "lower_bound",
    "upper_bound_m4",
]

from math import comb
from typing import NamedTuple

from .constructions import construction_size
from .hypercube import check_threshold

LOWER_BOUND_NOTE = "ceiled rational bound"


def lower_bound(d: int, r: int) -> int:
    """Neighbourhood-counting lower bound on the minimum percolating set size.

    Evaluates 2^(r-1) + sum_{j=1}^{r-1} C(d-j-1, r-j) * j * 2^(j-1) / r
    exactly and returns its ceiling.
    """
    check_threshold(r, d)
    numerator = (1 << (r - 1)) * r
    for j in range(1, r):
        numerator += comb(d - j - 1, r - j) * j * (1 << (j - 1))
    return -(-numerator // r)


def formula_m2(d: int) -> int:
    """The exact minimum for threshold 2: ceil(d/2) + 1."""
    check_threshold(2, d)
    return (d + 1) // 2 + 1


def formula_m3(d: int) -> int:
    """The exact minimum for threshold 3: ceil(d(d+3)/6) + 1."""
    check_threshold(3, d)
    return -(-(d * (d + 3)) // 6) + 1


def formula_m4(d: int) -> int:
    """The threshold-4 closed form ceil(d(d^2+3d+14)/24) + 1."""
    check_threshold(4, d)
    return -(-(d * (d * d + 3 * d + 14)) // 24) + 1


def upper_bound_m4(d: int) -> int:
    """Constructive upper bound for threshold 4 valid at every dimension.

    Equals the closed form plus 20 * floor((d-4)/12), except at d = 5 where
    the best known seed has 14 vertices.
    """
    check_threshold(4, d)
    if d == 5:
        return 14
    return formula_m4(d) + 20 * ((d - 4) // 12)


class BoundReport(NamedTuple):
    """Lower and constructive upper bounds for one (d, r), with the gap."""

    d: int
    r: int
    lower: int
    upper: int
    exact: int | None
    gap: int

    def to_json(self) -> dict:
        return {**self._asdict(), "lower_note": LOWER_BOUND_NOTE}


def bound_report(d: int, r: int) -> BoundReport:
    """Combine the lower bound with the realized construction size."""
    upper = construction_size(d, r)  # checks the threshold as construct does
    lower = lower_bound(d, r)
    if lower > upper:
        raise AssertionError(f"lower bound {lower} exceeds construction {upper}")
    gap = upper - lower
    return BoundReport(d, r, lower, upper, upper if gap == 0 else None, gap)
