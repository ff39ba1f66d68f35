"""Exact integer evaluation of the minimum-percolating-set bounds.

Everything here is big-integer arithmetic; no floating point is involved.
The general lower bound is a rational expression, so its evaluator returns
the ceiling (the minimum set size is an integer); reports describe it as a
ceiled rational bound.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .constructions import THRESHOLDS, construction_size
from .hypercube import DomainError, check_threshold

LOWER_BOUND_NOTE = "ceiled rational bound"


def lower_bound(d: int, r: int) -> int:
    """Neighbourhood-counting lower bound on the minimum percolating set size.

    Evaluates 2^(r-1) + sum_{j=1}^{r-1} C(d-j-1, r-j) * j * 2^(j-1) / r
    exactly and returns its ceiling.
    """
    check_threshold(r)
    if not isinstance(d, int) or isinstance(d, bool) or d < r:
        raise DomainError(f"need d >= r, got d={d}, r={r}")
    numerator = (1 << (r - 1)) * r
    for j in range(1, r):
        numerator += comb(d - j - 1, r - j) * j * (1 << (j - 1))
    return -(-numerator // r)


def formula_m2(d: int) -> int:
    """The exact minimum for threshold 2: ceil(d/2) + 1."""
    if d < 2:
        raise DomainError(f"threshold 2 needs d >= 2, got {d}")
    return (d + 1) // 2 + 1


def formula_m3(d: int) -> int:
    """The exact minimum for threshold 3: ceil(d(d+3)/6) + 1."""
    if d < 3:
        raise DomainError(f"threshold 3 needs d >= 3, got {d}")
    return -(-(d * (d + 3)) // 6) + 1


def formula_m4(d: int) -> int:
    """The threshold-4 closed form ceil(d(d^2+3d+14)/24) + 1."""
    if d < 4:
        raise DomainError(f"threshold 4 needs d >= 4, got {d}")
    return -(-(d * (d * d + 3 * d + 14)) // 24) + 1


def upper_bound_m4(d: int) -> int:
    """Constructive upper bound for threshold 4 valid at every dimension.

    Equals the closed form plus 20 * floor((d-4)/12), except at d = 5 where
    the best known seed has 14 vertices.
    """
    if d < 4:
        raise DomainError(f"threshold 4 needs d >= 4, got {d}")
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
        return {
            "d": self.d,
            "r": self.r,
            "lower": self.lower,
            "lower_note": LOWER_BOUND_NOTE,
            "upper": self.upper,
            "exact": self.exact,
            "gap": self.gap,
        }


def bound_report(d: int, r: int) -> BoundReport:
    """Combine the lower bound with the realized construction size."""
    if r not in THRESHOLDS:
        raise DomainError(f"reports cover thresholds {THRESHOLDS[0]}..{THRESHOLDS[-1]}, got {r}")
    lower = lower_bound(d, r)
    upper = construction_size(d, r)
    if lower > upper:
        raise AssertionError(f"lower bound {lower} exceeds construction {upper}")
    gap = upper - lower
    return BoundReport(d, r, lower, upper, upper if gap == 0 else None, gap)
