"""Clause-count bounds for PCNF formulas over n variables.

The whole clause universe over n variables has

    m(n) = sum_{k=1..n} 2^k * C(n, k) = 3^n - 1

clauses.  Two thresholds carve it up:

    f(n) = 3^n - 2^n            final point of satisfiability: every PCNF
                                formula with more than f(n) clauses is
                                unsatisfiable.
    g(n) = 3^n - 2^n - 2^(n-1)  last point of double satisfiability: with
                                more than g(n) clauses there is at most one
                                model.

The interval g(n) < M <= f(n) is the natural range: any formula whose clause
count lands there has a unique model or none.  The occurrence ceilings

    v(n) = 2*3^(n-1) - 2^(n-1)  max occurrences of a variable (either
                                polarity) in a satisfiable formula
    p(n) = 3^(n-1)              max occurrences of a single literal
    q(n) = 3^(n-1) - 2^(n-1)    complement-occurrence threshold, v - p

feed the polynomial-time unsatisfiability detectors.

Everything is exact integer arithmetic; each table cross-checks the closed
forms against the defining summations at construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb


@dataclass(frozen=True, slots=True)
class BoundsTable:
    """Every counting function evaluated at one n."""

    n: int
    m: int  # size of the clause universe, 3^n - 1
    f: int  # final point of satisfiability, 3^n - 2^n
    g: int  # last point of double satisfiability, f - 2^(n-1)
    r: int  # clauses removed from m to reach f: 2^n - 1
    s: int  # clauses removed from f to reach g: 2^(n-1)
    v: int  # variable-occurrence ceiling while satisfiable
    p: int  # literal-occurrence ceiling
    q: int  # complement-occurrence threshold, v - p


class RangeClass(Enum):
    """Where a clause count M sits relative to f(n) and g(n)."""

    BEYOND_F = "beyond_f"  # M > f: no model
    NATURAL_RANGE = "natural_range"  # g < M <= f: at most one model
    BELOW_RANGE = "below_range"  # M <= g: count alone says nothing


class Construction(Enum):
    """Clause families whose per-width distributions are known exactly."""

    ALL = "all"
    MAX_SAT = "max-sat"
    DOUBLE_SAT = "double-sat"


@lru_cache(maxsize=None)
def bounds_for(n: int) -> BoundsTable:
    """The full bounds table for n variables.

    Exact for any positive n.  Raises ValueError for n < 1.
    """
    if n < 1:
        raise ValueError(f"bounds require n >= 1, got {n}")
    pow3 = 3**n
    m = pow3 - 1
    r = 2**n - 1
    s = 2 ** (n - 1)
    f = m - r
    g = f - s
    p = pow3 // 3
    q = p - s
    v = p + q

    # Closed forms must agree with the defining summations.
    m_sum = sum(2**k * comb(n, k) for k in range(1, n + 1))
    r_sum = sum(comb(n, k) for k in range(1, n + 1))
    s_sum = sum(comb(n - 1, k) for k in range(n))
    if (m, r, s) != (m_sum, r_sum, s_sum):
        raise AssertionError(f"bounds cross-check failed for n={n}")

    return BoundsTable(n=n, m=m, f=f, g=g, r=r, s=s, v=v, p=p, q=q)


def classify_count(n: int, num_clauses: int) -> tuple[RangeClass, BoundsTable]:
    """Classify a clause count against the bounds for n variables."""
    table = bounds_for(n)
    if num_clauses > table.f:
        return RangeClass.BEYOND_F, table
    if num_clauses > table.g:
        return RangeClass.NATURAL_RANGE, table
    return RangeClass.BELOW_RANGE, table


def clause_distribution(n: int, construction: Construction) -> tuple[int, ...]:
    """Per-width clause counts for the given construction, widths 1..n.

    ALL sums to m(n), MAX_SAT to f(n), DOUBLE_SAT to g(n).
    """
    if n < 1:
        raise ValueError(f"distribution requires n >= 1, got {n}")
    if construction is Construction.ALL:
        return tuple(2**k * comb(n, k) for k in range(1, n + 1))
    if construction is Construction.MAX_SAT:
        return tuple((2**k - 1) * comb(n, k) for k in range(1, n + 1))
    if construction is Construction.DOUBLE_SAT:
        return tuple(
            (2**k - 1) * comb(n, k) - comb(n - 1, k - 1) for k in range(1, n + 1)
        )
    raise ValueError(f"unknown construction {construction!r}")
