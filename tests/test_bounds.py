from math import comb

import pytest

from pcnfrange import (
    Construction,
    RangeClass,
    bounds_for,
    classify_count,
    clause_distribution,
)

from tests.helpers import pf

# (n, m, f, g) from the per-n case analyses.
KNOWN_TABLES = [
    (1, 2, 1, 0),
    (2, 8, 5, 3),
    (3, 26, 19, 15),
    (4, 80, 65, 57),
    (5, 242, 211, 195),
    (6, 728, 665, 633),
]


@pytest.mark.parametrize("n,m,f,g", KNOWN_TABLES)
def test_known_tables(n, m, f, g):
    t = bounds_for(n)
    assert (t.m, t.f, t.g) == (m, f, g)


def test_occurrence_ceilings_n3():
    t = bounds_for(3)
    assert (t.v, t.p, t.q) == (14, 9, 5)


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        bounds_for(0)


@pytest.mark.parametrize("n", [*range(1, 31), 100, 1000])
def test_closed_forms_equal_summations(n):
    t = bounds_for(n)
    assert t.m == sum(2**k * comb(n, k) for k in range(1, n + 1))
    assert t.r == sum(comb(n, k) for k in range(1, n + 1)) == 2**n - 1
    assert t.s == sum(comb(n - 1, k) for k in range(n)) == 2 ** (n - 1)
    assert t.f == t.m - t.r == 3**n - 2**n
    assert t.g == t.m - t.r - t.s == 3**n - 2**n - 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 30))
def test_removal_recurrences(n):
    t, t1 = bounds_for(n), bounds_for(n + 1)
    assert t1.r == t.r + 2**n
    assert t1.s == t.s + 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_ordering_and_occurrence_identity(n):
    t = bounds_for(n)
    assert t.g < t.f < t.m
    assert t.v == t.p + t.q
    assert t.v == 2 * 3 ** (n - 1) - 2 ** (n - 1)
    assert t.p == 3 ** (n - 1)
    assert t.q == 3 ** (n - 1) - 2 ** (n - 1)


DISTRIBUTIONS = [
    (1, Construction.ALL, (2,)),
    (2, Construction.ALL, (4, 4)),
    (3, Construction.ALL, (6, 12, 8)),
    (4, Construction.ALL, (8, 24, 32, 16)),
    (5, Construction.ALL, (10, 40, 80, 80, 32)),
    (1, Construction.MAX_SAT, (1,)),
    (2, Construction.MAX_SAT, (2, 3)),
    (3, Construction.MAX_SAT, (3, 9, 7)),
    (4, Construction.MAX_SAT, (4, 18, 28, 15)),
    (5, Construction.MAX_SAT, (5, 30, 70, 75, 31)),
    (2, Construction.DOUBLE_SAT, (1, 2)),
    (3, Construction.DOUBLE_SAT, (2, 7, 6)),
    (4, Construction.DOUBLE_SAT, (3, 15, 25, 14)),
    (5, Construction.DOUBLE_SAT, (4, 26, 64, 71, 30)),
    (6, Construction.DOUBLE_SAT, (5, 40, 130, 215, 181, 62)),
    (1, Construction.DOUBLE_SAT, (0,)),
]


@pytest.mark.parametrize("n,construction,expected", DISTRIBUTIONS)
def test_known_distributions(n, construction, expected):
    assert clause_distribution(n, construction) == expected


@pytest.mark.parametrize("n", range(1, 31))
def test_distribution_sums(n):
    t = bounds_for(n)
    assert sum(clause_distribution(n, Construction.ALL)) == t.m
    assert sum(clause_distribution(n, Construction.MAX_SAT)) == t.f
    assert sum(clause_distribution(n, Construction.DOUBLE_SAT)) == t.g


def test_classification_boundaries():
    assert classify_count(3, 17)[0] is RangeClass.NATURAL_RANGE
    assert classify_count(2, 8)[0] is RangeClass.BEYOND_F
    assert classify_count(3, 0)[0] is RangeClass.BELOW_RANGE
    # boundary inclusivity: g < M <= f
    assert classify_count(3, 15)[0] is RangeClass.BELOW_RANGE
    assert classify_count(3, 16)[0] is RangeClass.NATURAL_RANGE
    assert classify_count(3, 19)[0] is RangeClass.NATURAL_RANGE
    assert classify_count(3, 20)[0] is RangeClass.BEYOND_F


def test_classify_count_of_declared_or_occurring_universe():
    f = pf(3, "a")  # one clause, three declared variables
    range_class, table = classify_count(f.num_vars, len(f.clauses))
    assert table.n == 3
    assert range_class is RangeClass.BELOW_RANGE
    # recounting to the single occurring variable moves it into range
    range_class, table = classify_count(len(f.occurring_variables()), len(f.clauses))
    assert table.n == 1
    assert range_class is RangeClass.NATURAL_RANGE
