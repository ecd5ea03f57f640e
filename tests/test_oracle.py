import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnfrange import (
    OracleVerdict,
    PcnfFormula,
    TooManyVariablesError,
    max_sat_construction,
    model_bitmap,
    sample_pcnf,
    solve,
)
from pcnfrange.formula import bit_indices
from pcnfrange.oracle import MODEL_RETENTION_CAP, clause_bitmap

from tests.helpers import golden_formula, naive_model_set, pf


def test_empty_formula_has_all_models():
    r = solve(PcnfFormula.from_clauses(3, []))
    assert r.model_count == 8
    assert r.verdict is OracleVerdict.MULTIPLE
    assert r.models == ()  # above the retention cap


def test_contradiction_has_none():
    r = solve(pf(1, "a, ~a"))
    assert r.model_count == 0
    assert r.verdict is OracleVerdict.UNSAT


def test_golden_formula_unsatisfiable():
    assert solve(golden_formula()).model_count == 0


def test_max_sat_construction_has_unique_all_true_model():
    r = solve(max_sat_construction(3))
    assert r.model_count == 1
    assert r.models == (0b111,)
    assert r.verdict is OracleVerdict.UNIQUE


def test_refuses_beyond_cap():
    with pytest.raises(TooManyVariablesError):
        solve(PcnfFormula.from_clauses(25, []), max_n=24)
    # 24 variables is a hard ceiling: a larger max_n does not lift it
    with pytest.raises(TooManyVariablesError, match="cap of 24"):
        solve(PcnfFormula.from_clauses(25, []), max_n=100)


def test_models_retained_only_below_cap():
    assert MODEL_RETENTION_CAP == 4
    r = solve(pf(3, "a"))  # a true: four models, the cap, kept ascending
    assert r.model_count == 4
    assert r.models == (0b001, 0b011, 0b101, 0b111)
    for spec, count in (("a b, a c", 5), ("", 8)):  # above the cap: none kept
        r = solve(pf(3, spec))
        assert (r.model_count, r.models) == (count, ())


def test_clause_bitmap_small():
    # over assignments 0..3: v0 holds in {1, 3}, v1 in {2, 3}
    assert clause_bitmap(0b01, 0, 2) == 0b1010
    assert clause_bitmap(0b10, 0, 2) == 0b1100
    assert clause_bitmap(0, 0b01, 2) == 0b0101
    assert clause_bitmap(0, 0, 2) == 0  # an empty clause has no model


def test_clause_bitmap_matches_direct_evaluation():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        occ = rng.randint(1, (1 << n) - 1)
        pos = rng.randint(0, (1 << n) - 1) & occ
        neg = occ ^ pos
        bm = clause_bitmap(pos, neg, n)
        for a in range(1 << n):
            expected = bool((a & pos) | (~a & neg))
            assert bool(bm >> a & 1) == expected


def test_solve_agrees_with_naive_evaluator():
    # 1000 random formulas, n <= 4: the mask encoding vs. a literal-by-literal
    # dict interpretation must produce identical model sets.
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3**n - 1)
        f = sample_pcnf(n, m, seed=rng.randrange(2**30))
        models = bit_indices(model_bitmap(n, f.clauses))
        naive = naive_model_set(n, [c.literals() for c in f.clauses])
        assert solve(f).model_count == len(models) == len(naive)
        as_tuples = {tuple(bool(a >> v & 1) for v in range(n)) for a in models}
        assert as_tuples == naive


def test_model_bitmap_agrees_with_naive_evaluator():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(1, 6)
        f = sample_pcnf(n, rng.randint(0, 3**n - 1), seed=rng.randrange(2**30))
        bitmap = model_bitmap(n, f.clauses)
        as_tuples = {
            tuple(bool(a >> v & 1) for v in range(n))
            for a in range(1 << n)
            if bitmap >> a & 1
        }
        assert as_tuples == naive_model_set(n, [c.literals() for c in f.clauses])


def test_solve_retains_naive_models_in_ascending_order():
    rng = random.Random(321)
    retained = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        # clause counts near f(n) leave few models, so most formulas are kept
        m = rng.randint(3**n - 2**n - 2 ** (n - 1), 3**n - 1)
        f = sample_pcnf(n, m, seed=rng.randrange(2**30))
        result = solve(f)
        naive = naive_model_set(n, [c.literals() for c in f.clauses])
        assert result.model_count == len(naive)
        if result.model_count <= 4:
            retained += 1
            expected = sorted(
                sum(1 << v for v in range(n) if values[v]) for values in naive
            )
            assert list(result.models) == expected
    assert retained > 100


@settings(max_examples=200)
@given(st.integers(1, 6), st.data())
def test_model_count_monotone_under_clause_addition(n, data):
    from pcnfrange import enumerate_clauses

    seed = data.draw(st.integers(0, 2**20))
    m = data.draw(st.integers(0, 3**n - 2))
    f = sample_pcnf(n, m, seed=seed)
    base = solve(f).model_count
    existing = set(f.clauses)
    extra = data.draw(
        st.sampled_from([c for c in enumerate_clauses(n) if c not in existing])
    )
    extended = PcnfFormula.from_clauses(n, list(f.clauses) + [extra])
    assert solve(extended).model_count <= base


def test_solve_at_the_ceiling():
    # 24 variables, a 2 MiB truth table: x0 and ~x23 leave 2^22 models
    f = pf(24, "a, ~x")
    assert solve(f).model_count == 1 << 22
