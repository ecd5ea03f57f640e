import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnfrange import (
    Clause,
    EmptyClauseError,
    RawCnf,
    enumerate_clauses,
    normalize,
    raw_model_bitmap,
)
from pcnfrange.formula import clause_sort_key

from tests.helpers import cl, collector_set, naive_normalize, raw


def test_duplicate_literal_collapsed():
    f, stats = normalize(raw(2, "a a b"))
    assert f.clauses == (cl("a b"),)
    assert stats.duplicate_literals_removed == 1


def test_tautological_clause_dropped():
    f, stats = normalize(raw(2, "a ~a b"))
    assert f.clauses == ()
    assert stats.tautological_clauses_dropped == 1


def test_three_rules_together():
    f, stats = normalize(raw(2, "a b, b a, a a ~a"))
    assert f.clauses == (cl("a b"),)
    assert stats.duplicate_literals_removed == 1
    assert stats.tautological_clauses_dropped == 1
    assert stats.duplicate_clauses_dropped == 1
    assert stats.literals_scanned == 7


def test_repeated_literal_and_its_complement_in_one_clause():
    f, stats = normalize(RawCnf(1, ((1, 1, -1),)))
    assert f.clauses == ()
    assert stats.duplicate_literals_removed == 1
    assert stats.tautological_clauses_dropped == 1
    assert stats.literals_scanned == 3


def test_empty_clause_rejected():
    with pytest.raises(EmptyClauseError):
        normalize(RawCnf(2, ((1,), ())))


def test_empty_clause_rejected_after_every_other_clause():
    with pytest.raises(EmptyClauseError):
        normalize(RawCnf(2, ((1,), (2, 2, -2), (-1, 2), ())))


@pytest.mark.parametrize("enabled", [True, False])
def test_normalize_leaves_the_collector_as_it_found_it(enabled):
    # Clauses are built with the cyclic collector paused; a caller's setting
    # survives that, and an empty clause propagating out.
    with collector_set(enabled):
        normalize(raw(3, "a b, ~c, b a"))
        assert gc.isenabled() is enabled
        with pytest.raises(EmptyClauseError):
            normalize(RawCnf(2, ((1,), ())))
        assert gc.isenabled() is enabled


def test_variable_universe_preserved():
    # b only appears in a dropped tautology; n stays 3.
    f, _ = normalize(raw(3, "a c, b ~b"))
    assert f.num_vars == 3


def test_idempotent_on_pcnf():
    f1, _ = normalize(raw(3, "a, ~b c, a b c"))
    as_raw = RawCnf(3, tuple(c.literals() for c in f1.clauses))
    f2, stats = normalize(as_raw)
    assert f2 == f1
    assert stats.duplicate_literals_removed == 0
    assert stats.tautological_clauses_dropped == 0
    assert stats.duplicate_clauses_dropped == 0


def test_single_scan_touches_each_literal_once():
    r = raw(3, "a a b, b ~b, c, c, a b c")
    _, stats = normalize(r)
    assert stats.literals_scanned == sum(map(len, r.clauses))


def _random_raw(rng: random.Random, n: int) -> RawCnf:
    clauses = []
    for _ in range(rng.randint(0, 12)):
        width = rng.randint(1, n + 2)  # > n forces duplicates/tautologies
        lits = tuple(
            (rng.randrange(n) + 1) * (-1 if rng.random() < 0.5 else 1)
            for _ in range(width)
        )
        clauses.append(lits)
        if rng.random() < 0.3:  # inject a repeated clause
            clauses.append(lits)
    return RawCnf(n, tuple(clauses))


def test_model_set_preserved_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        r = _random_raw(rng, n)
        f, _ = normalize(r)
        before = raw_model_bitmap(n, r.clauses)
        after = raw_model_bitmap(n, [c.literals() for c in f.clauses])
        assert before == after


def test_output_is_the_sorted_distinct_clauses():
    # Widths arrive interleaved; at n=1000 the masks span many machine words.
    rng = random.Random(7)
    for n in (3, 12, 1000):
        for _ in range(300):
            r = _random_raw(rng, n)
            f, stats = normalize(r)
            distinct = {
                Clause.from_literals(c) for c in r.clauses if not {-x for x in c} & set(c)
            }
            assert f.clauses == tuple(sorted(distinct, key=clause_sort_key))
            kept = len(r.clauses) - stats.tautological_clauses_dropped
            assert stats.duplicate_clauses_dropped == kept - len(distinct)


@settings(max_examples=200)
@given(st.integers(1, 6), st.data())
def test_renormalization_is_identity(n, data):
    num_clauses = data.draw(st.integers(0, 8))
    clauses = []
    for _ in range(num_clauses):
        lits = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.booleans()),
                min_size=1,
                max_size=n + 2,
            )
        )
        clauses.append(tuple(-(v + 1) if neg else v + 1 for v, neg in lits))
    f1, _ = normalize(RawCnf(n, tuple(clauses)))
    f2, stats = normalize(RawCnf(n, tuple(c.literals() for c in f1.clauses)))
    assert f2 == f1
    assert stats.duplicate_clauses_dropped == 0


@st.composite
def messy_raw_cnfs(draw):
    """Raw CNF whose clauses repeat in shuffled literal order, double a
    literal, join a literal's complement, or both.  At n = 62 and 1000 the
    clause masks pass the 61 bits an int hashes to itself; variables 1 and
    62 give masks 2^0 and 2^61, which hash alike."""
    n = draw(st.sampled_from([3, 61, 62, 1000]))
    edges = sorted({1, 2, 61, 62, n} & set(range(1, n + 1)))
    variables = st.one_of(st.sampled_from(edges), st.integers(1, n))
    literal = st.builds(lambda v, neg: -v if neg else v, variables, st.booleans())
    base = draw(st.lists(st.lists(literal, min_size=1, max_size=4), min_size=1, max_size=8))
    clauses = []
    for _ in range(draw(st.integers(0, 24))):
        clause = list(draw(st.permutations(draw(st.sampled_from(base)))))
        for edit in draw(st.lists(st.sampled_from(["double", "complement"]), unique=True)):
            lit = draw(st.sampled_from(clause))
            clause.insert(draw(st.integers(0, len(clause))), lit if edit == "double" else -lit)
        clauses.append(tuple(clause))
    return RawCnf(n, tuple(clauses))


@settings(max_examples=300, deadline=None)
@given(messy_raw_cnfs())
def test_normalize_equals_the_set_based_reference(raw_cnf):
    assert normalize(raw_cnf) == naive_normalize(raw_cnf)


def _mask_objects_and_values(f):
    masks = [m for c in f.clauses for m in (c.pos_mask, c.neg_mask)]
    return len({id(m) for m in masks}), len(set(masks))


def _messy(rng, clauses):
    """Each clause's literals shuffled, some repeated, some doubled."""
    out = []
    for c in clauses:
        lits = list(c.literals())
        for _ in range(rng.choice([1, 1, 2])):
            messy = lits + rng.sample(lits, rng.randint(0, 2))
            rng.shuffle(messy)
            out.append(tuple(messy))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("drop", [0, 1])
def test_masks_are_shared_exactly_when_clauses_reach_the_mask_count(drop):
    # The 2^9 full-width clauses over 9 variables use each mask value once
    # as a positive and once as a negative mask, mostly above CPython's
    # cached small ints.  All 512 take their masks from one pool of 2^9
    # ints; 511 are fewer clauses than mask values and split fresh masks.
    n = 9
    rng = random.Random(drop)
    full = [c for c in enumerate_clauses(n) if c.width == n][drop:]
    r = RawCnf(n, tuple(_messy(rng, full)))
    f, stats = normalize(r)
    assert (f, stats) == naive_normalize(r)
    objects, values = _mask_objects_and_values(f)
    assert (objects == values) is (drop == 0)


def test_wide_formulas_split_fresh_masks():
    # At n = 1000 no formula reaches 2^n clauses, so no pool is built.
    rng = random.Random(5)
    top = 1 << 999 | 1 << 500
    clauses = [Clause(top | 1 << i, 1 << (i + 1)) for i in range(40)]
    clauses += [Clause(1 << (i + 1), top | 1 << i) for i in range(40)]
    r = RawCnf(1000, tuple(_messy(rng, clauses)))
    f, stats = normalize(r)
    assert (f, stats) == naive_normalize(r)
    objects, values = _mask_objects_and_values(f)
    assert objects > values
