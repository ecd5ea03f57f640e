import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnfrange import (
    Clause,
    PcnfFormula,
    RangeClass,
    Verdict,
    build_report,
    clause_class_screen,
    enumerate_clauses,
    occurrence_census,
    occurrence_screen,
    report_to_dict,
    sample_pcnf,
    screen_all,
    solve,
)

from tests.helpers import cl, golden_formula, naive_census, pf


def test_census_on_golden_formula():
    census = occurrence_census(golden_formula())
    assert census.variable_counts == (13, 12, 12)
    assert census.positive_counts == (8, 5, 5)
    assert census.negative_counts == (5, 7, 7)


def test_census_invariant_total_is_pos_plus_neg():
    f = pf(3, "a ~b, ~a c, b c, ~c")
    census = occurrence_census(f)
    for x in range(3):
        assert census.variable_counts[x] == (
            census.positive_counts[x] + census.negative_counts[x]
        )


def test_census_on_empty_formula():
    census = occurrence_census(PcnfFormula.from_clauses(3, []))
    assert census.variable_counts == (0, 0, 0)


def test_census_exact_at_every_group_remainder():
    # Clauses enter the carry-save adders eight at a time: M = 0..17 leaves
    # every remainder mod 8, before and after one full group.
    for m in range(18):
        f = sample_pcnf(3, m, seed=m)
        assert occurrence_census(f) == naive_census(f)


def test_census_exact_across_every_slice_carry():
    # x1 occurring 2^k - 1, 2^k and 2^k + 1 times carries out of every slice
    # below k; ~x1 fills the rest of 4,098 clauses, so its count crosses too.
    universe = enumerate_clauses(9)
    with_x1 = [c for c in universe if c.pos_mask & 1]
    with_not_x1 = [c for c in universe if c.neg_mask & 1]
    for k in range(1, 13):
        for count in (2**k - 1, 2**k, 2**k + 1):
            f = PcnfFormula.from_clauses(
                9, with_x1[:count] + with_not_x1[: 4098 - count]
            )
            census = occurrence_census(f)
            assert census.positive_counts[0] == count
            assert census.negative_counts[0] == 4098 - count
            assert census == naive_census(f)


def test_census_exact_on_wide_random_3cnf():
    rng = random.Random(1000)
    clauses = set()
    while len(clauses) < 20_000:
        variables = rng.sample(range(1, 1001), 3)
        clauses.add(Clause.from_literals(v * rng.choice((1, -1)) for v in variables))
    f = PcnfFormula.from_clauses(1000, clauses)
    assert occurrence_census(f) == naive_census(f)


def test_census_exact_on_padded_universe():
    # 12 clauses in a 1,200-variable universe: one partial group of eight,
    # and almost all of the 2,400 literal counts are zero.
    f = PcnfFormula.from_clauses(1200, [
        Clause.from_literals(lits)
        for lits in (
            (1,), (-1,), (2, -1200), (1200,), (-600, 601), (1, 2, 3),
            (-3, 1199), (1199, 1200), (-1, -2, -3), (600,), (-1199, -600, 1),
            (3, 1200),
        )
    ])
    census = occurrence_census(f)
    assert census == naive_census(f)
    assert (census.positive_counts[1199], census.negative_counts[1199]) == (3, 1)
    assert sum(census.variable_counts) == 23


@settings(max_examples=200)
@given(st.integers(1, 8), st.data())
def test_census_matches_naive_count(n, data):
    m = data.draw(st.integers(0, min(3**n - 1, 700)))
    f = sample_pcnf(n, m, seed=data.draw(st.integers(0, 2**20)))
    assert occurrence_census(f) == naive_census(f)


def test_variable_cap_fires_on_all_clauses_mentioning_a():
    # n=2 has six clauses mentioning a; occurrences(a)=6 > v(2)=4.
    mentioning_a = [c for c in enumerate_clauses(2) if c.occupancy & 1]
    assert len(mentioning_a) == 6
    f = PcnfFormula.from_clauses(2, mentioning_a)
    verdict = occurrence_screen(f)
    assert verdict.outcome is Verdict.UNSATISFIABLE
    assert any(
        r.rule == "variable_occurrence" and r.variable == 0 and r.count == 6
        for r in verdict.reasons
    )
    assert solve(f).model_count == 0


def test_literal_saturation_fires():
    # a occurs exactly p(2)=3 times, ~a occurs 2 > q(2)=1 times.
    f = pf(2, "a, a b, a ~b, ~a b, ~a ~b")
    verdict = occurrence_screen(f)
    assert verdict.outcome is Verdict.UNSATISFIABLE
    rules = {r.rule for r in verdict.reasons}
    assert "literal_saturation" in rules
    # saturation implies the variable cap is breached as well
    assert "variable_occurrence" in rules
    assert solve(f).model_count == 0


def test_occurrence_screen_unknown_on_golden_formula():
    assert occurrence_screen(golden_formula()).outcome is Verdict.UNKNOWN


def test_occurrence_screen_unknown_on_single_clause():
    assert occurrence_screen(pf(1, "a")).outcome is Verdict.UNKNOWN


def test_occurrence_screen_rejects_undersized_n_override():
    f = pf(3, "a, a b, a ~b, a c, a ~c, a b c")  # occ(+a)=6 > p(2)=3
    with pytest.raises(ValueError):
        occurrence_screen(f, n=2)


def test_clause_class_fires_on_complementary_units():
    verdict, table = clause_class_screen(pf(1, "a, ~a"))
    assert verdict.outcome is Verdict.UNSATISFIABLE
    assert table.counts == {(0,): 2}
    assert table.ceilings == {1: 2}
    assert verdict.reasons[0].class_key == (0,)


def test_clause_class_fires_on_full_width3_class():
    full_class = [c for c in enumerate_clauses(3) if c.width == 3]
    assert len(full_class) == 8
    verdict, table = clause_class_screen(PcnfFormula.from_clauses(3, full_class))
    assert verdict.outcome is Verdict.UNSATISFIABLE
    assert table.counts == {(0, 1, 2): 8}
    assert table.ceilings == {3: 8}


def test_clause_class_unknown_on_golden_formula():
    verdict, table = clause_class_screen(golden_formula())
    assert verdict.outcome is Verdict.UNKNOWN
    assert table.counts == {
        (0,): 1,
        (1,): 1,
        (2,): 1,
        (0, 1): 3,
        (0, 2): 3,
        (1, 2): 2,
        (0, 1, 2): 6,
    }
    assert table.ceilings == {1: 2, 2: 4, 3: 8}


def check_class_table(f, early_exit):
    """Check the scan's table, reasons and stop point against a plain count
    of each clause's variable indices over the prefix the scan must read."""
    reference = Counter()
    stop = len(f.clauses)
    for i, clause in enumerate(f.clauses):
        occ = clause.pos_mask | clause.neg_mask
        key = tuple(v for v in range(f.num_vars) if occ >> v & 1)
        reference[key] += 1
        if early_exit and reference[key] == 2 ** len(key):
            stop = i + 1
            break
    verdict, table = clause_class_screen(f, early_exit=early_exit)
    assert table.clauses_scanned == stop
    assert list(table.counts.items()) == list(reference.items())  # first-seen order
    ceilings = {len(key): 2 ** len(key) for key in reference}
    assert list(table.ceilings.items()) == list(ceilings.items())
    assert all(c <= 2 ** len(key) for key, c in reference.items())
    saturated = sorted((k, c) for k, c in reference.items() if c == 2 ** len(k))
    assert [(r.class_key, r.count, r.threshold) for r in verdict.reasons] == [
        (k, c, c) for k, c in saturated
    ]
    if early_exit:
        assert len(saturated) <= 1
    return reference, table


def test_clause_class_table_consistency():
    # in both modes the table, its first-seen order and the reasons match a
    # plain count of canonical keys over the scanned prefix
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        f = sample_pcnf(n, rng.randint(0, 3**n - 1), seed=rng.randrange(2**30))
        for early_exit in (False, True):
            check_class_table(f, early_exit)


# Up to this many variables a clause mask hashes to itself; the scan keys
# wider formulas' classes by their variable indices.
MASK_KEY_VARS = sys.hash_info.modulus.bit_length()


def wide_formula(rng, n):
    """Random clauses over a few variables at both ends of n, where masks
    2^0 and 2^61 hash alike past 61 variables, with one saturated class."""
    pool = sorted({0, 1, 2, 59, 60, 61, 62, n - 2, n - 1} & set(range(n)))
    clauses = {
        Clause.from_literals(rng.choice((v + 1, -v - 1)) for v in rng.sample(pool, k))
        for k in (rng.randint(1, 3) for _ in range(40))
    }
    a, b = (v + 1 for v in rng.sample(pool, 2))
    clauses.update(Clause.from_literals((x, y)) for x in (a, -a) for y in (b, -b))
    clauses = list(clauses)
    rng.shuffle(clauses)  # the scan reads clauses in any order
    return PcnfFormula(n, tuple(clauses))


@pytest.mark.parametrize("n", [60, 61, 62, 64])
def test_clause_class_table_across_the_hash_width(n):
    rng = random.Random(n)
    for _ in range(50):
        f = wide_formula(rng, n)
        for early_exit in (False, True):
            reference, table = check_class_table(f, early_exit)
            keys = list(table.occupancy_counts)
            assert all(isinstance(k, int if n <= MASK_KEY_VARS else tuple) for k in keys)
            assert len(set(map(hash, keys))) == len(keys)  # no two keys collide
            doc = report_to_dict(build_report(screen_all(f, early_exit=early_exit)))
            assert doc["detectors"]["clause_class"]["C"] == {
                ",".join(str(v + 1) for v in key): c for key, c in reference.items()
            }


def test_clause_class_reasons_in_tuple_key_order():
    # class (1,) has mask 0b010, class (0, 2) mask 0b101, and (1,) is seen
    # first: neither mask order nor first-seen order is tuple order
    clauses = [cl("b"), cl("~b"), cl("a c"), cl("a ~c"), cl("~a c"), cl("~a ~c")]
    verdict, table = clause_class_screen(PcnfFormula(3, tuple(clauses)))
    assert verdict.outcome is Verdict.UNSATISFIABLE
    assert [(r.class_key, r.count, r.threshold) for r in verdict.reasons] == [
        ((0, 2), 4, 4),
        ((1,), 2, 2),
    ]
    assert list(table.counts.items()) == [((1,), 2), ((0, 2), 4)]
    assert list(table.ceilings.items()) == [(1, 2), (2, 4)]


def test_early_exit_stops_scan_but_keeps_verdict():
    # complementary units first, then filler: early exit may stop scanning
    clauses = [cl("a"), cl("~a"), cl("a b"), cl("a b c"), cl("b c")]
    f = PcnfFormula.from_clauses(3, clauses)
    full_verdict, full_table = clause_class_screen(f)
    early_verdict, early_table = clause_class_screen(f, early_exit=True)
    assert full_verdict.outcome is early_verdict.outcome is Verdict.UNSATISFIABLE
    assert full_table.clauses_scanned == 5
    assert early_table.clauses_scanned == 2
    assert early_verdict.reasons[0].class_key == (0,)


def test_early_exit_agrees_on_random_formulas():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        f = sample_pcnf(n, rng.randint(0, 3**n - 1), seed=rng.randrange(2**30))
        full_verdict, _ = clause_class_screen(f)
        early_verdict, early_table = clause_class_screen(f, early_exit=True)
        assert full_verdict.outcome is early_verdict.outcome
        assert early_table.clauses_scanned <= len(f.clauses)


def test_screen_all_golden_formula_unknown_in_natural_range():
    result = screen_all(golden_formula())
    assert result.range_class is RangeClass.NATURAL_RANGE
    assert result.verdict is Verdict.UNKNOWN
    assert result.reasons == ()


def test_screen_all_fires_beyond_f_on_every_six_clause_n2_formula():
    universe = enumerate_clauses(2)
    for combo in itertools.combinations(universe, 6):
        f = PcnfFormula(2, combo)
        result = screen_all(f)
        assert result.verdict is Verdict.UNSATISFIABLE
        assert any(r.rule == "beyond_f" for r in result.reasons)
        assert solve(f).model_count == 0


def test_screen_all_unknown_on_single_clause():
    assert screen_all(pf(1, "a")).verdict is Verdict.UNKNOWN


def test_screen_all_respects_n_override():
    f = pf(3, "a")
    assert screen_all(f).range_class is RangeClass.BELOW_RANGE
    assert screen_all(f, n=1).range_class is RangeClass.NATURAL_RANGE


def test_soundness_exhaustive_tiny_universes():
    # every formula over n <= 2: a fired detector means the oracle agrees
    for n in (1, 2):
        universe = enumerate_clauses(n)
        for size in range(len(universe) + 1):
            for combo in itertools.combinations(universe, size):
                f = PcnfFormula(n, combo)
                if screen_all(f).verdict is Verdict.UNSATISFIABLE:
                    assert solve(f).model_count == 0


def test_soundness_random_smoke():
    # the acceptance suite runs the full 1e5-case campaign; this is the
    # fast per-commit version
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randint(1, 8)
        m = rng.randint(0, 3**n - 1)
        f = sample_pcnf(n, m, seed=rng.randrange(2**30))
        if screen_all(f).verdict is Verdict.UNSATISFIABLE:
            assert solve(f).model_count == 0
