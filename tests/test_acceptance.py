"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``acceptance NN <slug>: PASS/FAIL`` line (run pytest
with ``-s`` to watch them stream).  All counts and bounds are exact-integer
comparisons; the only tolerances anywhere are the stated runtime ceilings.
"""
import json
import random
import time
from contextlib import contextmanager
from math import comb

import pytest

from pcnfrange import (
    Construction,
    RangeClass,
    RawCnf,
    Verdict,
    VerifyMode,
    bounds_for,
    clause_distribution,
    double_sat_construction,
    enumerate_clauses,
    max_sat_construction,
    model_bitmap,
    normalize,
    occurrence_census,
    parse_dimacs,
    raw_model_bitmap,
    sample_pcnf,
    screen_all,
    solve,
    verify_bounds,
)
from pcnfrange.cli import main

from tests.helpers import GOLDEN_CNF


@contextmanager
def criterion(number: int, slug: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} {slug}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"acceptance {number:02d} {slug}: PASS ({elapsed:.2f}s)")


def test_01_bounds_table_reproduction(capsys):
    with criterion(1, "bounds-table-reproduction"):
        start = time.perf_counter()
        cli_tables = {}
        for n in range(1, 7):
            assert main(["bounds", str(n)]) == 0
            cli_tables[n] = json.loads(capsys.readouterr().out)

        for n, expected_m in {1: 2, 2: 8, 3: 26}.items():
            assert cli_tables[n]["m"] == expected_m
        for n, expected_f in {1: 1, 2: 5, 3: 19, 4: 65, 5: 211}.items():
            assert cli_tables[n]["f"] == expected_f
        for n, expected_g in {2: 3, 3: 15, 4: 57, 5: 195, 6: 633}.items():
            assert cli_tables[n]["g"] == expected_g
        assert cli_tables[3]["v"] == 14
        assert cli_tables[3]["p"] == 9
        assert cli_tables[3]["q"] == 5

        # every per-width distribution quoted in the case analyses
        all_dists = {1: (2,), 2: (4, 4), 3: (6, 12, 8), 4: (8, 24, 32, 16),
                     5: (10, 40, 80, 80, 32)}
        max_sat_dists = {1: (1,), 2: (2, 3), 3: (3, 9, 7), 4: (4, 18, 28, 15),
                         5: (5, 30, 70, 75, 31)}
        double_sat_dists = {2: (1, 2), 3: (2, 7, 6), 4: (3, 15, 25, 14),
                            5: (4, 26, 64, 71, 30), 6: (5, 40, 130, 215, 181, 62)}
        for n, dist in all_dists.items():
            assert clause_distribution(n, Construction.ALL) == dist
        for n, dist in max_sat_dists.items():
            assert clause_distribution(n, Construction.MAX_SAT) == dist
        for n, dist in double_sat_dists.items():
            assert clause_distribution(n, Construction.DOUBLE_SAT) == dist

        assert time.perf_counter() - start < 1.0


def test_02_beyond_f_exhaustive_n2():
    with criterion(2, "beyond-f-exhaustive-n2"):
        start = time.perf_counter()
        report = verify_bounds(2, VerifyMode.EXHAUSTIVE, include_natural_range=False)
        stratum = report.strata[0]
        assert stratum.formulas_checked == 37 == sum(comb(8, k) for k in (6, 7, 8))
        assert stratum.max_models_seen == 0
        assert stratum.counterexamples == ()
        assert time.perf_counter() - start < 1.0


def test_03_natural_range_exhaustive_n2():
    with criterion(3, "natural-range-exhaustive-n2"):
        start = time.perf_counter()
        report = verify_bounds(2, VerifyMode.EXHAUSTIVE, include_beyond_f=False)
        stratum = report.strata[0]
        assert stratum.formulas_checked == 126 == comb(8, 4) + comb(8, 5)
        assert stratum.max_models_seen <= 1
        assert stratum.counterexamples == ()
        assert time.perf_counter() - start < 1.0


def test_04_beyond_f_exhaustive_n3():
    with criterion(4, "beyond-f-exhaustive-n3"):
        start = time.perf_counter()
        report = verify_bounds(3, VerifyMode.EXHAUSTIVE, include_natural_range=False)
        stratum = report.strata[0]
        assert stratum.formulas_checked == 313_912 == sum(
            comb(26, k) for k in range(20, 27)
        )
        assert stratum.max_models_seen == 0
        assert stratum.counterexamples == ()
        assert time.perf_counter() - start < 60.0


def test_05_natural_range_sampled_n3():
    with criterion(5, "natural-range-sampled-n3"):
        start = time.perf_counter()
        report = verify_bounds(
            3, VerifyMode.SAMPLE, sample_count=100_000, seed=424242,
            include_beyond_f=False,
        )
        stratum = report.strata[0]
        assert stratum.formulas_checked == 100_000
        assert (stratum.clause_count_lo, stratum.clause_count_hi) == (16, 19)
        assert stratum.max_models_seen <= 1
        assert stratum.counterexamples == ()
        assert time.perf_counter() - start < 60.0


def test_06_tightness_of_both_bounds():
    with criterion(6, "tightness-constructions"):
        for n in range(2, 11):
            table = bounds_for(n)
            max_sat = max_sat_construction(n)
            assert len(max_sat.clauses) == table.f
            assert solve(max_sat).model_count >= 1
            double_sat = double_sat_construction(n)
            assert len(double_sat.clauses) == table.g
            assert solve(double_sat).model_count == 2


@pytest.mark.slow
def test_07_detector_soundness_campaign():
    with criterion(7, "detector-soundness"):
        cases_per_n = 8334  # 12 * 8334 >= 1e5
        total = 0
        fired = 0
        for n in range(1, 13):
            m = bounds_for(n).m
            cap = min(m, 5000)
            size_rng = random.Random(9000 + n)
            for i in range(cases_per_n):
                size = size_rng.randint(0, cap)
                formula = sample_pcnf(n, size, seed=(n << 20) | i)
                total += 1
                if screen_all(formula).verdict is Verdict.UNSATISFIABLE:
                    fired += 1
                    assert model_bitmap(n, formula.clauses) == 0, (
                        f"false positive: n={n} size={size} seed={(n << 20) | i}"
                    )
        assert total >= 100_000
        assert fired > 0  # the campaign must actually exercise the rules
        print(f"  [{total} formulas screened, {fired} detector hits, 0 false positives]")


def test_08_golden_fixture_matches_printed_values():
    with criterion(8, "golden-17-clause-fixture"):
        formula, _ = normalize(parse_dimacs(GOLDEN_CNF.read_text()))
        assert formula.num_vars == 3
        assert len(formula.clauses) == 17

        result = screen_all(formula)
        assert result.range_class is RangeClass.NATURAL_RANGE
        assert result.bounds.g == 15 and result.bounds.f == 19

        census = occurrence_census(formula)
        assert census.variable_counts == (13, 12, 12)
        assert census.positive_counts == (8, 5, 5)
        assert census.negative_counts == (5, 7, 7)

        assert result.class_table.counts == {
            (0,): 1, (1,): 1, (2,): 1,
            (0, 1): 3, (0, 2): 3, (1, 2): 2,
            (0, 1, 2): 6,
        }
        assert result.class_table.ceilings == {1: 2, 2: 4, 3: 8}
        assert result.verdict is Verdict.UNKNOWN
        assert solve(formula).model_count == 0


def _messy_raw(rng: random.Random, n: int) -> RawCnf:
    clauses = []
    for _ in range(rng.randint(0, 14)):
        width = rng.randint(1, n + 2)  # beyond n forces repeats or tautologies
        lits = tuple(
            (rng.randrange(n) + 1) * (-1 if rng.random() < 0.5 else 1)
            for _ in range(width)
        )
        clauses.append(lits)
        if rng.random() < 0.25:
            clauses.append(lits)
    return RawCnf(n, tuple(clauses))


def test_09_normalizer_preserves_model_set():
    with criterion(9, "normalizer-model-preservation"):
        rng = random.Random(777)
        for _ in range(10_000):
            n = rng.randint(1, 10)
            raw = _messy_raw(rng, n)
            formula, _ = normalize(raw)
            before = raw_model_bitmap(n, raw.clauses)
            after = raw_model_bitmap(n, [c.literals() for c in formula.clauses])
            assert before == after
            again, stats = normalize(
                RawCnf(n, tuple(c.literals() for c in formula.clauses))
            )
            assert again == formula
            assert stats.duplicate_literals_removed == 0
            assert stats.tautological_clauses_dropped == 0
            assert stats.duplicate_clauses_dropped == 0


def test_10_counting_identities():
    with criterion(10, "counting-identities"):
        for n in range(1, 31):
            t = bounds_for(n)
            assert t.m == sum(2**k * comb(n, k) for k in range(1, n + 1)) == 3**n - 1
            assert t.r == sum(comb(n, k) for k in range(1, n + 1)) == 2**n - 1
            assert t.s == sum(comb(n - 1, k) for k in range(n)) == 2 ** (n - 1)
            assert t.f == t.m - t.r == 3**n - 2**n
            assert t.g == t.m - t.r - t.s == 3**n - 2**n - 2 ** (n - 1)
            assert t.v == t.p + t.q
        for n in range(1, 30):
            assert bounds_for(n + 1).r == bounds_for(n).r + 2**n
            assert bounds_for(n + 1).s == bounds_for(n).s + 2 ** (n - 1)
