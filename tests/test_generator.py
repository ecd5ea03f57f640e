import dataclasses
import gc
import hashlib
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from pcnfrange import (
    BudgetExceededError,
    Construction,
    TightnessReport,
    VerifyMode,
    all_true,
    bounds_for,
    clause_distribution,
    clause_satisfied,
    double_sat_construction,
    enumerate_clauses,
    max_sat_construction,
    model_bitmap,
    sample_pcnf,
    solve,
    verify_bounds,
)
from pcnfrange.generate import (
    _MODEL_CEILING,
    EnumerationCapError,
    _Bitmaps,
    _draws,
    _resident,
    _tightness,
    _universe,
    _walk,
)

from tests.helpers import (
    cl,
    collector_set,
    naive_sample_strata,
    naive_strata,
    naive_universe,
)


def width_histogram(clauses):
    top = max((c.width for c in clauses), default=0)
    hist = [0] * top
    for c in clauses:
        hist[c.width - 1] += 1
    return tuple(hist)


def test_universe_n1():
    assert enumerate_clauses(1) == (cl("~a"), cl("a"))


def test_universe_n2_exact():
    expected = {
        cl("a"), cl("~a"), cl("b"), cl("~b"),
        cl("a b"), cl("a ~b"), cl("~a b"), cl("~a ~b"),
    }
    assert set(enumerate_clauses(2)) == expected


def test_universe_n3_histogram():
    assert width_histogram(enumerate_clauses(3)) == (6, 12, 8)


@pytest.mark.parametrize("n", range(1, 13))
def test_universe_size_and_histogram_match_distribution(n):
    universe = enumerate_clauses(n)
    assert len(universe) == bounds_for(n).m
    assert width_histogram(universe) == clause_distribution(n, Construction.ALL)


def test_universe_is_canonically_ordered_and_duplicate_free():
    # Every n up to the cap: with the size and histogram test, this pins the
    # whole universe where the naive enumeration (n <= 6) cannot reach.
    for n in range(1, 13):
        universe = enumerate_clauses(n)
        keys = [(c.width, c.pos_mask, c.neg_mask) for c in universe]
        assert keys == sorted(keys)
        assert len(set(universe)) == len(universe)
        # A valid PCNF clause over n variables: disjoint, nonzero masks below 2^n.
        top = 1 << n
        assert [(p, q) for _, p, q in keys if p & q or not 0 < p | q < top] == []


@pytest.mark.parametrize("n", range(1, 7))
def test_universe_matches_the_naive_enumeration(n):
    assert enumerate_clauses(n) == naive_universe(n)


@pytest.mark.parametrize("enabled", [True, False])
def test_universe_build_leaves_the_collector_as_it_found_it(enabled):
    # The build pauses the cyclic collector; a caller's setting survives it.
    with collector_set(enabled):
        for n in range(1, 7):
            _resident.clear()
            enumerate_clauses(n)
            assert gc.isenabled() is enabled


def test_universe_shares_one_int_per_mask_value_in_bounded_memory():
    # 59,048 clauses over 1,024 mask values, most of them above CPython's
    # cached small ints: unshared masks cost about 91 B per clause retained
    # and 132 B at peak, with some 65k mask objects.
    n = 10
    gc.collect()
    tracemalloc.start()
    try:
        universe = _universe(n)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(universe) == 3**n - 1
    assert retained <= 64 * len(universe)
    assert peak <= 80 * len(universe)
    masks = {id(c.pos_mask) for c in universe} | {id(c.neg_mask) for c in universe}
    assert len(masks) <= 1 << n


def test_one_universe_is_resident_at_a_time():
    # A call with another n drops the resident universe before building its
    # own: held beside the n = 12 one, the n = 11 universe would add about
    # 19 B per n = 12 clause, retained and at peak.
    _resident.clear()
    gc.collect()
    tracemalloc.start()
    try:
        enumerate_clauses(11)
        tracemalloc.reset_peak()
        universe = enumerate_clauses(12)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(universe) == 3**12 - 1
    assert retained <= 64 * len(universe)
    assert peak <= 80 * len(universe)
    assert enumerate_clauses(12) is universe


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_clauses(13)


def test_max_sat_n2_exact():
    f = max_sat_construction(2)
    assert set(f.clauses) == {cl("a"), cl("b"), cl("a b"), cl("a ~b"), cl("~a b")}


def test_max_sat_n3_exact():
    f = max_sat_construction(3)
    assert len(f.clauses) == 19
    assert width_histogram(f.clauses) == (3, 9, 7)
    expected = {
        cl("a"), cl("b"), cl("c"),
        cl("a b"), cl("a ~b"), cl("~a b"),
        cl("a c"), cl("a ~c"), cl("~a c"),
        cl("b c"), cl("b ~c"), cl("~b c"),
        cl("a b c"), cl("a b ~c"), cl("a ~b c"), cl("a ~b ~c"),
        cl("~a b c"), cl("~a b ~c"), cl("~a ~b c"),
    }
    assert set(f.clauses) == expected


def test_max_sat_n1():
    assert max_sat_construction(1).clauses == (cl("a"),)


def test_double_sat_n2_exact():
    f = double_sat_construction(2, flip_var=0)
    assert set(f.clauses) == {cl("b"), cl("a b"), cl("~a b")}


def test_double_sat_n3_exact():
    f = double_sat_construction(3, flip_var=0)
    assert width_histogram(f.clauses) == (2, 7, 6)
    expected = {
        cl("b"), cl("c"),
        cl("a b"), cl("~a b"), cl("a c"), cl("~a c"),
        cl("b c"), cl("b ~c"), cl("~b c"),
        cl("a b c"), cl("a b ~c"), cl("a ~b c"),
        cl("~a b c"), cl("~a b ~c"), cl("~a ~b c"),
    }
    assert set(f.clauses) == expected


def test_double_sat_n5_histogram():
    f = double_sat_construction(5, flip_var=0)
    assert len(f.clauses) == 195
    assert width_histogram(f.clauses) == (4, 26, 64, 71, 30)


def test_double_sat_n1_is_the_empty_formula():
    f = double_sat_construction(1)
    assert f.clauses == ()
    assert solve(f).model_count == 2


def test_double_sat_models_are_witness_pair():
    f = double_sat_construction(4, witness=0b1011, flip_var=2)
    r = solve(f)
    assert r.model_count == 2
    assert set(r.models) == {0b1011, 0b1111}


def _mask_arrays(n):
    universe = enumerate_clauses(n)
    pos = np.fromiter((c.pos_mask for c in universe), dtype=np.int64)
    neg = np.fromiter((c.neg_mask for c in universe), dtype=np.int64)
    return pos, neg


@pytest.mark.parametrize("n", range(2, 11))
def test_max_sat_count_is_witness_independent(n):
    # counts clauses satisfied by w, vectorized over the whole universe,
    # for every one of the 2^n witnesses
    pos, neg = _mask_arrays(n)
    full = (1 << n) - 1
    f = bounds_for(n).f
    for w in range(1 << n):
        satisfied = ((pos & w) | (neg & (w ^ full))) != 0
        assert int(satisfied.sum()) == f


@pytest.mark.parametrize("n", range(1, 11))
def test_double_sat_count_is_witness_and_flip_independent(n):
    pos, neg = _mask_arrays(n)
    full = (1 << n) - 1
    g = bounds_for(n).g
    witnesses = range(1 << n) if n <= 8 else random.Random(n).sample(range(1 << n), 64)
    for w in witnesses:
        sat_w = ((pos & w) | (neg & (w ^ full))) != 0
        for flip in range(n):
            w2 = w ^ (1 << flip)
            sat_w2 = ((pos & w2) | (neg & (w2 ^ full))) != 0
            assert int((sat_w & sat_w2).sum()) == g


@pytest.mark.parametrize("n", range(2, 7))
def test_max_sat_is_maximal(n):
    w = all_true(n)
    f = max_sat_construction(n, w)
    inside = set(f.clauses)
    outside = [c for c in enumerate_clauses(n) if c not in inside]
    assert len(outside) == bounds_for(n).r
    for c in outside:
        assert not clause_satisfied(c, w)


@pytest.mark.parametrize("n", range(1, 7))
def test_double_sat_is_maximal(n):
    w = all_true(n)
    f = double_sat_construction(n, w, flip_var=0)
    w2 = w ^ 1
    inside = set(f.clauses)
    for c in enumerate_clauses(n):
        if c not in inside:
            assert not (clause_satisfied(c, w) and clause_satisfied(c, w2))


def test_sample_full_universe():
    f = sample_pcnf(3, 26, seed=0)
    assert f.clauses == enumerate_clauses(3)


def test_sample_empty():
    assert sample_pcnf(2, 0, seed=1).clauses == ()


def test_sample_distinct_and_sized():
    f = sample_pcnf(3, 17, seed=42)
    assert len(f.clauses) == 17
    assert len(set(f.clauses)) == 17


def test_sample_rejects_oversize():
    with pytest.raises(ValueError, match="cannot draw 9 of the 8 clauses"):
        sample_pcnf(2, 9, seed=0)
    with pytest.raises(ValueError, match="cannot draw -1 of the 8 clauses"):
        sample_pcnf(2, -1, seed=0)


def test_negative_seeds_are_refused():
    # random.Random(-s) seeds with s, so a negative seed would silently
    # repeat the campaign of its absolute value.
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        sample_pcnf(4, 10, -3)
    for mode in VerifyMode:
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            verify_bounds(2, mode, sample_count=10, seed=-1)
    assert sample_pcnf(4, 10, 0).clauses


def test_sample_deterministic_per_seed():
    a = sample_pcnf(4, 30, seed=7)
    b = sample_pcnf(4, 30, seed=7)
    c = sample_pcnf(4, 30, seed=8)
    assert a == b
    assert a != c


def test_sample_indices_cover_both_density_regimes():
    rng = random.Random(3)
    for population, k in [(10, 3), (10, 9), (10, 10), (10, 0), (50, 25), (50, 26)]:
        ((size, candidates, excluded),) = _draws(rng, population, [k])
        got = [i for i in candidates if i not in excluded]
        assert size == k == len(got)
        assert got == sorted(set(got))
        assert all(0 <= i < population for i in got)
        if 2 * k > population:  # the smaller side is drawn, then left out
            assert candidates == range(population) and len(excluded) == population - k
        else:
            assert not excluded


# Universe indices of seeded samples, which must not change with the code
# that draws them: small draws listed, large ones as the sha256 of their
# comma-joined indices.  Sizes above m/2 are drawn as complements.
_SAMPLE_PCNF_STREAM = [
    (3, 5, 0, [1, 8, 12, 13, 24]),
    (3, 13, 1, [0, 2, 3, 4, 6, 8, 12, 14, 15, 18, 20, 24, 25]),
    (3, 14, 1, [0, 1, 5, 7, 9, 10, 11, 13, 16, 17, 19, 21, 22, 23]),
    (3, 20, 0, [0, 2, 3, 4, 5, 6, 7, 9, 10, 11, 14, 15, 17, 18, 19, 20, 21, 22, 23, 25]),
    (6, 364, 3, "34f267a01154cdfd969412dfec34d4b253fac1a3d5f10491b5f3dda9400f2503"),
    (6, 365, 3, "e4ef884fc0fc9acf4932790b51c1cb47d0aadd54891e45a179e78c8f71b4dc8f"),
    (8, 5000, 7, "bebecf8b3e78b7e5e47cdb5de1a78ae849879285e86c340c88b3818cc06bfb6f"),
    (12, 3000, 9, "c4916058737cb22151ac05bbe3135c0fb3ba865bdf10f62464b48787bb19bec1"),
]


@pytest.mark.parametrize("n, m_clauses, seed, expected", _SAMPLE_PCNF_STREAM)
def test_sample_pcnf_stream_is_pinned(n, m_clauses, seed, expected):
    position = {c: i for i, c in enumerate(enumerate_clauses(n))}
    got = [position[c] for c in sample_pcnf(n, m_clauses, seed).clauses]
    if isinstance(expected, str):
        assert len(got) == m_clauses
        got = hashlib.sha256(",".join(map(str, got)).encode()).hexdigest()
    assert got == expected


def test_verify_exhaustive_n2():
    report = verify_bounds(2, VerifyMode.EXHAUSTIVE)
    assert report.ok
    by_name = {s.name: s for s in report.strata}
    beyond = by_name["beyond_f"]
    assert beyond.formulas_checked == comb(8, 6) + comb(8, 7) + comb(8, 8) == 37
    assert beyond.max_models_seen == 0
    assert beyond.counterexamples == ()
    natural = by_name["natural_range"]
    assert natural.formulas_checked == comb(8, 4) + comb(8, 5) == 126
    assert natural.max_models_seen <= 1
    assert natural.counterexamples == ()
    assert report.tightness.max_sat_clause_count == 5
    assert report.tightness.double_sat_clause_count == 3
    assert report.tightness.double_sat_model_count == 2


def test_verify_sampled_deterministic():
    a = verify_bounds(3, VerifyMode.SAMPLE, sample_count=500, seed=21)
    b = verify_bounds(3, VerifyMode.SAMPLE, sample_count=500, seed=21)
    assert a == b
    assert a.ok
    assert sum(s.formulas_checked for s in a.strata) == 500


def test_verify_sample_builds_clause_bitmaps_lazily(monkeypatch):
    # A sampled formula's AND usually reaches 0 within a few clauses, so a
    # campaign must not build a bitmap per universe clause: at n = 12 that
    # would be 531,440 bitmaps of 4,096 bits.  (_tightness builds its own
    # from whole formulas, which this does not count.)
    built = []

    def counting_model_bitmap(n, clauses):
        if isinstance(clauses, tuple) and len(clauses) == 1:
            built.append(clauses[0])
        return model_bitmap(n, clauses)

    monkeypatch.setattr("pcnfrange.generate.model_bitmap", counting_model_bitmap)
    report = verify_bounds(8, VerifyMode.SAMPLE, sample_count=200, seed=1)
    assert report.ok
    assert 0 < len(built) < len(enumerate_clauses(8)) // 100


def test_verify_budget_refusal():
    with pytest.raises(BudgetExceededError):
        verify_bounds(3, VerifyMode.EXHAUSTIVE, budget=100_000)


def test_verify_budget_refusal_builds_no_universe(monkeypatch):
    # The refusal needs only m(n); at n=12 building the universe takes a
    # second and summing the exact total took longer.
    def no_universe(*args, **kwargs):
        raise AssertionError("the universe was built before the budget check")

    monkeypatch.setattr("pcnfrange.generate.enumerate_clauses", no_universe)
    with pytest.raises(BudgetExceededError, match="more than 10000000 formulas"):
        verify_bounds(12, VerifyMode.EXHAUSTIVE)


def test_verify_single_stratum_selection():
    report = verify_bounds(3, VerifyMode.EXHAUSTIVE, include_natural_range=False)
    assert [s.name for s in report.strata] == ["beyond_f"]
    assert report.strata[0].formulas_checked == sum(comb(26, k) for k in range(20, 27))


def test_verify_rejects_empty_selection():
    with pytest.raises(ValueError):
        verify_bounds(2, VerifyMode.EXHAUSTIVE, include_beyond_f=False,
                      include_natural_range=False)


def test_verify_n1_double_sat_tightness_is_the_empty_formula():
    for mode in VerifyMode:
        report = verify_bounds(1, mode, sample_count=100)
        assert report.ok
        assert report.tightness.double_sat_clause_count == 0
        assert report.tightness.double_sat_model_count == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_tightness_matches_the_oracle_on_both_constructions(n):
    # _tightness reads the max-sat models off the double-sat bitmap; the
    # oracle solves each construction whole.
    max_sat = max_sat_construction(n)
    double_sat = double_sat_construction(n)
    assert _tightness(n) == TightnessReport(
        len(max_sat.clauses),
        solve(max_sat).model_count,
        len(double_sat.clauses),
        solve(double_sat).model_count,
    )


@pytest.mark.parametrize(
    "mode, kwargs",
    [(VerifyMode.EXHAUSTIVE, {}), (VerifyMode.SAMPLE, {"sample_count": 300, "seed": 4})],
    ids=lambda value: value.value if isinstance(value, VerifyMode) else None,
)
def test_verify_reports_reproducible_counterexamples(monkeypatch, mode, kwargs):
    # f and g lowered by two, so both strata hold formulas that break the
    # claims; every reported one must name clauses that really do.
    true = bounds_for(2)
    lowered = dataclasses.replace(true, f=true.f - 2, g=true.g - 2)
    monkeypatch.setattr("pcnfrange.generate.bounds_for", lambda n: lowered)
    report = verify_bounds(2, mode, **kwargs)
    assert not report.ok
    universe = enumerate_clauses(2)
    ceiling = {"natural_range": 1, "beyond_f": 0}
    for stratum in report.strata:
        assert stratum.counterexamples
        for ce in stratum.counterexamples:
            assert ce.stratum == stratum.name
            assert len(ce.clause_indices) == ce.num_clauses
            assert stratum.clause_count_lo <= ce.num_clauses <= stratum.clause_count_hi
            clauses = [universe[i] for i in ce.clause_indices]
            assert model_bitmap(2, clauses).bit_count() == ce.model_count
            assert ce.model_count > ceiling[stratum.name]


def _lower_bounds(monkeypatch, n, f_by, g_by):
    true = bounds_for(n)
    lowered = dataclasses.replace(true, f=true.f - f_by, g=true.g - g_by)
    monkeypatch.setattr("pcnfrange.generate.bounds_for", lambda n: lowered)
    return lowered


@pytest.mark.parametrize(
    "n, lowered_by, natural",
    # At n=1 with f and g lowered by two the natural range would be M in
    # [-1, -1], which no campaign can enumerate, so only beyond-f runs.
    [(1, 0, True), (2, 0, True), (1, 2, False), (2, 2, True)],
)
def test_verify_exhaustive_matches_brute_force(monkeypatch, n, lowered_by, natural):
    # The walk prunes a prefix at or under its stratum's model ceiling and
    # counts its completions; the reference checks every formula on its own.
    table = _lower_bounds(monkeypatch, n, lowered_by, lowered_by)
    ranges = [("beyond_f", table.f + 1, table.m)]
    if natural:
        ranges.insert(0, ("natural_range", table.g + 1, table.f))
    report = verify_bounds(n, VerifyMode.EXHAUSTIVE, include_natural_range=natural)
    assert report.strata == naive_strata(n, ranges)
    assert report.ok == (lowered_by == 0)


def _clause_bitmaps(n):
    bitmaps = _Bitmaps(enumerate_clauses(n), n)
    return [bitmaps[i] for i in range(len(bitmaps.universe))]


@pytest.mark.slow
@pytest.mark.parametrize(
    "n, ceiling",
    [pytest.param(n, 0, id=str(n)) for n in (1, 2, 3)]
    + [pytest.param(n, 1, id=f"{n}-ceiling1") for n in (1, 2, 3)],
)
def test_walk_covers_every_formula_and_counts_the_model_free_ones_last(n, ceiling):
    # Every clause count, not just the strata's: the leaves above the ceiling
    # come in strictly ascending order and one count of the rest closes each
    # walk.  Streamed, since at n = 3 and 10 clauses the ceiling-0 walk lists
    # 699,557 leaves.
    row = _clause_bitmaps(n)
    m = len(row)
    for size in range(m + 1):
        covered = closed = 0
        last = None
        for count, acc, indices in _walk(row, size, (1 << (1 << n)) - 1, ceiling):
            assert not closed, "an outcome follows the closing count"
            covered += count
            if indices is None:
                assert acc.bit_count() <= ceiling
                closed = 1
            else:
                assert count == 1 and len(indices) == size
                assert acc.bit_count() > ceiling
                assert last is None or indices > last
                last = indices
        assert closed and covered == comb(m, size)


def test_verify_exhaustive_beyond_lowered_f_finds_the_max_sat_formulas(monkeypatch):
    # With f(3) lowered by one, beyond f starts at M = 19 = f(3): exactly the
    # 8 max-sat formulas, one per witness, have a model, in index order.
    table = _lower_bounds(monkeypatch, 3, 1, 0)
    report = verify_bounds(3, VerifyMode.EXHAUSTIVE, include_natural_range=False)
    assert report.strata == naive_strata(3, [("beyond_f", table.f + 1, table.m)])
    universe = enumerate_clauses(3)
    max_sat = sorted(
        tuple(i for i, c in enumerate(universe) if clause_satisfied(c, w))
        for w in range(8)
    )
    found = report.strata[0].counterexamples
    assert [ce.clause_indices for ce in found] == max_sat
    assert {(ce.num_clauses, ce.model_count) for ce in found} == {(19, 1)}


def test_verify_exhaustive_natural_range_n3():
    report = verify_bounds(
        3, VerifyMode.EXHAUSTIVE, include_beyond_f=False, budget=11_000_000
    )
    (natural,) = report.strata
    assert natural.formulas_checked == 10_656_360 == sum(comb(26, k) for k in range(16, 20))
    assert natural.max_models_seen == 1
    assert natural.counterexamples == ()
    assert report.ok


def test_natural_range_walk_n3_yields_only_its_closing_count():
    # Every natural-range prefix is pruned at one model, so no leaf is
    # listed, and each closing count keeps the one model of a max-sat formula.
    row = _clause_bitmaps(3)
    table = bounds_for(3)
    for size in range(table.g + 1, table.f + 1):
        ((count, acc, indices),) = _walk(row, size, (1 << 8) - 1, 1)
        assert (count, acc.bit_count(), indices) == (comb(26, size), 1, None)


def _zero_prune_strata(n, ranges):
    # The tallies of the walk that prunes only model-free prefixes and lists
    # every formula that keeps a model.
    row = _clause_bitmaps(n)
    out = []
    for name, lo, hi in ranges:
        checked = most = 0
        found = []
        for size in range(lo, hi + 1):
            for count, acc, indices in _walk(row, size, (1 << (1 << n)) - 1, 0):
                checked += count
                models = acc.bit_count()
                most = max(most, models)
                if models > _MODEL_CEILING[name]:
                    found.append((size, indices, models))
        out.append((name, checked, most, found))
    return out


@pytest.mark.parametrize(
    "n, f_by, g_by",
    # A stratum that would start below zero clauses is left out, and so is
    # n = 1 lowered by (3, 5), where both would.  The n = 3 cases with g
    # lowered by 3 or more list 0.35-1.33M natural-range formulas and take
    # seconds.
    [
        pytest.param(
            n, f_by, g_by, marks=pytest.mark.slow if n == 3 and g_by >= 3 else ()
        )
        for n in (1, 2, 3)
        for f_by, g_by in [(0, 0), (1, 1), (2, 2), (2, 3), (0, 4), (3, 5)]
        if bounds_for(n).f - f_by >= -1
    ],
)
def test_ceiling_walk_matches_the_zero_prune_walk(monkeypatch, n, f_by, g_by):
    # The ceiling prune must report the same formulas checked, the same most
    # models and the same counterexamples, in the same order, as listing
    # every formula with a model does.
    table = _lower_bounds(monkeypatch, n, f_by, g_by)
    natural = table.g >= -1
    ranges = [("beyond_f", table.f + 1, table.m)]
    if natural:
        ranges.insert(0, ("natural_range", table.g + 1, table.f))
    report = verify_bounds(
        n, VerifyMode.EXHAUSTIVE, include_natural_range=natural, budget=1 << 26
    )
    assert [
        (
            s.name,
            s.formulas_checked,
            s.max_models_seen,
            [(ce.num_clauses, ce.clause_indices, ce.model_count) for ce in s.counterexamples],
        )
        for s in report.strata
    ] == _zero_prune_strata(n, ranges)


# Every counterexample of the seeded sample campaign below, as
# (stratum, num_clauses, clause_indices, model_count), in report order.
_SAMPLE_SEED_4_COUNTEREXAMPLES = [
    ("natural_range", 3, (1, 4, 5), 2),
    ("natural_range", 2, (1, 5), 2),
    ("natural_range", 2, (2, 7), 2),
    ("natural_range", 2, (1, 4), 2),
    ("natural_range", 3, (2, 5, 7), 2),
    ("natural_range", 2, (1, 5), 2),
    ("natural_range", 2, (1, 4), 2),
    ("natural_range", 2, (3, 7), 2),
    ("natural_range", 2, (4, 5), 2),
    ("natural_range", 2, (4, 6), 2),
    ("natural_range", 2, (1, 5), 2),
    ("natural_range", 2, (4, 6), 2),
    ("natural_range", 2, (0, 6), 2),
    ("beyond_f", 4, (3, 4, 6, 7), 1),
    ("beyond_f", 4, (1, 4, 5, 7), 1),
    ("beyond_f", 4, (0, 1, 4, 6), 1),
    ("beyond_f", 5, (1, 2, 4, 5, 7), 1),
    ("beyond_f", 4, (3, 5, 6, 7), 1),
    ("beyond_f", 5, (1, 2, 4, 5, 7), 1),
    ("beyond_f", 4, (0, 1, 4, 5), 1),
    ("beyond_f", 4, (2, 4, 5, 7), 1),
    ("beyond_f", 4, (3, 5, 6, 7), 1),
    ("beyond_f", 4, (0, 4, 6, 7), 1),
    ("beyond_f", 4, (1, 4, 5, 7), 1),
    ("beyond_f", 5, (1, 2, 4, 5, 7), 1),
    ("beyond_f", 4, (2, 3, 5, 7), 1),
    ("beyond_f", 4, (1, 2, 5, 7), 1),
    ("beyond_f", 4, (2, 4, 5, 7), 1),
    ("beyond_f", 4, (0, 4, 5, 6), 1),
]


def _sample_stream(monkeypatch, n, count, seed):
    # Per-stratum counts and maxima, and every counterexample as (stratum,
    # num_clauses, clause_indices, model_count), with f and g lowered by two.
    _lower_bounds(monkeypatch, n, 2, 2)
    report = verify_bounds(n, VerifyMode.SAMPLE, sample_count=count, seed=seed)
    return (
        [s.formulas_checked for s in report.strata],
        [s.max_models_seen for s in report.strata],
        [
            (ce.stratum, ce.num_clauses, ce.clause_indices, ce.model_count)
            for s in report.strata
            for ce in s.counterexamples
        ],
    )


def test_verify_sample_stream_is_pinned(monkeypatch):
    assert _sample_stream(monkeypatch, 2, 300, 4) == (
        [70, 230], [2, 1], _SAMPLE_SEED_4_COUNTEREXAMPLES
    )


def test_verify_sample_stream_through_complements_is_pinned(monkeypatch):
    # Every drawn size is in [56, 80], above m/2 = 40, so each formula is read
    # through the complement of its draw; none of the 200 has a model.
    assert _sample_stream(monkeypatch, 4, 200, 9) == ([65, 135], [0, 0], [])


@pytest.mark.parametrize(
    "selection", [{}, {"include_beyond_f": False}, {"include_natural_range": False}]
)
@pytest.mark.parametrize(
    "n, lowered_by, count, seed",
    # n = 2 and 3 with f and g lowered by two, so both strata keep models
    # and counterexamples; n = 1, where each stratum alone spans one clause
    # count; n = 4 with the true bounds, where draws above m/2 = 40 are read
    # through the complement of their draw.
    [(2, 2, 400, 11), (3, 2, 400, 12), (1, 0, 60, 13), (4, 0, 300, 14)],
)
def test_verify_sample_matches_the_per_draw_reference(
    monkeypatch, n, lowered_by, count, seed, selection
):
    # The reference draws each clause count with randint itself, so this also
    # fails on a Python whose randint reads the stream differently from the
    # campaign's inlined draw.
    table = _lower_bounds(monkeypatch, n, lowered_by, lowered_by)
    ranges = []
    if selection.get("include_natural_range", True):
        ranges.append(("natural_range", table.g + 1, table.f))
    if selection.get("include_beyond_f", True):
        ranges.append(("beyond_f", table.f + 1, table.m))
    report = verify_bounds(n, VerifyMode.SAMPLE, sample_count=count, seed=seed, **selection)
    assert report.strata == naive_sample_strata(n, ranges, count, seed)


def test_verify_sample_benchmark_call_is_pinned():
    # The benchmark's sample call: formulas checked and most models seen per
    # stratum, as the per-draw campaign reported them.
    report = verify_bounds(3, VerifyMode.SAMPLE, sample_count=100_000, seed=1)
    assert [(s.name, s.formulas_checked, s.max_models_seen) for s in report.strata] == [
        ("natural_range", 36_543, 1),
        ("beyond_f", 63_457, 0),
    ]
    assert report.ok
