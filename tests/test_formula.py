import gc
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcnfrange import (
    Clause,
    PcnfFormula,
    RawCnf,
    all_true,
    clause_satisfied,
    enumerate_clauses,
)
from pcnfrange import formula as formula_module
from pcnfrange.formula import (
    bit_indices,
    canonical_clauses,
    clause_sort_key,
    literal_masks,
)

from tests.helpers import cl, collector_set


def test_unit_clause_satisfied_by_matching_assignment():
    assert clause_satisfied(cl("a"), 0b1)


def test_complement_falsified_by_matching_assignment():
    assert not clause_satisfied(cl("~a"), 0b1)


def test_all_negative_clause_falsified_by_all_true():
    assert not clause_satisfied(cl("~a ~b ~c"), 0b111)


def test_canonical_key_strips_polarity_and_sorts():
    def key(c):
        return bit_indices(c.pos_mask | c.neg_mask)

    assert key(cl("a ~b")) == (0, 1)
    assert key(cl("~c")) == (2,)
    assert key(cl("~a b ~c")) == (0, 1, 2)


# The constructor trusts its masks; the validating factories check them.
def test_clause_rejects_polarity_overlap():
    with pytest.raises(ValueError, match="variable and its complement"):
        Clause.from_literals([1, 2, -1])
    with pytest.raises(ValueError, match=r"complement \(pos=0x3, neg=0x1\)"):
        PcnfFormula.from_clauses(2, [cl("a"), Clause(0b11, 0b01)])


def test_clause_rejects_empty():
    with pytest.raises(ValueError, match="empty clause"):
        Clause.from_literals([])
    with pytest.raises(ValueError, match="empty clause"):
        PcnfFormula.from_clauses(2, [cl("a"), Clause(0, 0)])


def test_clause_rejects_negative_masks():
    for pos, neg in ((-1, 0), (0, -2), (-1, -2)):
        with pytest.raises(ValueError, match="non-negative"):
            PcnfFormula.from_clauses(2, [Clause(pos, neg)])


def test_clause_is_a_value_type_not_a_tuple():
    # A NamedTuple or tuple subclass fails every one of these.
    c = Clause(1, 0)
    assert c != (1, 0) and (1, 0) != c
    assert c == Clause(1, 0) and hash(c) == hash(Clause(1, 0))
    assert len({c, Clause(1, 0), Clause(0, 1)}) == 2
    assert repr(Clause(1, 2)) == "Clause(pos_mask=1, neg_mask=2)"
    with pytest.raises(TypeError):
        sorted([Clause(2, 0), Clause(1, 0)])
    with pytest.raises(TypeError):
        iter(c)


def test_from_literals_collapses_repeats():
    c = Clause.from_literals([1, 1, -2])
    assert (c.pos_mask, c.neg_mask) == (0b01, 0b10)


def test_from_literals_rejects_tautology():
    with pytest.raises(ValueError):
        Clause.from_literals([1, -1])


def test_clause_width_and_literals():
    c = cl("a ~b ~d")
    assert c.width == 3
    assert c.literals() == (1, -2, -4)


def test_bit_indices():
    assert bit_indices(0) == ()
    assert bit_indices(0b101101) == (0, 2, 3, 5)


def test_bit_indices_does_not_cache_wide_masks():
    cache = formula_module._BIT_INDEX_CACHE
    rng = random.Random(5)
    for width in (1, 2, 15, 16, 17, 33, 64, 100, 1000, 5000):
        size = len(cache)
        top = 1 << (width - 1)
        for _ in range(20):
            dense = rng.getrandbits(width) | top
            sparse = sum(1 << b for b in rng.sample(range(width), min(width, 3))) | top
            for mask in (dense, sparse, 2 * top - 1):
                assert bit_indices(mask) == tuple(v for v in range(width) if mask >> v & 1)
        if width > 16:
            assert len(cache) == size
    assert all(mask < 1 << 16 for mask in cache)
    assert bit_indices((1 << 16) - 1) is cache[(1 << 16) - 1]


def test_full_positive_clause_satisfied_by_every_nonzero_assignment():
    for n in range(1, 5):
        c = Clause(all_true(n), 0)
        for a in range(1, 1 << n):
            assert clause_satisfied(c, a)
        assert not clause_satisfied(c, 0)


def test_each_assignment_falsifies_exactly_one_polarity_pattern():
    # Over a fixed width-k variable set, the 2^k polarity patterns partition
    # the assignment space by which one each assignment falsifies.
    for k in range(1, 5):
        occ = (1 << k) - 1
        patterns = [Clause(pos, occ ^ pos) for pos in range(1 << k)]
        for a in range(1 << k):
            falsified = [c for c in patterns if not clause_satisfied(c, a)]
            assert len(falsified) == 1


@given(st.integers(1, 8), st.data())
def test_clause_satisfied_matches_literal_semantics(n, data):
    occ = data.draw(st.integers(1, (1 << n) - 1))
    pos = data.draw(st.integers(0, (1 << n) - 1)) & occ
    c = Clause(pos, occ ^ pos)
    a = data.draw(st.integers(0, (1 << n) - 1))
    expected = any(bool(a >> (abs(l) - 1) & 1) != (l < 0) for l in c.literals())
    assert clause_satisfied(c, a) == expected


def test_raw_cnf_rejects_out_of_range_literal():
    # the message names the first offender in clause order
    for n, clauses, first in [
        (1, ((2,),), "2"),
        (1, ((-2,),), "-2"),
        (3, ((1, 0, 2),), "0"),
        (3, ((1, 2), (), (3, 5, -7), (0,)), "5"),
        (3, ((1,), (-7, 5)), "-7"),
        (3, ((2, -2), (-3, 0), (), (4,)), "0"),
        (0, ((), (1,)), "1"),
        (2, ((1,), (-2, 1), (-3,)), "-3"),
    ]:
        with pytest.raises(ValueError, match=rf"^literal {first} out of range for {n} variables$"):
            RawCnf(n, clauses)
    assert RawCnf(3, ((1, -3, 3),)).clauses == ((1, -3, 3),)
    assert RawCnf(3, ((), (-3, 3), ())).clauses == ((), (-3, 3), ())
    assert RawCnf(0, ((), ())).clauses == ((), ())


def test_raw_cnf_flags_empty_clause():
    assert () in RawCnf(2, ((),)).clauses
    assert () not in RawCnf(2, ((1,),)).clauses


def test_from_clauses_sorts_canonically():
    f = PcnfFormula.from_clauses(2, [cl("a b"), cl("~a"), cl("b")])
    assert f.clauses == (cl("~a"), cl("b"), cl("a b"))
    assert [clause_sort_key(c) for c in f.clauses] == sorted(
        clause_sort_key(c) for c in f.clauses
    )


def test_canonical_clauses_sorts_mixed_widths_given_out_of_order():
    clauses = [cl("a b ~c"), cl("~a ~b ~c"), cl("a"), cl("~b"), cl("a ~c"), cl("~a b")]
    keys_by_width = {}
    for c in clauses:
        keys_by_width.setdefault(c.width, []).append(c.pos_mask << 3 | c.neg_mask)
    assert list(keys_by_width) == [3, 1, 2]
    for keys in keys_by_width.values():  # each width's list comes sorted
        keys.sort()
    assert canonical_clauses(3, keys_by_width) == tuple(sorted(clauses, key=clause_sort_key))
    assert keys_by_width == {3: [], 1: [], 2: []}  # each width's list consumed
    assert canonical_clauses(3, {}) == ()


@pytest.mark.parametrize("enabled", [True, False])
def test_canonical_clauses_restores_the_collector_when_the_build_fails(enabled):
    with collector_set(enabled):
        with pytest.raises(TypeError):
            canonical_clauses(3, {1: ["not a key"]})
        assert gc.isenabled() is enabled


def test_from_clauses_rejects_duplicates():
    with pytest.raises(ValueError):
        PcnfFormula.from_clauses(2, [cl("a b"), cl("a b")])


def test_from_clauses_rejects_out_of_universe_variables():
    with pytest.raises(ValueError):
        PcnfFormula.from_clauses(1, [cl("a b")])


def test_from_clauses_accepts_any_variable_count():
    f = PcnfFormula.from_clauses(1000, [cl("a"), Clause(0, 1 << 999)])
    assert f.num_vars == 1000
    assert f.clauses[0].literals() == (-1000,)
    with pytest.raises(ValueError):
        PcnfFormula.from_clauses(-1, [])


def test_occurring_variables():
    f = PcnfFormula.from_clauses(4, [cl("a"), cl("a ~c")])
    assert f.occurring_variables() == (0, 2)


def test_literal_masks():
    assert literal_masks([]) == (0, 0)
    assert literal_masks([3, -1, 3]) == (0b100, 0b001)
    assert literal_masks([2, -2]) == (0b10, 0b10)
    with pytest.raises(ValueError, match="0 is not"):
        literal_masks([1, 0])


def test_literals_round_trip_over_the_universe():
    for n in range(1, 5):
        for c in enumerate_clauses(n):
            lits = c.literals()
            assert all(isinstance(lit, int) and 0 < abs(lit) <= n for lit in lits)
            assert [abs(lit) for lit in lits] == sorted(abs(lit) for lit in lits)
            assert Clause.from_literals(lits) == c
