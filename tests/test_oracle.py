import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnfrange import (
    OracleVerdict,
    PcnfFormula,
    TooManyVariablesError,
    max_sat_construction,
    model_bitmap,
    raw_model_bitmap,
    sample_pcnf,
    solve,
)
from pcnfrange.formula import Clause, bit_indices, clause_satisfied
from pcnfrange.oracle import _TABLE_VARS, _ZEROS, MODEL_RETENTION_CAP

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


def test_variable_tables_match_their_closed_form():
    # Variable v is False on a run of 2^v assignments in every 2^(v+1), so
    # its table is (2^(2^v) - 1) * (2^(2^16) - 1) / (2^(2^(v+1)) - 1): the
    # quotient below, derived apart from the recurrence that builds it.
    assert len(_ZEROS) == _TABLE_VARS == 16
    for v in range(_TABLE_VARS):
        assert _ZEROS[v] == ((1 << (1 << 16)) - 1) // ((1 << (1 << v)) + 1)


def test_clause_bitmap_small():
    # over assignments 0..3: v0 holds in {1, 3}, v1 in {2, 3}
    assert model_bitmap(2, [Clause(0b01, 0)]) == 0b1010
    assert model_bitmap(2, [Clause(0b10, 0)]) == 0b1100
    assert model_bitmap(2, [Clause(0, 0b01)]) == 0b0101
    assert model_bitmap(2, [Clause(0, 0)]) == 0  # an empty clause has no model


def test_clause_bitmap_matches_direct_evaluation():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        occ = rng.randint(1, (1 << n) - 1)
        pos = rng.randint(0, (1 << n) - 1) & occ
        neg = occ ^ pos
        bm = model_bitmap(n, [Clause(pos, neg)])
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


# model_bitmap tables up to _TABLE_VARS variables and splits on the ones
# above, so these tests reach three variables past the tables; those cases
# take seconds each.
KERNEL_NS = [
    pytest.param(n, marks=pytest.mark.slow) if n > _TABLE_VARS else n
    for n in range(1, _TABLE_VARS + 4)
]


def kernel_clauses(rng, n):
    """A clause over the tabled variables only, one over the higher ones
    only and one over both (those that exist at n), plus the empty one."""
    low, high = range(min(n, _TABLE_VARS)), range(_TABLE_VARS, n)
    picks = [rng.sample(low, min(3, len(low)))]
    if high:
        picks.append(rng.sample(high, min(3, len(high))))
        picks.append([rng.choice(low), *rng.sample(high, min(2, len(high)))])
    clauses = [Clause(0, 0)]
    for variables in picks:
        neg = sum(1 << v for v in variables if rng.getrandbits(1))
        clauses.append(Clause(sum(1 << v for v in variables) ^ neg, neg))
    return clauses


def truth_table(n, satisfied):
    """The int whose bit a is ``satisfied(a)``, one assignment at a time."""
    return int("".join("1" if satisfied(a) else "0" for a in reversed(range(1 << n))), 2)


@pytest.mark.parametrize("n", KERNEL_NS)
def test_clause_bitmap_matches_per_assignment_evaluation(n):
    # Past the tables a clause's bitmap comes through model_bitmap's split.
    rng = random.Random(n)
    for c in kernel_clauses(rng, n):
        assert model_bitmap(n, [c]) == truth_table(n, lambda a: clause_satisfied(c, a))


@pytest.mark.parametrize("n", KERNEL_NS)
def test_model_bitmaps_match_the_naive_evaluator_on_both_sides_of_the_tables(n):
    # Unit clauses pin all but three variables, so the model set stays small
    # while the other clauses cross the tabled/doubled boundary.
    rng = random.Random(1000 + n)
    pinned = rng.sample(range(n), max(0, n - 3))
    clauses = kernel_clauses(rng, n)[1:] + [
        Clause(0, 1 << v) if rng.getrandbits(1) else Clause(1 << v, 0) for v in pinned
    ]
    literals = [c.literals() for c in clauses]
    naive = naive_model_set(n, literals)
    bitmap = model_bitmap(n, clauses)
    models = {tuple(bool(a >> v & 1) for v in range(n)) for a in bit_indices(bitmap)}
    assert models == naive
    # Raw clauses: repeated literals collapse and a tautology is skipped.
    raw = [lits + lits[:1] for lits in literals] + [(1, -1)]
    assert raw_model_bitmap(n, raw) == bitmap
    assert raw_model_bitmap(n, raw + [()]) == 0  # the empty clause: no model
    assert model_bitmap(n, [Clause(0, 0)]) == 0


@pytest.mark.slow
def test_a_clause_over_split_variables_only_empties_one_block():
    # x17 or x18 at n = 18: both are above the tables, so the branch with
    # both False is left with the empty clause, and its 2^16 block is 0.
    bitmap = model_bitmap(18, [Clause.from_literals([17, 18])])
    assert bitmap.bit_count() == 3 << 16
    assert bitmap & ((1 << (1 << 16)) - 1) == 0
    models = {tuple(bool(a >> v & 1) for v in range(18)) for a in bit_indices(bitmap)}
    assert models == naive_model_set(18, [(17, 18)])


def test_variables_past_num_vars_are_ignored():
    # As with the per-variable loop the kernel replaced: such a literal
    # leaves an empty clause, and never shifts a table by 2^26 bits.  Bits
    # between n and _TABLE_VARS index real tables, and are dropped too.
    assert raw_model_bitmap(3, [(-27,)]) == raw_model_bitmap(3, [()]) == 0
    assert model_bitmap(3, [Clause(1 << 30, 1 << 26)]) == 0
    assert model_bitmap(3, [Clause(1 << 10, 0)]) == 0
    assert model_bitmap(3, [Clause(1 | 1 << 10, 0)]) == model_bitmap(3, [Clause(1, 0)])


def test_variables_past_num_vars_are_ignored_across_the_split():
    # At n = 20 such literals ride through model_bitmap's split on the
    # variables above the tables and are dropped by the kernel.
    assert raw_model_bitmap(20, [(-27,)]) == 0
    assert raw_model_bitmap(20, [(5, -27)]) == raw_model_bitmap(20, [(5,)])


# Seeded random 3-CNF at the ratio 4.25 over the oracle's ceiling of 24
# variables; the child prints its own peak RSS.  ru_maxrss would report the
# pytest process's, which the child inherits across fork and exec.
SOLVE_AT_THE_CEILING = """
import random
from pcnfrange import Clause, PcnfFormula, solve
rng = random.Random(24)
clauses = set()
while len(clauses) < 102:
    variables = rng.sample(range(1, 25), 3)
    clauses.add(Clause.from_literals(v if rng.getrandbits(1) else -v for v in variables))
print(solve(PcnfFormula.from_clauses(24, clauses)).model_count)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_solve_at_the_ceiling_peaks_under_64_mb():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_AT_THE_CEILING],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    model_count, peak_kb = map(int, proc.stdout.split())
    assert model_count == 5
    assert peak_kb < 64 * 1024
