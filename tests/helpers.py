"""Shared test builders: a compact clause DSL, the golden 17-clause formula,
and the independent references `naive_model_set` (for the oracle),
`naive_normalize` (for the normalizer), `naive_census` (for the
occurrence census), `naive_universe` (for the clause enumeration),
`naive_strata` (for the exhaustive verify campaign) and
`naive_sample_strata` (for the sampled one).

``cl("a ~b c")`` builds a clause from space-separated letters, ``~`` (or
``-``) marking negation; ``pf(n, "a, ~b, a b")`` builds a formula from
comma-separated clauses.
"""
from __future__ import annotations

import contextlib
import gc
import itertools
import random
from pathlib import Path
from typing import Sequence

from pcnfrange import (
    Clause,
    Counterexample,
    EmptyClauseError,
    NormalizationStats,
    OccurrenceCensus,
    PcnfFormula,
    RawCnf,
    StratumReport,
    enumerate_clauses,
    model_bitmap,
)
from pcnfrange.formula import clause_sort_key

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_CNF = FIXTURES / "detector_blind_n3_m17.cnf"


@contextlib.contextmanager
def collector_set(enabled: bool):
    """Run the block with the cyclic collector enabled or disabled, then
    restore the setting found on entry."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def lit(token: str) -> int:
    """The DIMACS literal of a letter token: ``a`` is 1, ``~b`` is -2."""
    variable = ord(token.lstrip("~-")) - ord("a") + 1
    return -variable if token[0] in "~-" else variable


def cl(spec: str) -> Clause:
    return Clause.from_literals(lit(tok) for tok in spec.split())


def pf(n: int, spec: str) -> PcnfFormula:
    clauses = [cl(part) for part in spec.split(",")] if spec.strip() else []
    return PcnfFormula.from_clauses(n, clauses)


def raw(n: int, spec: str) -> RawCnf:
    clauses = tuple(
        tuple(lit(tok) for tok in part.split()) for part in spec.split(",")
    ) if spec.strip() else ()
    return RawCnf(n, clauses)


# The natural-range unsatisfiable formula that defeats every detector:
# variable counts {a:13, b:12, c:12}, literal counts
# {a:8, ~a:5, b:5, ~b:7, c:5, ~c:7}, class counts
# {a:1, b:1, c:1, ab:3, ac:3, bc:2, abc:6}.
GOLDEN_SPEC = (
    "a, ~b, ~c,"
    " a b, a ~b, ~a ~b,"
    " a c, a ~c, ~a ~c,"
    " b c, ~b ~c,"
    " a b ~c, a ~b c, a ~b ~c, ~a b c, ~a b ~c, ~a ~b c"
)


def golden_formula() -> PcnfFormula:
    return pf(3, GOLDEN_SPEC)


def naive_model_set(
    num_vars: int, clauses: Sequence[Sequence[int]]
) -> set[tuple[bool, ...]]:
    """Bitmask-free reference evaluation, one DIMACS literal at a time.

    Slow by design; exists to check that the oracle's mask encoding and
    truth tables are faithful.
    """
    models = set()
    for bits in range(2**num_vars):
        values = tuple(bool(bits >> v & 1) for v in range(num_vars))
        if all(
            any(values[abs(lit) - 1] != (lit < 0) for lit in clause)
            for clause in clauses
        ):
            models.add(values)
    return models


def naive_normalize(raw_cnf: RawCnf) -> tuple[PcnfFormula, NormalizationStats]:
    """`normalize` by sets: each clause's literals as a set, the distinct
    non-tautological ones as a set of (positive, negative) mask pairs,
    sorted by `clause_sort_key`.

    Shares no code with the normalizer's per-width sort and dedupe; exists
    to check it.
    """
    distinct = set()
    dup_literals = tautologies = 0
    for clause in raw_cnf.clauses:
        if not clause:
            raise EmptyClauseError("input contains an empty clause")
        literals = set(clause)
        dup_literals += len(clause) - len(literals)
        if any(-lit in literals for lit in literals):
            tautologies += 1
            continue
        pos = sum(1 << (lit - 1) for lit in literals if lit > 0)
        neg = sum(1 << (-lit - 1) for lit in literals if lit < 0)
        distinct.add((pos, neg))
    clauses = sorted((Clause(pos, neg) for pos, neg in distinct), key=clause_sort_key)
    stats = NormalizationStats(
        duplicate_literals_removed=dup_literals,
        tautological_clauses_dropped=tautologies,
        duplicate_clauses_dropped=len(raw_cnf.clauses) - tautologies - len(distinct),
        literals_scanned=sum(map(len, raw_cnf.clauses)),
    )
    return PcnfFormula(raw_cnf.num_vars, tuple(clauses)), stats


def naive_census(formula: PcnfFormula) -> OccurrenceCensus:
    """Occurrence counts read off each mask's binary digits, one clause at a
    time.

    Slow by design and sharing no code with the census's bit-sliced counter
    or with `bit_indices`; exists to check them.
    """
    n = formula.num_vars
    pos = [0] * n
    neg = [0] * n
    for clause in formula.clauses:
        for counts, mask in ((pos, clause.pos_mask), (neg, clause.neg_mask)):
            digits = bin(mask)[:1:-1]  # least significant digit first
            v = digits.find("1")
            while v >= 0:
                counts[v] += 1
                v = digits.find("1", v + 1)
    totals = tuple(p + q for p, q in zip(pos, neg))
    return OccurrenceCensus(totals, tuple(pos), tuple(neg))


def naive_universe(n: int) -> tuple[Clause, ...]:
    """Every disjoint (pos, neg) mask pair with a bit set, sorted by
    `clause_sort_key`.

    Slow by design and sharing no code with the enumeration's per-width int
    keys; exists to check them.
    """
    clauses = (
        Clause(pos, neg)
        for pos in range(1 << n)
        for neg in range(1 << n)
        if not pos & neg and pos | neg
    )
    return tuple(sorted(clauses, key=clause_sort_key))


def naive_strata(
    n: int, ranges: Sequence[tuple[str, int, int]]
) -> tuple[StratumReport, ...]:
    """The stratum reports of an exhaustive `verify_bounds` campaign, one
    formula at a time: every ``itertools.combinations`` subset of the
    universe for each clause count in each ``(name, lo, hi)`` range, its
    models counted by `model_bitmap`.

    Slow by design and sharing no code with the campaign's walk; exists to
    check its pruning and its counterexample order.
    """
    universe = enumerate_clauses(n)
    ceiling = {"natural_range": 1, "beyond_f": 0}
    reports = []
    for name, lo, hi in ranges:
        checked = most = 0
        found = []
        for size in range(lo, hi + 1):
            for indices in itertools.combinations(range(len(universe)), size):
                models = model_bitmap(n, map(universe.__getitem__, indices)).bit_count()
                checked += 1
                most = max(most, models)
                if models > ceiling[name]:
                    found.append(Counterexample(name, size, indices, models))
        reports.append(StratumReport(name, lo, hi, checked, most, tuple(found)))
    return tuple(reports)


def naive_sample_strata(
    n: int, ranges: Sequence[tuple[str, int, int]], count: int, seed: int
) -> tuple[StratumReport, ...]:
    """The stratum reports of a sampled `verify_bounds` campaign, one draw at
    a time: replays ``random.Random(seed)``, drawing each clause count with
    ``randint`` over the union of the contiguous ``(name, lo, hi)`` ranges
    and then its clause indices by rejection, and counts every formula's
    models with `model_bitmap`.

    Slow by design and sharing no code with the campaign's inlined count
    draw, its index draw or its model-free counters; exists to check them.
    """
    universe = enumerate_clauses(n)
    m = len(universe)
    ceiling = {"natural_range": 1, "beyond_f": 0}
    tallies = {name: [0, 0, []] for name, _, _ in ranges}
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(ranges[0][1], ranges[-1][2])
        # Draw the smaller side of the split by rejection on
        # getrandbits(bit_length(m)); the formula is its complement when
        # that side is the one left out.
        target = min(size, m - size)
        chosen: set[int] = set()
        while len(chosen) < target:
            v = rng.getrandbits(m.bit_length())
            if v < m:
                chosen.add(v)
        if target == size:
            indices = tuple(sorted(chosen))
        else:
            indices = tuple(i for i in range(m) if i not in chosen)
        models = model_bitmap(n, [universe[i] for i in indices]).bit_count()
        (name,) = [nm for nm, lo, hi in ranges if lo <= size <= hi]
        tally = tallies[name]
        tally[0] += 1
        tally[1] = max(tally[1], models)
        if models > ceiling[name]:
            tally[2].append(Counterexample(name, size, indices, models))
    reports = []
    for name, lo, hi in ranges:
        checked, most, found = tallies[name]
        reports.append(StratumReport(name, lo, hi, checked, most, tuple(found)))
    return tuple(reports)
