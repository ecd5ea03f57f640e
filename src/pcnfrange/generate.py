"""Clause-universe enumeration, extremal constructions, and bound-verification
campaigns.

The constructions realize the bounds exactly: keeping only the clauses a
fixed witness satisfies yields the largest satisfiable formula (f(n)
clauses); keeping the clauses two assignments both satisfy (the witness and
the witness with one variable flipped) yields the largest doubly satisfiable
one (g(n) clauses).  `verify_bounds` grinds the claims against the oracle,
exhaustively where the stratum is small enough and by seeded sampling
elsewhere.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterable

from .bounds import BoundsTable, bounds_for
from .formula import (
    Assignment,
    Clause,
    PcnfFormula,
    all_true,
    canonical_clauses,
    clause_satisfied,
    collector_paused,
)
from .oracle import falsifier, model_bitmap, solve

DEFAULT_ENUMERATION_CAP = 12
DEFAULT_BUDGET = 10_000_000


class EnumerationCapError(ValueError):
    """The clause universe for this n is too large to materialize."""


class BudgetExceededError(ValueError):
    """An exhaustive campaign would enumerate more formulas than allowed."""


class VerifyMode(Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLE = "sample"


@lru_cache(maxsize=4)
def _universe(n: int) -> tuple[Clause, ...]:
    # Every polarity split of every nonempty variable subset, keyed
    # pos << n | neg per width and sorted.  `canonical_clauses` builds the
    # up to 531k clauses width by width, emptying each width's keys as it
    # goes, with the collector paused; the pass it defers runs here, not in
    # the caller's next loop.  The 3^n - 1 clauses outnumber the 2^n mask
    # values, so they share one int per mask value: about 56 B per clause.
    by_width: dict[int, list[int]] = {w: [] for w in range(1, n + 1)}
    for occ in range(1, 1 << n):
        keys = by_width[occ.bit_count()]
        sub = occ
        while True:
            keys.append(sub << n | occ ^ sub)
            if sub == 0:
                break
            sub = (sub - 1) & occ
    for keys in by_width.values():
        keys.sort()
    with collector_paused(promote=True):
        return canonical_clauses(n, by_width)


def enumerate_clauses(n: int) -> tuple[Clause, ...]:
    """All 3^n - 1 clauses over n variables, canonically ordered."""
    if n < 1:
        raise ValueError(f"enumeration requires n >= 1, got {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"universe for n={n} has 3^{n}-1 clauses, "
            f"beyond the cap of n={DEFAULT_ENUMERATION_CAP}"
        )
    return _universe(n)


def max_sat_construction(
    n: int, witness: Assignment | None = None
) -> PcnfFormula:
    """The largest satisfiable formula: every clause the witness satisfies.

    Exactly f(n) clauses for any witness; the witness is a model.
    """
    w = all_true(n) if witness is None else witness
    clauses = tuple(c for c in enumerate_clauses(n) if clause_satisfied(c, w))
    return PcnfFormula(n, clauses)


def double_sat_construction(
    n: int, witness: Assignment | None = None, flip_var: int = 0
) -> PcnfFormula:
    """The largest doubly satisfiable formula: clauses satisfied by the
    witness and by the witness with ``flip_var`` flipped.

    Exactly g(n) clauses; precisely those two assignments are models.
    Undefined for n=1, where a formula never has two models.
    """
    if n < 2:
        raise ValueError("double-sat construction requires n >= 2")
    if not 0 <= flip_var < n:
        raise ValueError(f"flip_var {flip_var} out of range for n={n}")
    w = all_true(n) if witness is None else witness
    w_flipped = w ^ (1 << flip_var)
    clauses = tuple(
        c
        for c in enumerate_clauses(n)
        if clause_satisfied(c, w) and clause_satisfied(c, w_flipped)
    )
    return PcnfFormula(n, clauses)


def _draws(rng: random.Random, population: int, sizes: Iterable[int]):
    # Without-replacement scheme, deterministic for a seeded Mersenne-Twister
    # rng: for each size k pulled from sizes, draw min(k, population - k)
    # distinct indices, each by rejection on getrandbits(bit_length(population)).
    # Yields (k, candidates, excluded): the sample is the ascending candidates
    # not excluded, so a complement is read straight off the index range.
    getrandbits = rng.getrandbits
    nbits = population.bit_length()
    every = range(population)
    for k in sizes:
        target = min(k, population - k)
        chosen: set[int] = set()
        add = chosen.add
        while len(chosen) < target:
            v = getrandbits(nbits)
            if v < population:
                add(v)
        yield (k, every, chosen) if target < k else (k, sorted(chosen), ())


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def sample_pcnf(n: int, m_clauses: int, seed: int) -> PcnfFormula:
    """A uniform random ``m_clauses``-subset of the clause universe.

    Index sampling over the canonically ordered universe; identical seeds
    reproduce identical formulas everywhere.  Raises ValueError on a
    negative seed, which `random.Random` would treat as its absolute value.
    """
    _check_seed(seed)
    universe = enumerate_clauses(n)
    if not 0 <= m_clauses <= len(universe):
        raise ValueError(f"cannot draw {m_clauses} of the {len(universe)} clauses for n={n}")
    _, candidates, excluded = next(_draws(random.Random(seed), len(universe), (m_clauses,)))
    return PcnfFormula(n, tuple([universe[i] for i in candidates if i not in excluded]))


@dataclass(frozen=True, slots=True)
class Counterexample:
    """A formula violating a bound claim (none are expected, ever)."""

    stratum: str
    num_clauses: int
    clause_indices: tuple[int, ...]
    model_count: int


@dataclass(frozen=True, slots=True)
class StratumReport:
    name: str
    clause_count_lo: int  # inclusive
    clause_count_hi: int  # inclusive
    formulas_checked: int
    max_models_seen: int
    counterexamples: tuple[Counterexample, ...]


@dataclass(frozen=True, slots=True)
class TightnessReport:
    """The bounds are attained, not merely upper bounds."""

    max_sat_clause_count: int
    max_sat_model_count: int
    double_sat_clause_count: int | None  # None when n=1
    double_sat_model_count: int | None


@dataclass(frozen=True, slots=True)
class VerificationReport:
    n: int
    mode: VerifyMode
    bounds: BoundsTable
    strata: tuple[StratumReport, ...]
    tightness: TightnessReport

    @property
    def ok(self) -> bool:
        """No counterexample, both bounds attained, and no stratum vacuous."""
        if any(s.counterexamples or not s.formulas_checked for s in self.strata):
            return False
        t = self.tightness
        b = self.bounds
        if t.max_sat_clause_count != b.f or t.max_sat_model_count < 1:
            return False
        if t.double_sat_clause_count is not None and (
            t.double_sat_clause_count != b.g or t.double_sat_model_count != 2
        ):
            return False
        return True


def _tightness(n: int) -> TightnessReport:
    max_sat = max_sat_construction(n)
    if n < 2:
        return TightnessReport(
            len(max_sat.clauses), solve(max_sat).model_count, None, None
        )
    # The max-sat formula is the double-sat one plus the 2^(n-1) clauses the
    # flipped witness falsifies, so its models come from the double-sat
    # bitmap and those clauses' bitmaps alone.
    double_sat = double_sat_construction(n)
    double_models = model_bitmap(n, double_sat.clauses)
    flipped = all_true(n) ^ 1
    extra = (c for c in max_sat.clauses if not clause_satisfied(c, flipped))
    return TightnessReport(
        max_sat_clause_count=len(max_sat.clauses),
        max_sat_model_count=(double_models & model_bitmap(n, extra)).bit_count(),
        double_sat_clause_count=len(double_sat.clauses),
        double_sat_model_count=double_models.bit_count(),
    )


def _strata_ranges(
    table: BoundsTable, include_beyond_f: bool, include_natural_range: bool
) -> list[tuple[str, int, int]]:
    out = []
    if include_natural_range:
        out.append(("natural_range", table.g + 1, table.f))
    if include_beyond_f:
        out.append(("beyond_f", table.f + 1, table.m))
    return out


#: The most models a formula in each stratum may have: none beyond f, at
#: most one in the natural range.
_MODEL_CEILING = {"natural_range": 1, "beyond_f": 0}


class _Bitmaps(dict):
    """Clause bitmaps by universe index, each built on first lookup."""

    def __init__(self, universe, n):
        self.universe = universe
        self.full = (1 << (1 << n)) - 1
        self.falsified = falsifier(n)

    def __missing__(self, i):
        c = self.universe[i]
        bm = self[i] = self.full ^ self.falsified(c.pos_mask, c.neg_mask)
        return bm


def _walk(row, size, full):
    # Every size-subset of row's indices, depth first in lexicographic order,
    # as (formulas covered, model bitmap, clause indices).  A prefix whose AND
    # is 0 stands for all its completions and is not descended: adding
    # clauses only removes models.  Their count is summed and yielded once,
    # after the leaves.  Iterative, since a path can be f(n) deep.
    m = len(row)
    path, accs, i, pruned = [], [full], 0, 0
    while True:
        j = len(path)
        if j == size:
            yield 1, accs[-1], tuple(path)
        elif i <= m - size + j:
            acc = accs[-1] & row[i]
            if acc:
                path.append(i)
                accs.append(acc)
            else:
                pruned += comb(m - i - 1, size - j - 1)
            i += 1
            continue
        if not path:
            yield pruned, 0, None
            return
        i = path.pop() + 1
        accs.pop()


def _campaign(bitmaps, ranges, mode, sample_count, seed):
    # Yields (stratum, clause count, outcomes) in campaign order, each outcome
    # a (formulas covered, model bitmap, clause indices) triple.  Formulas
    # with no model are only counted, each stratum's count yielded at the end
    # of its walk or of the sample.  Exhaustive mode builds every bitmap up
    # front; sampling builds them as it ANDs them.
    m = len(bitmaps.universe)
    full = bitmaps.full
    if mode is VerifyMode.EXHAUSTIVE:
        row = [bitmaps[i] for i in range(m)]
        for name, lo, hi in ranges:
            for size in range(lo, hi + 1):
                yield name, size, _walk(row, size, full)
        return
    # The ranges are contiguous and ascending.  A clause count is drawn by
    # rejection on getrandbits, reading what rng.randint(lo, hi) would, just
    # before the draw of its clause indices.
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    (first, lo, first_hi), (last, _, hi) = ranges[0], ranges[-1]
    span = hi - lo + 1
    kbits = span.bit_length()

    def sizes():
        for _ in range(sample_count):
            size = getrandbits(kbits)
            while size >= span:
                size = getrandbits(kbits)
            yield size + lo

    model_free = {name: 0 for name, _, _ in ranges}
    for size, candidates, excluded in _draws(rng, m, sizes()):
        acc = full
        for i in candidates:
            if i in excluded:
                continue
            acc &= bitmaps[i]
            if not acc:
                break
        name = first if size <= first_hi else last
        if acc:
            # Only a formula with a model may need its clause indices listed.
            yield name, size, ((1, acc, [i for i in candidates if i not in excluded]),)
        else:
            model_free[name] += 1
    for name, lo, _ in ranges:
        yield name, lo, ((model_free[name], 0, None),)


def verify_bounds(
    n: int,
    mode: VerifyMode = VerifyMode.EXHAUSTIVE,
    *,
    sample_count: int = 100_000,
    seed: int = 0,
    include_beyond_f: bool = True,
    include_natural_range: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Check the clause-count bound claims against the oracle.

    Exhaustive mode covers every formula of every clause count in the
    selected strata (natural range: g < M <= f, expecting at most one model;
    beyond f: M > f, expecting none), a clause prefix with no common model
    standing for all its completions, and refuses to start past ``budget``
    formulas.  Sample mode draws ``sample_count`` seeded random formulas with
    clause counts uniform over the selected strata.  The report also records
    tightness: the extremal constructions hit f(n) and g(n) exactly.
    Raises ValueError on a negative seed, in either mode.
    """
    _check_seed(seed)
    table = bounds_for(n)
    ranges = _strata_ranges(table, include_beyond_f, include_natural_range)
    if not ranges:
        raise ValueError("no strata selected")
    if mode is VerifyMode.EXHAUSTIVE:
        # Stop summing once past the budget: at n=12 the exact total is a sum
        # of 6,143 binomials of up to 14,500 digits each.
        sizes = (s for _, lo, hi in ranges for s in range(lo, hi + 1))
        if any(t > budget for t in accumulate(comb(table.m, s) for s in sizes)):
            raise BudgetExceededError(
                f"exhaustive campaign would check more than {budget} formulas; "
                "raise the budget to opt in"
            )

    bitmaps = _Bitmaps(enumerate_clauses(n), n)
    # per stratum: formulas checked, most models seen, counterexamples
    tallies = {name: [0, 0, []] for name, _, _ in ranges}
    campaign = _campaign(bitmaps, ranges, mode, sample_count, seed)
    for name, size, outcomes in campaign:
        ceiling = _MODEL_CEILING[name]
        tally = tallies[name]
        for covered, acc, indices in outcomes:
            tally[0] += covered
            if acc:
                models = acc.bit_count()
                if models > tally[1]:
                    tally[1] = models
                if models > ceiling:
                    tally[2].append(
                        Counterexample(
                            stratum=name,
                            num_clauses=size,
                            clause_indices=tuple(indices),
                            model_count=models,
                        )
                    )

    return VerificationReport(
        n=n,
        mode=mode,
        bounds=table,
        strata=tuple(
            StratumReport(
                name=name,
                clause_count_lo=lo,
                clause_count_hi=hi,
                formulas_checked=tallies[name][0],
                max_models_seen=tallies[name][1],
                counterexamples=tuple(tallies[name][2]),
            )
            for name, lo, hi in ranges
        ),
        tightness=_tightness(n),
    )
