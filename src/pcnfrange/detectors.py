"""Polynomial-time unsatisfiability screening for PCNF formulas.

Three sound rules, none complete:

* clause count beyond f(n)  -> unsatisfiable
* a variable occurring more than v(n) times (both polarities combined)
  -> unsatisfiable; a literal occurring exactly p(n) times while its
  complement occurs more than q(n) times -> unsatisfiable
* a full clause class: all 2^k polarity patterns over one width-k variable
  set present -> unsatisfiable

A verdict of UNKNOWN means exactly that; plenty of unsatisfiable formulas in
the natural range slip through every rule here.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from .bounds import BoundsTable, RangeClass, bounds_for, classify_count
from .formula import PcnfFormula, bit_indices

#: Masks over at most this many variables are perfect dict keys: CPython
#: hashes an int as its value mod 2^61 - 1 (on 64-bit builds), so wider
#: sparse masks collide; three bits of 1000 hash to three powers of two.
_MASK_KEY_VARS = sys.hash_info.modulus.bit_length()


class Verdict(Enum):
    UNSATISFIABLE = "unsatisfiable"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class Reason:
    """Why a rule fired, with the offending witness.

    ``rule`` is one of "beyond_f", "variable_occurrence", "literal_saturation",
    "clause_class"; the remaining fields are populated as the rule requires.
    """

    rule: str
    variable: int | None = None
    negated: bool | None = None
    class_key: tuple[int, ...] | None = None
    count: int | None = None
    threshold: int | None = None
    complement_count: int | None = None


@dataclass(frozen=True, slots=True)
class DetectorVerdict:
    outcome: Verdict
    reasons: tuple[Reason, ...] = ()


@dataclass(frozen=True, slots=True)
class OccurrenceCensus:
    """Exact occurrence counts, indexed by variable.

    In PCNF a variable occurs at most once per clause, so
    ``variable_counts[x]`` is also the number of clauses mentioning x, and it
    always equals ``positive_counts[x] + negative_counts[x]``.
    """

    variable_counts: tuple[int, ...]
    positive_counts: tuple[int, ...]
    negative_counts: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ClauseClassTable:
    """Clause-class counts from the one-scan counting algorithm.

    ``occupancy_counts`` is the scan's own dict: the number of clauses on
    each occurring variable set, in first-seen order.  A set is keyed by
    its variable mask when the formula has at most 61 variables (the bit
    length of the int hash modulus on 64-bit CPython) and by its ascending
    variable indices beyond that, where masks hash poorly.  ``counts``
    reads either form as ascending variable indices; ``ceilings`` maps
    each occurring width k to 2^k, the most clauses a width-k set can
    carry.  ``clauses_scanned`` instruments the single-scan property.
    """

    occupancy_counts: dict[int | tuple[int, ...], int]

    @property
    def clauses_scanned(self) -> int:
        return sum(self.occupancy_counts.values())

    @property
    def counts(self) -> dict[tuple[int, ...], int]:
        counts = self.occupancy_counts
        if _keyed_by_indices(counts):
            return dict(counts)
        return {bit_indices(occ): c for occ, c in counts.items()}

    @property
    def ceilings(self) -> dict[int, int]:
        counts = self.occupancy_counts
        width = len if _keyed_by_indices(counts) else int.bit_count
        return {k: 1 << k for k in map(width, counts)}


def _keyed_by_indices(counts: dict) -> bool:
    """Whether a class table's keys are variable indices, not masks."""
    return isinstance(next(iter(counts), None), tuple)


@dataclass(frozen=True, slots=True)
class ScreenResult:
    """Everything the screening pipeline learned about one formula.
    ``bounds.n`` is the universe the bounds classify against; ``num_vars`` is
    the declared one, which names the variables."""

    num_vars: int
    num_clauses: int
    bounds: BoundsTable
    range_class: RangeClass
    occurrence: DetectorVerdict
    clause_class: DetectorVerdict
    class_table: ClauseClassTable
    verdict: Verdict
    reasons: tuple[Reason, ...]


def occurrence_census(formula: PcnfFormula) -> OccurrenceCensus:
    """Count every variable's and literal's occurrences.

    A bit-sliced vertical counter (Knuth, TAOCP 4A, 7.1.3) over each
    clause's 2n-bit literal mask ``neg_mask << n | pos_mask``: slice j holds
    bit j of all 2n literal counts.  Clauses enter eight at a time through
    Harley-Seal carry-save adders, so only the eights ripple into the
    slices; the counts are read out with one `bit_indices` call per slice.
    """
    n = formula.num_vars
    masks = [c.neg_mask << n | c.pos_mask for c in formula.clauses]
    masks += [0] * (-len(masks) % 8)
    ones = twos = fours = 0
    eights: list[int] = []  # eights[j] holds bit j + 3 of every count
    group = iter(masks)
    for a, b, c, d, e, f, g, h in zip(*[group] * 8):
        # Each pair of lines is one full adder: (carry, sum) of three slices.
        u = ones ^ a
        twos_a, ones = ones & a | u & b, u ^ b
        u = ones ^ c
        twos_b, ones = ones & c | u & d, u ^ d
        u = twos ^ twos_a
        fours_a, twos = twos & twos_a | u & twos_b, u ^ twos_b
        u = ones ^ e
        twos_a, ones = ones & e | u & f, u ^ f
        u = ones ^ g
        twos_b, ones = ones & g | u & h, u ^ h
        u = twos ^ twos_a
        fours_b, twos = twos & twos_a | u & twos_b, u ^ twos_b
        u = fours ^ fours_a
        carry, fours = fours & fours_a | u & fours_b, u ^ fours_b
        for j, s in enumerate(eights):
            if not carry:
                break
            eights[j], carry = s ^ carry, s & carry
        if carry:
            eights.append(carry)
    counts = [0] * (2 * n)
    for j, s in enumerate([ones, twos, fours, *eights]):
        for lit in bit_indices(s):
            counts[lit] += 1 << j
    pos, neg = counts[:n], counts[n:]
    return OccurrenceCensus(
        variable_counts=tuple(p + q for p, q in zip(pos, neg)),
        positive_counts=tuple(pos),
        negative_counts=tuple(neg),
    )


def occurrence_screen(formula: PcnfFormula, n: int | None = None) -> DetectorVerdict:
    """Screen occurrence counts against the v/p/q ceilings.

    Fires when a variable occurs more than v(n) times, or when a literal
    occurs exactly p(n) times while its complement occurs more than q(n)
    times.  Saturated literals imply the variable cap is breached too, so
    both reasons are reported when both hold.
    """
    n = n if n is not None else formula.num_vars
    table = bounds_for(n)
    census = occurrence_census(formula)
    reasons: list[Reason] = []
    for x, total in enumerate(census.variable_counts):
        if total > table.v:
            reasons.append(
                Reason(
                    rule="variable_occurrence",
                    variable=x,
                    count=total,
                    threshold=table.v,
                )
            )
    for x in range(len(census.variable_counts)):
        p_count = census.positive_counts[x]
        n_count = census.negative_counts[x]
        # A valid PCNF formula is a subset of the clause universe, so no
        # literal can occur more than p(n) times; exceeding the ceiling
        # means n undercounts the occurring variables.
        if p_count > table.p or n_count > table.p:
            raise ValueError(
                f"literal occurrences for variable {x} exceed the ceiling "
                f"p({n})={table.p}; n is smaller than the formula's "
                "occurring-variable count"
            )
        for count, comp, negated in ((p_count, n_count, False), (n_count, p_count, True)):
            if count == table.p and comp > table.q:
                reasons.append(
                    Reason(
                        rule="literal_saturation",
                        variable=x,
                        negated=negated,
                        count=count,
                        threshold=table.q,
                        complement_count=comp,
                    )
                )
    if reasons:
        return DetectorVerdict(Verdict.UNSATISFIABLE, tuple(reasons))
    return DetectorVerdict(Verdict.UNKNOWN)


def clause_class_screen(
    formula: PcnfFormula, early_exit: bool = False
) -> tuple[DetectorVerdict, ClauseClassTable]:
    """Count clause classes in one scan and compare against the 2^k ceilings.

    A class hitting its ceiling means every polarity pattern on that
    variable set is present, which no assignment survives.  All saturated
    keys are reported.  With ``early_exit`` the scan stops at the first
    saturated class (the tables then cover only the clauses seen, and the
    class that stopped it is the only saturated one); the two modes never
    disagree on the verdict.
    """
    # Key each class by its mask while masks hash to themselves, by its
    # variable indices past that; see ClauseClassTable.
    by_indices = formula.num_vars > _MASK_KEY_VARS
    width = len if by_indices else int.bit_count
    counts: dict = {}
    for clause in formula.clauses:
        key = clause.pos_mask | clause.neg_mask
        if by_indices:
            key = bit_indices(key)
        c = counts[key] = counts.get(key, 0) + 1
        if early_exit and c == 1 << width(key):
            break
    # Reasons go in tuple-key order; only saturated masks get tuple keys.
    saturated = sorted(
        (key if by_indices else bit_indices(key), c)
        for key, c in counts.items()
        if c == 1 << width(key)
    )
    reasons = tuple(
        Reason(rule="clause_class", class_key=key, count=c, threshold=c)
        for key, c in saturated
    )
    outcome = Verdict.UNSATISFIABLE if reasons else Verdict.UNKNOWN
    return DetectorVerdict(outcome, reasons), ClauseClassTable(counts)


def screen_all(
    formula: PcnfFormula,
    n: int | None = None,
    early_exit: bool = False,
) -> ScreenResult:
    """Run every polynomial-time screen and combine the evidence.

    The overall verdict is UNSATISFIABLE as soon as any sound rule fires
    (including the clause count exceeding f(n)); otherwise UNKNOWN, with all
    collected evidence attached.
    """
    effective_n = n if n is not None else formula.num_vars
    num_clauses = len(formula.clauses)
    range_class, table = classify_count(effective_n, num_clauses)
    occurrence = occurrence_screen(formula, n=effective_n)
    clause_class, class_table = clause_class_screen(formula, early_exit=early_exit)

    reasons: list[Reason] = []
    if range_class is RangeClass.BEYOND_F:
        reasons.append(
            Reason(rule="beyond_f", count=num_clauses, threshold=table.f)
        )
    reasons.extend(occurrence.reasons)
    reasons.extend(clause_class.reasons)

    verdict = Verdict.UNSATISFIABLE if reasons else Verdict.UNKNOWN
    return ScreenResult(
        num_vars=formula.num_vars,
        num_clauses=num_clauses,
        bounds=table,
        range_class=range_class,
        occurrence=occurrence,
        clause_class=clause_class,
        class_table=class_table,
        verdict=verdict,
        reasons=tuple(reasons),
    )
