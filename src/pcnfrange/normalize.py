"""Single-scan normalization of raw CNF into PCNF.

Three rules, applied per clause in one pass over the input literals:
duplicate literals collapse, clauses containing a variable and its
complement are dropped (always true, so the model set is untouched), and
repeated clauses are dropped.  Nothing else: no subsumption, no unit
propagation.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress
from operator import ne

from .formula import PcnfFormula, RawCnf, canonical_clauses, literal_masks


class EmptyClauseError(ValueError):
    """The input contains an empty clause.

    Such an input is trivially unsatisfiable and has no PCNF image (PCNF
    clauses have at least one literal); the caller decides how to report it.
    """


@dataclass(frozen=True, slots=True)
class NormalizationStats:
    """What the scan removed, plus an instrumentation counter.

    ``literals_scanned`` counts literal visits; the scan touches each input
    literal exactly once, so it always equals the input's total literal
    count.
    """

    duplicate_literals_removed: int
    tautological_clauses_dropped: int
    duplicate_clauses_dropped: int
    literals_scanned: int


def normalize(raw: RawCnf) -> tuple[PcnfFormula, NormalizationStats]:
    """Normalize raw CNF to PCNF, preserving the set of models.

    The variable universe is preserved: variables whose every clause was
    dropped still count toward num_vars (clause-count bounds are sensitive
    to n, so it never changes silently).

    Raises EmptyClauseError if the input contains an empty clause.
    """
    n = raw.num_vars
    dup_literals = 0
    tautologies = 0
    scanned = 0

    # One int pos << n | neg per clause, in one list per width.  Sorting
    # puts repeats side by side, where comparing each int with the one
    # before drops them.  A set would hash each int, and an int over 61 bits
    # hashes as its value mod 2^61 - 1, which folds sparse clause masks onto
    # few hash values.
    by_width: defaultdict[int, list[int]] = defaultdict(list)
    for clause in raw.clauses:
        if not clause:
            raise EmptyClauseError("input contains an empty clause")
        pos, neg = literal_masks(clause)
        scanned += len(clause)
        # Repeats collapsed in the masks: each literal beyond a mask bit's
        # first is a duplicate.  Only now is the complement test meaningful.
        width = pos.bit_count() + neg.bit_count()
        dup_literals += len(clause) - width
        if pos & neg:
            tautologies += 1
            continue
        by_width[width].append(pos << n | neg)

    for width, keys in by_width.items():
        keys.sort()
        by_width[width] = list(compress(keys, map(ne, keys, chain((None,), keys))))
    ordered = canonical_clauses(n, by_width)
    dup_clauses = len(raw.clauses) - tautologies - len(ordered)
    stats = NormalizationStats(
        duplicate_literals_removed=dup_literals,
        tautological_clauses_dropped=tautologies,
        duplicate_clauses_dropped=dup_clauses,
        literals_scanned=scanned,
    )
    return PcnfFormula(raw.num_vars, ordered), stats
