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

    ``literals_scanned`` is the input's literal count, summed once over the
    clauses' lengths; the scan reads each of those literals once.
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
    n, clauses = raw.num_vars, raw.clauses
    if not all(clauses):
        raise EmptyClauseError("input contains an empty clause")
    scanned = sum(map(len, clauses))

    # One int pos << n | neg per clause, in one list per width (its distinct
    # literals).  Sorting puts repeats side by side, where comparing each int
    # with the one before drops them.  A set would hash each int, and an int
    # over 61 bits hashes as its value mod 2^61 - 1, which folds sparse
    # clause masks onto few hash values.
    by_width: defaultdict[int, list[int]] = defaultdict(list)
    tautology_widths: list[int] = []
    for clause in clauses:
        pos, neg = literal_masks(clause)
        width = pos.bit_count() + neg.bit_count()
        if pos & neg:
            tautology_widths.append(width)
        else:
            by_width[width].append(pos << n | neg)

    # Each literal beyond its clause's distinct ones is a duplicate.
    dup_literals = scanned - sum(tautology_widths)
    for width, keys in by_width.items():
        dup_literals -= width * len(keys)
        keys.sort()
        by_width[width] = list(compress(keys, map(ne, keys, chain((None,), keys))))
    ordered = canonical_clauses(n, by_width)
    tautologies = len(tautology_widths)
    stats = NormalizationStats(
        duplicate_literals_removed=dup_literals,
        tautological_clauses_dropped=tautologies,
        duplicate_clauses_dropped=len(clauses) - tautologies - len(ordered),
        literals_scanned=scanned,
    )
    return PcnfFormula(raw.num_vars, ordered), stats
