"""Exhaustive ground truth: exact model counting over all 2^n assignments.

There is one route from clauses to models.  `clause_bitmap` turns a clause
into its 2^n-bit truth table (bit a set iff assignment a satisfies it);
`model_bitmap` ANDs those tables into the formula's model set, and `solve`
counts it with ``int.bit_count()``.  No sampling, no heuristics: this is the
arbiter every verification suite trusts.  Bit-parallel truth tables in the
style of Knuth, TAOCP 4A §7.1.3.

A truth table costs 2^n bits, so `DEFAULT_MAX_VARS` is a hard ceiling on the
variable count the oracle accepts.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .formula import Assignment, Clause, PcnfFormula, bit_indices, literal_masks

#: Ceiling on the oracle's variable count: a truth table of 2^24 bits is 2 MiB.
DEFAULT_MAX_VARS = 24
MODEL_RETENTION_CAP = 4


class TooManyVariablesError(ValueError):
    """Refusal to enumerate: the assignment space exceeds the cap."""


class OracleVerdict(Enum):
    UNSAT = "unsat"
    UNIQUE = "unique"
    MULTIPLE = "multiple"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Exact model count, plus the models themselves when few enough."""

    model_count: int
    models: tuple[Assignment, ...]  # populated only when count <= MODEL_RETENTION_CAP

    @property
    def verdict(self) -> OracleVerdict:
        if self.model_count == 0:
            return OracleVerdict.UNSAT
        if self.model_count == 1:
            return OracleVerdict.UNIQUE
        return OracleVerdict.MULTIPLE


def solve(formula: PcnfFormula, max_n: int = DEFAULT_MAX_VARS) -> OracleResult:
    """Exhaustively count the formula's models.

    Models are retained in ascending order when there are at most
    `MODEL_RETENTION_CAP` of them.  Raises TooManyVariablesError rather than
    silently sampling when the formula has more than ``max_n`` variables, or
    more than `DEFAULT_MAX_VARS` whatever ``max_n`` says.
    """
    n = formula.num_vars
    cap = min(max_n, DEFAULT_MAX_VARS)
    if n > cap:
        raise TooManyVariablesError(
            f"{n} variables exceeds the enumeration cap of {cap}"
        )
    bitmap = model_bitmap(n, formula.clauses)
    count = bitmap.bit_count()
    models = bit_indices(bitmap) if count <= MODEL_RETENTION_CAP else ()
    return OracleResult(model_count=count, models=models)


def clause_bitmap(pos_mask: int, neg_mask: int, num_vars: int) -> int:
    """Bitmap over all 2^n assignments of the assignments satisfying a clause.

    Complements the clause's falsifying subcube: the assignments fixing
    every positive variable to False and every negated one to True.  The
    subcube is grown one variable at a time over the assignments to
    variables 0..v: a positive variable keeps it, a negated one moves it to
    the upper half, an absent one fills both halves.  With both masks empty
    (an empty clause) the result is 0.
    """
    falsified = 1
    absent = ~(pos_mask | neg_mask)
    for v in range(num_vars):
        step = 1 << v
        if neg_mask & step:
            falsified <<= step
        elif absent & step:
            falsified |= falsified << step
    return ((1 << (1 << num_vars)) - 1) ^ falsified


def model_bitmap(num_vars: int, clauses: Iterable[Clause]) -> int:
    """Bitmap of all satisfying assignments (bit a set iff a is a model)."""
    acc = (1 << (1 << num_vars)) - 1
    for c in clauses:
        acc &= clause_bitmap(c.pos_mask, c.neg_mask, num_vars)
        if not acc:
            break
    return acc


def raw_model_bitmap(num_vars: int, clauses: Iterable[Sequence[int]]) -> int:
    """Model bitmap of raw DIMACS-literal clauses.

    Tolerates duplicate literals, tautologies (skipped: every assignment
    satisfies them), and empty clauses (no assignment does), so it can sit on
    either side of the normalizer when checking model preservation.
    """
    acc = (1 << (1 << num_vars)) - 1
    for clause in clauses:
        pos, neg = literal_masks(clause)
        if pos & neg:
            continue
        acc &= clause_bitmap(pos, neg, num_vars)
        if not acc:
            break
    return acc
