"""Exhaustive ground truth: exact model counting over all 2^n assignments.

There is one route from clauses to models: `model_bitmap`.  A clause is
false exactly on one subcube of assignments, written as a 2^n-bit truth
table (bit a set iff assignment a falsifies the clause); `model_bitmap`
strikes each clause's subcube out of the full table, and `solve` counts the
models with ``int.bit_count()``.  No sampling, no heuristics: this is the
arbiter every verification suite trusts.  Bit-parallel truth tables in the
style of Knuth, TAOCP 4A §7.1.3.

A clause's subcube is the AND of its variables' tables, built once per
process over `_TABLE_VARS` variables (128 KB).  Above that many variables
`model_bitmap` splits on the top variable (a Shannon expansion).  A truth
table costs 2^n bits, so `DEFAULT_MAX_VARS` is a hard ceiling on the
oracle's variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .formula import Assignment, Clause, PcnfFormula, bit_indices, literal_masks

#: Ceiling on the oracle's variable count: a truth table of 2^24 bits is 2 MiB.
DEFAULT_MAX_VARS = 24
MODEL_RETENTION_CAP = 4
#: The most variables `model_bitmap` strikes with its tables; above it, it
#: splits.  Measured at n = 17..22: 14 ran 12-32% slower, 17 up to 10%.
_TABLE_VARS = 16


#: _ZEROS[v]: the assignments with variable v False, over 2^_TABLE_VARS of
#: them.  Over n <= _TABLE_VARS variables, a table is the low 2^n bits.
_ZEROS = ((1 << (1 << (_TABLE_VARS - 1))) - 1,)
for _v in range(_TABLE_VARS - 2, -1, -1):
    _ZEROS = (_ZEROS[0] ^ _ZEROS[0] << (1 << _v), *_ZEROS)


class TooManyVariablesError(ValueError):
    """Refusal to enumerate: the assignment space exceeds the cap."""


class OracleVerdict(Enum):
    UNSAT = "unsat"
    UNIQUE = "unique"
    MULTIPLE = "multiple"


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
        raise TooManyVariablesError(f"{n} variables exceeds the enumeration cap of {cap}")
    bitmap = model_bitmap(n, formula.clauses)
    count = bitmap.bit_count()
    models = bit_indices(bitmap) if count <= MODEL_RETENTION_CAP else ()
    return OracleResult(model_count=count, models=models)


def model_bitmap(num_vars: int, clauses: Iterable[Clause]) -> int:
    """Bitmap of all satisfying assignments (bit a set iff a is a model)."""
    if num_vars > _TABLE_VARS:
        # Shannon expansion on the top variable, whose bit is ``top``: each
        # half keeps the clauses its value leaves unsatisfied, less that literal.
        top = 1 << (num_vars - 1)
        lo, hi = [], []
        for c in clauses:
            if not c.neg_mask & top:
                lo.append(Clause(c.pos_mask ^ top, c.neg_mask) if c.pos_mask & top else c)
            if not c.pos_mask & top:
                hi.append(Clause(c.pos_mask, c.neg_mask ^ top) if c.neg_mask & top else c)
        return model_bitmap(num_vars - 1, lo) | model_bitmap(num_vars - 1, hi) << top
    every = (1 << num_vars) - 1
    block = acc = (1 << (1 << num_vars)) - 1
    for c in clauses:
        # The clause is false where its positive variables are False and its
        # negated ones True: AND their tables, then shift onto the True side.
        # Bits past num_vars are ignored, so a stray one cannot widen a table.
        cube = block
        for v in bit_indices((c.pos_mask | c.neg_mask) & every):
            cube &= _ZEROS[v]
        acc ^= acc & (cube << (c.neg_mask & every))
        if not acc:
            break
    return acc


def raw_model_bitmap(num_vars: int, clauses: Iterable[Sequence[int]]) -> int:
    """Model bitmap of raw DIMACS-literal clauses.

    Tolerates duplicate literals, tautologies (skipped: every assignment
    satisfies them), and empty clauses (no assignment does), so it can sit on
    either side of the normalizer when checking model preservation.
    """
    masks = map(literal_masks, clauses)
    return model_bitmap(num_vars, (Clause(*m) for m in masks if not m[0] & m[1]))
