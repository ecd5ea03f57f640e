"""Exhaustive ground truth: exact model counting over all 2^n assignments.

There is one route from clauses to models.  `falsifier` builds the kernel:
a clause is false exactly on one subcube of assignments, and the kernel
writes that subcube as a 2^n-bit truth table (bit a set iff assignment a
falsifies the clause).  `model_bitmap` strikes each clause's subcube out of
the full table, and `solve` counts the models with ``int.bit_count()``.  No
sampling, no heuristics: this is the arbiter every verification suite
trusts.  Bit-parallel truth tables in the style of Knuth, TAOCP 4A §7.1.3.

The kernel keeps one table per variable below `_TABLE_VARS`, each over the
assignments to those low variables: 16 tables of 2^16 bits, 128 KB.  A
clause's subcube over them is the AND of its variables' tables, and each
higher variable that is absent doubles it.  A truth table costs 2^n bits,
so `DEFAULT_MAX_VARS` is a hard ceiling on the variable count the oracle
accepts.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from .formula import Assignment, Clause, PcnfFormula, bit_indices, literal_masks

#: Ceiling on the oracle's variable count: a truth table of 2^24 bits is 2 MiB.
DEFAULT_MAX_VARS = 24
MODEL_RETENTION_CAP = 4
#: Variables that get a truth table of their own in `falsifier`: chosen by
#: measurement (n = 15..17 ran 8% faster than with 14), at 128 KB of tables.
_TABLE_VARS = 16


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
        raise TooManyVariablesError(
            f"{n} variables exceeds the enumeration cap of {cap}"
        )
    bitmap = model_bitmap(n, formula.clauses)
    count = bitmap.bit_count()
    models = bit_indices(bitmap) if count <= MODEL_RETENTION_CAP else ()
    return OracleResult(model_count=count, models=models)


def falsifier(num_vars: int) -> Callable[[int, int], int]:
    """The truth-table kernel over ``num_vars`` variables.

    Returns ``falsified(pos_mask, neg_mask)``: the 2^n-bit table of the
    assignments falsifying the clause, those that set every positive
    variable False and every negated one True.  With both masks empty (an
    empty clause) that is every assignment.  Build it once per batch of
    clauses: it makes the per-variable tables.
    """
    k = min(num_vars, _TABLE_VARS)
    # zeros[v]: the assignments to variables 0..k-1 with variable v False.
    zeros = [0] * k
    if k:
        z = zeros[k - 1] = (1 << (1 << (k - 1))) - 1
        for v in range(k - 2, -1, -1):
            z = zeros[v] = z ^ z << (1 << v)
    low = (1 << k) - 1
    block = (1 << (1 << k)) - 1
    every = (1 << num_vars) - 1
    high = every ^ low

    def falsified(pos_mask: int, neg_mask: int) -> int:
        occupied = pos_mask | neg_mask
        cube = block
        for v in bit_indices(occupied & low):
            cube &= zeros[v]
        absent = high & ~occupied
        while absent:  # an absent variable v copies the cube 2^v bits up
            step = absent & -absent
            cube |= cube << step
            absent ^= step
        # Negated variables move the cube to where they are True.  Bits past
        # num_vars are ignored, so a stray one cannot widen the table.
        return cube << (neg_mask & every)

    return falsified


def model_bitmap(num_vars: int, clauses: Iterable[Clause]) -> int:
    """Bitmap of all satisfying assignments (bit a set iff a is a model)."""
    falsified = falsifier(num_vars)
    acc = (1 << (1 << num_vars)) - 1
    for c in clauses:
        acc ^= acc & falsified(c.pos_mask, c.neg_mask)
        if not acc:
            break
    return acc


def raw_model_bitmap(num_vars: int, clauses: Iterable[Sequence[int]]) -> int:
    """Model bitmap of raw DIMACS-literal clauses.

    Tolerates duplicate literals, tautologies (skipped: every assignment
    satisfies them), and empty clauses (no assignment does), so it can sit on
    either side of the normalizer when checking model preservation.
    """
    falsified = falsifier(num_vars)
    acc = (1 << (1 << num_vars)) - 1
    for clause in clauses:
        pos, neg = literal_masks(clause)
        if pos & neg:
            continue
        acc ^= acc & falsified(pos, neg)
        if not acc:
            break
    return acc
