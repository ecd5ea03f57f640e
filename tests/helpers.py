"""Shared test builders: a compact clause DSL, the golden 17-clause formula,
and the independent references `naive_model_set` (for the oracle) and
`naive_census` (for the occurrence census).

``cl("a ~b c")`` builds a clause from space-separated letters, ``~`` (or
``-``) marking negation; ``pf(n, "a, ~b, a b")`` builds a formula from
comma-separated clauses.
"""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

from pcnfrange import Clause, OccurrenceCensus, PcnfFormula, RawCnf

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_CNF = FIXTURES / "detector_blind_n3_m17.cnf"


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
