"""Core value types: clauses, formulas, and assignments.

A literal is a DIMACS int: variable i (0-indexed) is ``i + 1``, its
complement ``-(i + 1)``.  Clauses carry a bit-parallel encoding: two n-bit
masks, one for the positively occurring variables and one for the negated
ones; `literal_masks` is the one conversion from literals to masks.  A
clause is a valid PCNF clause when the masks are disjoint (no variable
together with its complement) and not both empty.  Assignments are plain ints whose bit i is
the truth value of variable i, so clause evaluation is two mask ANDs.

Everything here is immutable after construction and safe to share between
concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: An assignment is an int whose bit i holds the truth value of variable i.
Assignment = int

_BIT_INDEX_CACHE: dict[int, tuple[int, ...]] = {}


def bit_indices(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of ``mask``.

    Memoized below 2^16 (at most 65,536 entries): formulas reuse a small pool
    of masks, and serialization calls this for every clause and every clause
    class.  Wider masks rarely repeat, and caching one costs more than
    computing it.
    """
    cached = _BIT_INDEX_CACHE.get(mask)
    if cached is not None:
        return cached
    out = []
    m = mask
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    result = tuple(out)
    if mask < 1 << 16:
        _BIT_INDEX_CACHE[mask] = result
    return result


def all_true(num_vars: int) -> Assignment:
    """The assignment setting every variable to True."""
    return (1 << num_vars) - 1


def literal_masks(literals: Iterable[int]) -> tuple[int, int]:
    """The (positive, negative) masks of DIMACS literals.

    A literal ``v`` sets bit ``v - 1`` of the positive mask and ``-v`` the same
    bit of the negative one, so repeats collapse and a variable together
    with its complement sets the bit in both.  Raises ValueError on ``0``,
    which is no literal.
    """
    pos = neg = 0
    for lit in literals:
        if lit > 0:
            pos |= 1 << (lit - 1)
        elif lit:
            neg |= 1 << (-lit - 1)
        else:
            raise ValueError("0 is not a DIMACS literal")
    return pos, neg


@dataclass(frozen=True, slots=True)
class Clause:
    """A disjunction of distinct literals over distinct variables.

    ``pos_mask`` holds the positively occurring variables, ``neg_mask`` the
    negated ones.  The PCNF clause rules are enforced at construction: the
    masks are disjoint and at least one bit is set.
    """

    pos_mask: int
    neg_mask: int

    def __post_init__(self) -> None:
        if self.pos_mask < 0 or self.neg_mask < 0:
            raise ValueError("clause masks must be non-negative")
        if self.pos_mask & self.neg_mask:
            raise ValueError(
                "clause contains a variable and its complement "
                f"(pos={self.pos_mask:#x}, neg={self.neg_mask:#x})"
            )
        if not (self.pos_mask | self.neg_mask):
            raise ValueError("empty clause is not a PCNF clause")

    @property
    def occupancy(self) -> int:
        """Mask of all variables occurring in the clause, either polarity."""
        return self.pos_mask | self.neg_mask

    @property
    def width(self) -> int:
        """Number of distinct variables in the clause."""
        return (self.pos_mask | self.neg_mask).bit_count()

    def literals(self) -> tuple[int, ...]:
        """The clause's DIMACS literals in ascending variable order."""
        neg = self.neg_mask
        return tuple(
            -(v + 1) if neg >> v & 1 else v + 1 for v in bit_indices(self.occupancy)
        )

    @classmethod
    def from_literals(cls, literals: Iterable[int]) -> "Clause":
        """Build a clause from DIMACS literals; repeats collapse.

        Raises ValueError if the literals are empty or contain a variable
        together with its complement (no PCNF clause represents either).
        """
        return cls(*literal_masks(literals))


def clause_sort_key(clause: Clause) -> tuple[int, int, int]:
    """Canonical clause order: by width, then positive mask, then negative."""
    return (clause.width, clause.pos_mask, clause.neg_mask)


def clause_satisfied(clause: Clause, assignment: Assignment) -> bool:
    """True iff some literal of the clause holds under the assignment."""
    return bool((assignment & clause.pos_mask) | (~assignment & clause.neg_mask))


def clause_canonical_key(clause: Clause) -> tuple[int, ...]:
    """The clause's variable set, polarity-stripped, in ascending order."""
    return bit_indices(clause.occupancy)


@dataclass(frozen=True, slots=True)
class RawCnf:
    """A CNF formula as read from the outside world.

    Each clause is a tuple of DIMACS literals, nonzero ints of magnitude at
    most ``num_vars``; construction rejects any other.  Duplicate literals,
    tautological clauses, repeated clauses, and empty clauses are all
    representable; `normalize` turns this into a `PcnfFormula` (or rejects
    it, for empty clauses).
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.num_vars
        if n < 0:
            raise ValueError("num_vars must be non-negative")
        for clause in self.clauses:
            for lit in clause:
                if not lit or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range for {n} variables")

    @property
    def contains_empty_clause(self) -> bool:
        return any(len(clause) == 0 for clause in self.clauses)

    @property
    def total_literals(self) -> int:
        return sum(len(clause) for clause in self.clauses)


@dataclass(frozen=True, slots=True)
class PcnfFormula:
    """A duplicate-free conjunction of PCNF clauses over ``num_vars`` variables.

    The direct constructor trusts its input: ``clauses`` must already be in
    canonical order with no repeats (the generator and normalizer produce
    exactly that).  Use `from_clauses` to build from arbitrary clause
    collections with full validation.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    @classmethod
    def from_clauses(
        cls, num_vars: int, clauses: Iterable[Clause]
    ) -> "PcnfFormula":
        """Validate, canonically sort, and wrap a clause collection.

        Raises ValueError on a negative variable count, out-of-range
        variables, or repeated clauses.
        """
        if num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {num_vars}")
        ordered = sorted(clauses, key=clause_sort_key)
        universe = (1 << num_vars) - 1
        for i, clause in enumerate(ordered):
            if clause.occupancy & ~universe:
                raise ValueError(
                    f"clause {clause} uses variables beyond num_vars={num_vars}"
                )
            if i and clause == ordered[i - 1]:
                raise ValueError(f"repeated clause {clause}")
        return cls(num_vars, tuple(ordered))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def occurring_variables(self) -> tuple[int, ...]:
        """Indices of variables that occur in at least one clause."""
        union = 0
        for clause in self.clauses:
            union |= clause.occupancy
        return bit_indices(union)

    def satisfied_by(self, assignment: Assignment) -> bool:
        """True iff every clause is satisfied (empty formula: vacuously true)."""
        for clause in self.clauses:
            if not ((assignment & clause.pos_mask) | (~assignment & clause.neg_mask)):
                return False
        return True
