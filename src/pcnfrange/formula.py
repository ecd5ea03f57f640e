"""Core value types: clauses, formulas, and assignments.

A literal is a DIMACS int: variable i (0-indexed) is ``i + 1``, its
complement ``-(i + 1)``.  Clauses carry a bit-parallel encoding: two n-bit
masks, one for the positively occurring variables and one for the negated
ones; `literal_masks` is the one conversion from literals to masks.  A
clause is a valid PCNF clause when the masks are non-negative, disjoint (no
variable together with its complement) and not both empty.  Assignments are
plain ints whose bit i is the truth value of variable i, so clause
evaluation is two mask ANDs.

`Clause.from_literals` and `PcnfFormula.from_clauses` validate what comes in
from outside; the direct constructors trust their arguments, which
`canonical_clauses` builds valid by construction.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

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
    small = mask < 1 << 16
    if small and (cached := _BIT_INDEX_CACHE.get(mask)) is not None:
        return cached
    out = []
    m = mask
    while m:  # from the top: m -= 1 << b is cheaper than m ^= m & -m on wide masks
        b = m.bit_length() - 1
        out.append(b)
        m -= 1 << b
    out.reverse()
    result = tuple(out)
    if small:
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


# Not frozen: a frozen __init__ assigns through object.__setattr__, several
# times slower, and nothing mutates a clause, because the cached clause
# universe shares them.
@dataclass(slots=True, unsafe_hash=True)
class Clause:
    """A disjunction of distinct literals over distinct variables.

    ``pos_mask`` holds the positively occurring variables, ``neg_mask`` the
    negated ones.  The constructor trusts its masks; `from_literals` and
    `PcnfFormula.from_clauses` check the PCNF clause rules.
    """

    pos_mask: int
    neg_mask: int

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
        clause = cls(*literal_masks(literals))
        _check_clause(clause)
        return clause


def _check_clause(clause: Clause) -> None:
    """Raise ValueError unless the clause obeys the PCNF clause rules."""
    pos, neg = clause.pos_mask, clause.neg_mask
    if pos < 0 or neg < 0:
        raise ValueError("clause masks must be non-negative")
    if pos & neg:
        raise ValueError(
            f"clause contains a variable and its complement (pos={pos:#x}, neg={neg:#x})"
        )
    if not (pos | neg):
        raise ValueError("empty clause is not a PCNF clause")


def clause_sort_key(clause: Clause) -> tuple[int, int, int]:
    """Canonical clause order: by width, then positive mask, then negative."""
    return (clause.width, clause.pos_mask, clause.neg_mask)


class collector_paused:
    """Pause the cyclic garbage collector, then restore the caller's setting.

    For bulk builds of many tracked objects with no cycles among them: the
    collector would rescan them every few hundred allocations.  An enabled
    collector makes up one young-generation pass over them at its next
    allocation, or, with ``promote``, before it is re-enabled, moving them
    to the oldest generation so that no later young pass rescans them.
    A class, not a generator: a generator's exit allocates a StopIteration,
    which would start that pass inside the ``with`` statement.
    """

    def __init__(self, promote: bool = False) -> None:
        self.promote = promote

    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.was_enabled:
            if self.promote:
                gc.collect(1)
            gc.enable()


def canonical_clauses(
    n: int, keys_by_width: Mapping[int, list[int]]
) -> tuple[Clause, ...]:
    """Clauses in canonical order from their ints ``pos << n | neg``.

    ``keys_by_width`` maps each width to a list of its clauses' ints,
    sorted ascending, with no repeats.  Within one width the ints sort in
    (pos, neg) order, so each sorted list is in `clause_sort_key` order
    without a tuple per clause; the widths may come in any order.  Each
    list is consumed: built into clauses and emptied, so the ints of
    finished widths are freed before the next width is built.

    When there are at least as many ints as mask values (2^n of them, as
    in every clause universe), every mask is taken from one list of the
    2^n ints, so all clauses share one int object per mask value.  Fewer
    clauses split each int into fresh masks, and no list of 2^n ints is
    built.  The clauses are built with the collector paused.
    """
    low = (1 << n) - 1
    shared = low < sum(map(len, keys_by_width.values()))
    masks = list(range(low + 1)) if shared else None
    clauses: list[Clause] = []
    with collector_paused():
        for w in sorted(keys_by_width):
            keys = keys_by_width[w]
            if shared:
                clauses += [Clause(masks[k >> n], masks[k & low]) for k in keys]
            else:
                clauses += [Clause(k >> n, k & low) for k in keys]
            keys.clear()
    return tuple(clauses)


def clause_satisfied(clause: Clause, assignment: Assignment) -> bool:
    """True iff some literal of the clause holds under the assignment."""
    return bool((assignment & clause.pos_mask) | (~assignment & clause.neg_mask))


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
        seen = set(chain.from_iterable(self.clauses))  # one C-level pass
        if 0 in seen or max(seen, default=0) > n or min(seen, default=0) < -n:
            for lit in chain.from_iterable(self.clauses):  # name the first offender
                if not lit or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range for {n} variables")


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

        Raises ValueError on a negative variable count, a clause that breaks
        the PCNF clause rules, out-of-range variables, or repeated clauses.
        """
        if num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {num_vars}")
        ordered = sorted(clauses, key=clause_sort_key)
        universe = (1 << num_vars) - 1
        for i, clause in enumerate(ordered):
            _check_clause(clause)
            if clause.occupancy & ~universe:
                raise ValueError(
                    f"clause {clause} uses variables beyond num_vars={num_vars}"
                )
            if i and clause == ordered[i - 1]:
                raise ValueError(f"repeated clause {clause}")
        return cls(num_vars, tuple(ordered))

    def occurring_variables(self) -> tuple[int, ...]:
        """Indices of variables that occur in at least one clause."""
        union = 0
        for clause in self.clauses:
            union |= clause.occupancy
        return bit_indices(union)
