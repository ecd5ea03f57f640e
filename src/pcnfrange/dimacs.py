"""DIMACS CNF reading and writing.

The parser accepts comment lines (``c ...``), one ``p cnf <vars> <clauses>``
header, and zero-terminated clauses (which may span lines or share one).  A
line starting with ``%`` (the SATLIB trailer) ends the clause section;
everything after it is ignored.  One leading byte-order mark is skipped.
Bytes are decoded as UTF-8; an undecodable byte is an error on its line.
A line ends at ``\n``, ``\r\n`` or ``\r``, and only ASCII whitespace (space,
tab, vertical tab, form feed) separates tokens.  A literal is an ASCII
``-?[0-9]+`` token, kept as the file's signed int, and a header count ASCII
``[0-9]+``.  Duplicate literals, repeated clauses, tautologies, and empty
clauses all survive parsing untouched; normalization is a separate, explicit
step.  A header clause count that disagrees with the clauses actually present
is common in the wild, so it warns instead of failing.
"""
from __future__ import annotations

import warnings

from .formula import PcnfFormula, RawCnf


class DimacsError(ValueError):
    """Malformed DIMACS input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class MalformedHeaderError(DimacsError):
    pass


class LiteralOutOfRangeError(DimacsError):
    pass


class UnterminatedClauseError(DimacsError):
    pass


class DimacsWarning(UserWarning):
    """Recoverable oddity in DIMACS input (e.g. clause-count mismatch)."""


def parse_dimacs(text: str | bytes) -> RawCnf:
    """Parse DIMACS CNF text into a RawCnf.

    Raises MalformedHeaderError, LiteralOutOfRangeError, or
    UnterminatedClauseError (all carrying line numbers).  Emits a
    DimacsWarning when the header's clause count does not match.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = text[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            line = head.count(b"\n") + 1
            raise DimacsError(f"undecodable byte {text[exc.start]:#04x}", line) from None
    text = text.removeprefix("\ufeff")

    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    last_line = 0

    # str.splitlines() would also end a line at \v, \f, \x1c-\x1e and Unicode
    # line breaks, and str.split() breaks tokens at \x1c-\x1f.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    separators = any(c in text for c in "\x1c\x1d\x1e\x1f")
    for lineno, line in enumerate(lines, start=1):
        last_line = lineno
        stripped = line.strip(" \t\v\f")
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            if num_vars is not None:
                raise MalformedHeaderError("duplicate header", lineno)
            fields = stripped.encode().split()  # bytes split at ASCII whitespace
            counts = b"".join(fields[2:])  # and bytes.isdigit() is ASCII-only
            if len(fields) != 4 or fields[:2] != [b"p", b"cnf"] or not counts.isdigit():
                raise MalformedHeaderError(f"bad header {stripped!r}", lineno)
            try:
                num_vars, declared_clauses = map(int, fields[2:])
            except ValueError:  # more digits than int() converts
                raise MalformedHeaderError(f"bad header {stripped!r}", lineno) from None
            continue
        if num_vars is None:
            raise MalformedHeaderError("clause before 'p cnf' header", lineno)
        # int() also reads "1_0", "+1" and non-ASCII digits, and str.split()
        # breaks at those separators and Unicode spaces; DIMACS does neither.
        if separators or not stripped.isascii() or "_" in stripped or "+" in stripped:
            for token in stripped.encode().split():
                if not token.removeprefix(b"-").isdigit():
                    raise DimacsError(f"non-integer token {token.decode()!r}", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"non-integer token {token!r}", lineno) from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
                continue
            if abs(lit) > num_vars:
                raise LiteralOutOfRangeError(
                    f"literal {lit} out of range for {num_vars} variables", lineno
                )
            pending.append(lit)

    if num_vars is None:
        raise MalformedHeaderError("missing 'p cnf' header", last_line or None)
    if pending:
        raise UnterminatedClauseError(
            "end of input inside a clause (missing terminating 0)", last_line
        )
    if declared_clauses != len(clauses):
        warnings.warn(
            f"header declares {declared_clauses} clauses but {len(clauses)} found",
            DimacsWarning,
            stacklevel=2,
        )
    return RawCnf(num_vars=num_vars, clauses=tuple(clauses))


def write_dimacs(formula: PcnfFormula) -> str:
    """Serialize a formula in canonical clause order.

    Parsing the output and normalizing reproduces the formula exactly.
    """
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause.literals())) + " 0")
    return "\n".join(lines) + "\n"
