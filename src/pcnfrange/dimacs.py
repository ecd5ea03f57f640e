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
is common in the wild, so it warns instead of failing.  A clause section
of plain in-range literals ending in 0, after a header preceded by comment
lines only, is converted in one pass; the line-by-line reader, which names
every error and its line, reads anything else, with identical results.
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
    UnterminatedClauseError, and plain DimacsError for a non-integer token
    or an undecodable byte (all carrying line numbers).  Emits a
    DimacsWarning when the header's clause count does not match.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = text[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            line = head.count(b"\n") + 1
            raise DimacsError(f"undecodable byte {text[exc.start]:#04x}", line) from None
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    num_vars, declared_clauses, clauses = _read_bulk(text) or _read_lines(text)
    if declared_clauses != len(clauses):
        warnings.warn(
            f"header declares {declared_clauses} clauses but {len(clauses)} found",
            DimacsWarning,
            stacklevel=2,
        )
    return RawCnf(num_vars=num_vars, clauses=tuple(clauses))


def _read_header(stripped: str, lineno: int) -> tuple[int, int]:
    """The variable and clause counts of a ``p`` line."""
    fields = stripped.encode().split()  # bytes split at ASCII whitespace
    counts = b"".join(fields[2:])  # and bytes.isdigit() is ASCII-only
    if len(fields) != 4 or fields[:2] != [b"p", b"cnf"] or not counts.isdigit():
        raise MalformedHeaderError(f"bad header {stripped!r}", lineno)
    try:
        num_vars, declared_clauses = map(int, fields[2:])
    except ValueError:  # more digits than int() converts
        raise MalformedHeaderError(f"bad header {stripped!r}", lineno) from None
    return num_vars, declared_clauses


# Bytes of a clause section the bulk reader converts: ASCII digits, "-" and
# the separators.  bytes.split() breaks at exactly these separators, and
# int() reads a token of digits and "-" only if it is -?[0-9]+.
_BULK_BYTES = b"0123456789- \t\n\v\f"


def _read_bulk(text: str) -> tuple[int, int, list[tuple[int, ...]]] | None:
    """Header counts and clauses, the clause section converted in one pass.

    Only comment and blank lines may precede the header, and the section
    must hold nothing but in-range literals ending in 0 up to an optional
    ``%`` line.  Otherwise returns None, and `_read_lines` reads the text.
    A malformed header raises here as it would there, on the same line.
    """
    start = lineno = 0
    while True:
        lineno += 1
        end = text.find("\n", start)
        if end < 0:
            return None
        stripped = text[start:end].strip(" \t\v\f")
        start = end + 1
        if stripped.startswith("p"):
            break
        if stripped and not stripped.startswith("c"):
            return None
    num_vars, declared_clauses = _read_header(stripped, lineno)
    body = text[start:]
    trailer = body.find("%")
    if trailer >= 0:
        line_start = body.rfind("\n", 0, trailer) + 1
        if body[line_start:trailer].strip(" \t\v\f"):
            return None
        body = body[:line_start]
    if not body.isascii():
        return None
    data = body.encode()
    if data.translate(None, _BULK_BYTES):
        return None
    try:
        literals = tuple(map(int, data.split()))
    except ValueError:
        return None
    if literals and (literals[-1] or max(literals) > num_vars or min(literals) < -num_vars):
        return None
    clauses = []
    find_zero = literals.index
    start = 0
    while start < len(literals):
        end = find_zero(0, start)
        clauses.append(literals[start:end])
        start = end + 1
    return num_vars, declared_clauses, clauses


def _read_lines(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Header counts and clauses, read line by line with every check."""
    num_vars: int | None = None
    declared_clauses = 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    last_line = 0

    # str.splitlines() would also end a line at \v, \f, \x1c-\x1e and Unicode
    # line breaks, and str.split() breaks tokens at \x1c-\x1f.
    lines = text.split("\n")
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
            num_vars, declared_clauses = _read_header(stripped, lineno)
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
    return num_vars, declared_clauses, clauses


def write_dimacs(formula: PcnfFormula) -> str:
    """Serialize a formula in canonical clause order.

    Parsing the output and normalizing reproduces the formula exactly.
    """
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause.literals())) + " 0")
    return "\n".join(lines) + "\n"
