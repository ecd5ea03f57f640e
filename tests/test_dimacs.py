import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnfrange import (
    DimacsWarning,
    LiteralOutOfRangeError,
    MalformedHeaderError,
    PcnfFormula,
    UnterminatedClauseError,
    normalize,
    parse_dimacs,
    sample_pcnf,
    write_dimacs,
)
from pcnfrange import dimacs
from pcnfrange.dimacs import DimacsError

from tests.helpers import GOLDEN_CNF, cl, golden_formula


def test_parse_minimal_contradiction():
    raw = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert raw.num_vars == 1
    assert raw.clauses == ((1,), (-1,))


def test_parse_preserves_duplicate_literals():
    raw = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
    assert raw.clauses == ((1, 1, -2),)
    f, _ = normalize(raw)
    assert f.clauses == (cl("a ~b"),)


def test_parse_golden_fixture():
    raw = parse_dimacs(GOLDEN_CNF.read_text())
    assert raw.num_vars == 3
    assert len(raw.clauses) == 17
    f, stats = normalize(raw)
    assert f == golden_formula()
    assert stats.duplicate_clauses_dropped == 0


def test_parse_accepts_bytes_comments_and_split_clauses():
    raw = parse_dimacs(b"c header comment\np cnf 2 2\n1\n2 0\nc mid\n-1 -2 0\n")
    assert raw.clauses == ((1, 2), (-1, -2))


def test_parse_skips_one_byte_order_mark_in_str():
    assert parse_dimacs("\ufeffp cnf 3 1\n1 0\n").clauses == ((1,),)
    with pytest.raises(DimacsError, match="line 1"):
        parse_dimacs("\ufeff\ufeffp cnf 3 1\n1 0\n")


def test_parse_skips_byte_order_mark_in_bytes():
    raw = parse_dimacs(b"\xef\xbb\xbfp cnf 3 1\n1 0\n")
    assert (raw.num_vars, raw.clauses) == (3, ((1,),))


def test_parse_names_the_line_of_an_undecodable_byte():
    for data, message in [
        (b"p cnf 2 1\n1 \xff 0\n", "line 2: undecodable byte 0xff"),
        (b"\xfe", "line 1: undecodable byte 0xfe"),
        (b"\xef\xbb\xbfc \xe9t\xe9\np cnf 1 1\n1 0\n", "line 1: undecodable byte 0xe9"),
        # lines end at \r\n, \r and \n, as the parser counts them
        (b"c a\r\nc b\rc c\n\np cnf 2 1\n1 2 0\n-1 \xc3", "line 7: undecodable byte 0xc3"),
    ]:
        with pytest.raises(DimacsError) as err:
            parse_dimacs(data)
        assert str(err.value) == message


def test_parse_records_empty_clause():
    raw = parse_dimacs("p cnf 2 2\n1 0\n0\n")
    assert () in raw.clauses


def test_parse_warns_on_clause_count_mismatch():
    with pytest.warns(DimacsWarning):
        parse_dimacs("p cnf 1 5\n1 0\n")


def test_parse_stops_at_satlib_trailer():
    # SATLIB's uf20-91 files end in "%" then "0"; neither is a clause
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n")
    assert raw.clauses == ((1, -2), (2, 3))
    with pytest.raises(UnterminatedClauseError):
        parse_dimacs("p cnf 3 1\n1 -2\n%\n0\n")


def test_parse_rejects_missing_header():
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("1 0\n")


def test_parse_rejects_bad_header():
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p dnf 1 1\n1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p cnf one 1\n1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")


def test_parse_rejects_out_of_range_literal():
    with pytest.raises(LiteralOutOfRangeError) as exc:
        parse_dimacs("p cnf 2 1\n3 0\n")
    assert exc.value.line == 2


def test_parse_rejects_unterminated_clause():
    with pytest.raises(UnterminatedClauseError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_rejects_garbage_token():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")


# A literal is ASCII -?[0-9]+ and a header count ASCII [0-9]+, although int()
# reads all of these.
NON_DIMACS_INTEGERS = ("1_0", "\u0661", "+1", "\uff11", "-+1", "+-1")


@pytest.mark.parametrize("token", NON_DIMACS_INTEGERS)
def test_parse_rejects_non_dimacs_integer_literal(token):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(f"p cnf 10 2\n1 0\n2 {token} 0\n")
    assert type(exc.value) is DimacsError
    assert str(exc.value) == f"line 3: non-integer token {token!r}"


@pytest.mark.parametrize("token", NON_DIMACS_INTEGERS + ("-3",))
def test_parse_rejects_non_dimacs_header_count(token):
    for header in (f"p cnf {token} 1", f"p cnf 3 {token}"):
        with pytest.raises(MalformedHeaderError, match="line 1: bad header"):
            parse_dimacs(f"{header}\n1 0\n")


def test_parse_token_grammar_edges():
    # the first offending token is named, whatever made the line suspect
    with pytest.raises(DimacsError, match="non-integer token 'x'"):
        parse_dimacs("p cnf 2 1\nx 1_0 0\n")
    with pytest.raises(MalformedHeaderError, match="line 1"):
        parse_dimacs("p cnf " + "9" * 5000 + " 1\n1 0\n")
    # comments may hold any text and "-0" ends a clause
    raw = parse_dimacs("c \u0661 caf\u00e9 +1 1_0\np cnf 3 2\n-0 1 -02 0\n")
    assert raw.clauses == ((), (1, -2))


def test_parse_separates_tokens_at_ascii_whitespace_only():
    # space, tab, vertical tab and form feed separate tokens; a line ends at
    # \n, \r\n or \r
    raw = parse_dimacs("p cnf\t3\v2\f\r\n\v1\t-2\f0 \r3 \t -3 0\n")
    assert raw.clauses == ((1, -2), (3, -3))
    with pytest.raises(UnterminatedClauseError, match="line 3"):
        parse_dimacs("p cnf 3 1\r\n1 2\r3\n")


@pytest.mark.parametrize(
    "token", ["3\u00a0-3", "1\x1f2", "1\x1c2", "1\u20282", "1\x852", "0\u00a0", "1\u3000"]
)
def test_parse_rejects_non_ascii_and_control_separators(token):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(f"p cnf 3 1\n{token} 0\n")
    assert type(exc.value) is DimacsError
    assert str(exc.value) == f"line 2: non-integer token {token!r}"
    with pytest.raises(MalformedHeaderError, match="line 1: bad header"):
        parse_dimacs(f"p cnf 3{token[1]}1\n1 0\n")


def parse_outcome(text):
    """The RawCnf or the error of ``parse_dimacs(text)``, the warnings it
    emitted (where they point included), and whether the line loop ran."""
    with mock.patch.object(dimacs, "_read_lines", wraps=dimacs._read_lines) as loop:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = parse_dimacs(text)
            except DimacsError as exc:
                result = (type(exc), str(exc))
    notes = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return result, notes, loop.called


@st.composite
def dimacs_texts(draw):
    """DIMACS text in plain layouts as three parts (header with any leading
    comments, clause section, ``%`` trailer), its line end, and whether it
    is valid.  A comment line put between the last two parts reaches the
    line loop."""
    n = draw(st.integers(1, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=8))
    tokens = [str(lit) for clause in clauses for lit in [*clause, 0]]
    if clauses and draw(st.booleans()):
        out_of_range = str(draw(st.sampled_from([n + 1, -n - 1])))
        tokens.insert(draw(st.integers(0, len(tokens) - 1)), out_of_range)
    if tokens and draw(st.booleans()):
        tokens.pop()  # usually a missing final 0
    padded = draw(st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens)))
    tokens = [  # zero-padded: "-01" and "00" are DIMACS integers too
        tok.replace("-", "-0") if pad and "-" in tok else "0" * pad + tok
        for tok, pad in zip(tokens, padded)
    ]
    seps = draw(st.lists(st.sampled_from([" ", "\t", "\n", " \n", "\n\n", "\v", "\f "]),
                         min_size=len(tokens), max_size=len(tokens)))
    section = "".join(tok + sep for tok, sep in zip(tokens, seps))
    declared = draw(st.sampled_from([len(clauses), len(clauses) + 1, 0]))
    head = draw(st.sampled_from(["", "c a comment\n", "\n  c indented\n"]))
    trailer = draw(st.sampled_from(["", "%\n0\n", " %\n0\n\n", "%"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    parts = (head + f"p cnf {n} {declared}\n", section, trailer)
    valid = (
        int((tokens or ["0"])[-1]) == 0
        and all(abs(int(tok)) <= n for tok in tokens)
        and not (trailer and section and not section.endswith("\n"))  # "0 %"
    )
    return [part.replace("\n", eol) for part in parts], eol, valid


@settings(max_examples=300, deadline=None)
@given(dimacs_texts())
def test_bulk_reader_and_line_loop_agree(case):
    (head, section, trailer), eol, valid = case
    text = head + section + trailer
    result, notes, line_loop_ran = parse_outcome(text)
    # A comment line after the header sends the same clauses through the
    # line loop; the section ends in a line end, or it gets one first.
    if section and not section.endswith(eol):
        section += eol
    forced = head + section + "c" + eol + trailer
    forced_result, forced_notes, forced_loop_ran = parse_outcome(forced)
    assert forced_loop_ran
    if valid:
        assert not line_loop_ran
        assert (result, notes) == (forced_result, forced_notes)
        assert all(filename == __file__ for _, _, filename, _ in notes)  # the caller
    else:
        # Refused by the bulk reader: every error comes from the line loop.
        assert line_loop_ran
        assert isinstance(result, tuple) and issubclass(result[0], DimacsError)


def test_satlib_file_takes_the_bulk_path():
    text = "c uf-style\np cnf 4 3\n 1 -2 3 0\n-4\n2 0\n\n4 0\n%\n0\n\n"
    with mock.patch.object(dimacs, "_read_lines", side_effect=AssertionError):
        raw = parse_dimacs(text)
    assert raw.clauses == ((1, -2, 3), (-4, 2), (4,))
    assert parse_dimacs(text.replace("%", "c\n%")) == raw  # line loop


def test_write_single_clause():
    f = PcnfFormula.from_clauses(2, [cl("a ~b")])
    assert write_dimacs(f) == "p cnf 2 1\n1 -2 0\n"


def test_write_empty_formula():
    assert write_dimacs(PcnfFormula.from_clauses(3, [])) == "p cnf 3 0\n"


def test_roundtrip_random_formulas():
    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randint(1, 8)
        f = sample_pcnf(n, rng.randint(0, 3**n - 1), seed=rng.randrange(2**30))
        reparsed, _ = normalize(parse_dimacs(write_dimacs(f)))
        assert reparsed == f


def test_golden_fixture_roundtrip():
    f = golden_formula()
    reparsed, _ = normalize(parse_dimacs(write_dimacs(f)))
    assert reparsed == f
