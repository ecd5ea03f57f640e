import json
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcnfrange import (
    AnalysisVerdict,
    BoundsTable,
    PcnfFormula,
    RawCnf,
    VerifyMode,
    analyze,
    build_report,
    normalize,
    report_to_dict,
    screen_all,
    to_json,
    verify_bounds,
)
from pcnfrange import report as report_module
from pcnfrange.report import (
    bounds_text,
    class_key_name,
    render_reason,
    report_text,
    var_name,
    verification_text,
    verification_to_dict,
)

from tests.helpers import golden_formula, pf

SCHEMA_KEYS = {
    "n",
    "num_clauses",
    "bounds",
    "range_class",
    "detectors",
    "oracle",
    "verdict",
    "reasons",
}


def test_golden_formula_report_with_oracle():
    report = analyze(golden_formula())
    doc = report_to_dict(report)
    assert set(doc) == SCHEMA_KEYS
    assert doc["verdict"] == "unsatisfiable (oracle)"
    assert doc["range_class"] == "natural_range"
    assert doc["detectors"]["corollary"] == "unknown"
    assert doc["detectors"]["clause_class"]["verdict"] == "unknown"
    assert doc["detectors"]["clause_class"]["C"] == {
        "a": 1, "b": 1, "c": 1, "ab": 3, "ac": 3, "bc": 2, "abc": 6,
    }
    assert doc["detectors"]["clause_class"]["U"] == {"1": 2, "2": 4, "3": 8}
    assert doc["bounds"] == {"m": 26, "f": 19, "g": 15, "v": 14, "p": 9, "q": 5}
    assert doc["oracle"] == {"run": True, "model_count": 0}
    assert report.exit_code == 20


def test_complementary_units_report():
    report = analyze(pf(1, "a, ~a"), oracle_max_n=0)
    doc = report_to_dict(report)
    assert doc["verdict"] == "unsatisfiable"
    assert "clause_class key=a" in doc["reasons"]
    assert doc["oracle"] == {"run": False}
    assert report.exit_code == 20


def test_empty_formula_report():
    report = analyze(PcnfFormula.from_clauses(3, []))
    doc = report_to_dict(report)
    assert doc["verdict"] == "satisfiable (trivially)"
    assert doc["detectors"]["corollary"] == "unknown"
    assert doc["detectors"]["clause_class"]["verdict"] == "unknown"
    assert report.exit_code == 10


def test_satisfiable_with_oracle():
    report = analyze(pf(1, "a"))
    assert report.verdict is AnalysisVerdict.SATISFIABLE_ORACLE
    assert report.exit_code == 10


def test_unknown_without_oracle():
    report = analyze(golden_formula(), oracle_max_n=0)
    assert report.verdict is AnalysisVerdict.UNKNOWN
    assert report.oracle is None
    assert report.exit_code == 0


@pytest.mark.parametrize(
    "cap, message",
    [
        (30, "oracle cap 30 exceeds the ceiling of 24 variables"),
        (-1, "oracle cap must be >= 0, got -1"),
    ],
)
def test_analyze_refuses_an_oracle_cap_outside_the_ceiling(monkeypatch, cap, message):
    # With the CLI's words, and before any work: a cap of 30 would otherwise
    # let a 25-variable formula reach the oracle and its own refusal.
    monkeypatch.setattr("pcnfrange.report.screen_all", None)
    with pytest.raises(ValueError) as refusal:
        analyze(pf(25, "a"), oracle_max_n=cap)
    assert refusal.value.args == (message,)


# One formula per verdict, with the printed string and exit code it must give.
VERDICT_CASES = [
    (AnalysisVerdict.UNSATISFIABLE, pf(1, "a, ~a"), {}, "unsatisfiable", 20),
    (AnalysisVerdict.UNSATISFIABLE_ORACLE, golden_formula(), {}, "unsatisfiable (oracle)", 20),
    (AnalysisVerdict.SATISFIABLE_TRIVIALLY, PcnfFormula(3, ()), {}, "satisfiable (trivially)", 10),
    (AnalysisVerdict.SATISFIABLE_ORACLE, pf(1, "a"), {}, "satisfiable (oracle)", 10),
    (AnalysisVerdict.UNKNOWN, golden_formula(), {"oracle_max_n": 0}, "unknown", 0),
]


@pytest.mark.parametrize(
    "verdict, formula, kwargs, text, code",
    VERDICT_CASES,
    ids=[case[0].name for case in VERDICT_CASES],
)
def test_each_verdict_prints_its_string_and_exits_with_its_code(
    verdict, formula, kwargs, text, code
):
    report = analyze(formula, **kwargs)
    assert report.verdict is verdict
    assert verdict.value == text
    assert report_to_dict(report)["verdict"] == text
    assert f"verdict        {text}" in report_text(report).splitlines()
    assert verdict.exit_code == report.exit_code == code
    assert AnalysisVerdict(text) is verdict


def test_verdict_cases_cover_every_member():
    assert [case[0] for case in VERDICT_CASES] == list(AnalysisVerdict)


def test_recount_vars_classifies_against_the_occurring_variables():
    # two of 30 declared variables occur; 4 clauses is f(2) - 1: natural range
    f = pf(30, "a b, a ~b, ~a b, a")
    plain, recounted = analyze(f), analyze(f, recount_vars=True)
    assert (plain.screen.bounds.n, plain.screen.range_class.value) == (30, "below_range")
    assert (recounted.screen.bounds.n, recounted.screen.range_class.value) == (2, "natural_range")
    assert recounted.screen.num_vars == 30
    assert plain.oracle is recounted.oracle is None  # 30 variables: past the default cap
    # no clause, no occurring variable: the declared universe stays
    assert analyze(PcnfFormula(3, ()), recount_vars=True).screen.bounds.n == 3


def test_json_is_byte_stable_and_sorted():
    f = golden_formula()
    a = to_json(report_to_dict(analyze(f)))
    b = to_json(report_to_dict(analyze(f)))
    assert a == b
    parsed = json.loads(a)
    assert list(parsed) == sorted(parsed)
    assert a == to_json(parsed)  # reserializing parses back to the same bytes


def test_integers_stay_exact():
    doc = report_to_dict(analyze(pf(2, "a, b")))
    assert all(isinstance(v, int) for v in doc["bounds"].values())
    assert isinstance(doc["num_clauses"], int)


def test_var_name_letters_then_indices():
    assert var_name(0, 3) == "a"
    assert var_name(25, 26) == "z"
    assert var_name(0, 27) == "1"


def test_class_key_names_join_variable_names():
    for key, n in [((0,), 1), ((0, 2, 25), 26), ((0,), 27), ((29, 39), 40), ((), 5)]:
        sep = "" if n <= 26 else ","
        assert class_key_name(key, n) == sep.join(var_name(v, n) for v in key)


@pytest.mark.parametrize("n", [3, 26, 27, 61, 62, 1000])
def test_class_keys_are_named_once_per_variable(monkeypatch, n):
    # Seeded clauses of width 1 to 3; at n = 1000 variables 1-20 carry a
    # third of them, so most names recur across classes.
    rng = random.Random(n)
    pools = [range(1, n + 1), range(1, min(n, 20) + 1)]
    clauses = tuple(
        tuple(v if rng.getrandbits(1) else -v for v in rng.sample(pool, rng.randint(1, 3)))
        for pool in rng.choices(pools, weights=[2, 1], k=300)
    )
    formula, _ = normalize(RawCnf(n, clauses))
    report = analyze(formula, oracle_max_n=0)
    named = []

    def counting_var_name(index, num_vars):
        named.append(index)
        return var_name(index, num_vars)

    monkeypatch.setattr(report_module, "var_name", counting_var_name)
    classes = report_to_dict(report)["detectors"]["clause_class"]["C"]
    monkeypatch.undo()
    counts = report.screen.class_table.counts
    assert list(classes.items()) == [(class_key_name(k, n), c) for k, c in counts.items()]
    assert sorted(named) == list(formula.occurring_variables())


def test_render_reasons():
    f = pf(1, "a, ~a")
    result = screen_all(f)
    rendered = [render_reason(r, 1) for r in result.reasons]
    assert "clause_class key=a" in rendered
    assert any(r.startswith("beyond_f clauses=2 f=1") for r in rendered)


def test_text_renderings_mention_key_facts():
    table_text = bounds_text(screen_all(golden_formula()).bounds)
    assert "26" in table_text and "19" in table_text and "15" in table_text
    text = report_text(analyze(golden_formula()))
    assert "natural_range" in text
    assert "model_count=0" in text
    vtext = verification_text(verify_bounds(2, VerifyMode.EXHAUSTIVE))
    assert "beyond_f" in vtext and "natural_range" in vtext
    assert "checked 163 formulas above g(2), 0 counterexamples" in vtext
    assert "max-sat (f)    2  3" in vtext  # per-width tallies


def test_verification_dict_shape():
    doc = verification_to_dict(verify_bounds(2, VerifyMode.EXHAUSTIVE))
    assert doc["ok"] is True
    assert doc["n"] == 2
    assert {s["name"] for s in doc["strata"]} == {"beyond_f", "natural_range"}
    assert doc["tightness"]["max_sat_clause_count"] == 5
    json.dumps(doc)  # must be serializable as-is


def test_to_json_prints_ints_past_the_interpreter_digit_limit():
    text = to_json({"m": 3**9100})
    assert text.startswith('{\n  "m": ') and text.endswith("\n}\n")
    digits = text[len('{\n  "m": '):-len("\n}\n")]
    assert len(digits) == 4342  # floor(9100 log10 3) + 1
    assert int(digits[-18:]) == pow(3, 9100, 10**18)
    with pytest.raises(ValueError):
        str(3**9100)  # the interpreter's limit is back after the call


def _table_9100() -> BoundsTable:
    # bounds_for's closed forms, without its ~35 s summation cross-check
    n = 9100
    m, r, s, p = 3**n - 1, 2**n - 1, 2 ** (n - 1), 3 ** (n - 1)
    return BoundsTable(n=n, m=m, f=m - r, g=m - r - s, r=r, s=s, v=2 * p - s, p=p, q=p - s)


def test_text_renderers_print_ints_past_the_interpreter_digit_limit():
    table = _table_9100()
    rows = {
        name: value
        for name, value, _ in (line.split(None, 2) for line in bounds_text(table).splitlines())
    }
    assert rows["n"] == "9100"
    assert len(rows["m"]) == 4342  # floor(9100 log10 3) + 1
    assert int(rows["m"][-18:]) == table.m % 10**18
    screen = replace(screen_all(PcnfFormula(1, ())), bounds=table)
    text = report_text(build_report(screen))
    assert f"(g={rows['g']}, f={rows['f']}, m={rows['m']})" in text
    with pytest.raises(ValueError):
        str(table.m)  # the interpreter's limit is back after each call


_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "\U0001f600"])
_TEXT = st.text(st.one_of(st.characters(), _AWKWARD), max_size=8)
_INTS = st.one_of(
    st.integers(),
    st.integers(4_290, 4_400).flatmap(lambda d: st.sampled_from([10**d + 7, -(10**d) - 3])),
)
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _TEXT)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_TEXT, _INTS, max_size=6),  # the one-comprehension path
        st.lists(st.dictionaries(_TEXT, children, max_size=3), max_size=3),
    ),
    max_leaves=25,
)


def _reference_json(doc) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@given(_DOCS)
def test_to_json_matches_json_dumps(doc):
    assert to_json(doc) == _reference_json(doc)


def test_to_json_writes_bools_as_json_beside_equal_ints():
    doc = {"t": True, "one": 1, "f": False, "zero": 0, "mix": [True, 1, False, 0, None]}
    assert to_json(doc) == _reference_json(doc)
    assert '"t": true' in to_json(doc) and '"one": 1' in to_json(doc)
    assert to_json({"a": {}, "b": [], "c": [{}, {"x": -1}]}) == _reference_json(
        {"a": {}, "b": [], "c": [{}, {"x": -1}]}
    )


@pytest.mark.parametrize(
    "doc", [{"x": 1.5}, [0.0], {1: 2}, {"a": {2: "b"}}, {True: 1}, {"a": (1, 2)}, {"a": {1, 2}}]
)
def test_to_json_refuses_values_outside_the_report_subset(doc):
    with pytest.raises(TypeError):
        to_json(doc)
