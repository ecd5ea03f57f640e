"""Analysis reports: verdict synthesis, the stable JSON schema, and text
rendering.

Variables are rendered as letters a, b, c, ... while the declared universe
has n <= 26 variables and as 1-based indices beyond that.  JSON output sorts
every map key and is byte-stable for identical inputs.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .bounds import BoundsTable, Construction, clause_distribution
from .detectors import Reason, ScreenResult, Verdict, screen_all
from .oracle import OracleResult, solve

if TYPE_CHECKING:
    from .formula import PcnfFormula
    from .generate import VerificationReport

DEFAULT_ANALYZE_ORACLE_CAP = 20


def var_name(index: int, n: int) -> str:
    """Letter name for a variable while the universe fits the alphabet."""
    if n <= 26:
        return chr(ord("a") + index)
    return str(index + 1)


def literal_name(index: int, negated: bool, n: int) -> str:
    return ("~" if negated else "") + var_name(index, n)


def class_key_name(key: tuple[int, ...], n: int) -> str:
    if n <= 26:
        return "".join([chr(ord("a") + v) for v in key])
    return ",".join([str(v + 1) for v in key])


def render_reason(reason: Reason, n: int) -> str:
    """One-line human-readable form of a fired rule."""
    if reason.rule == "beyond_f":
        return f"beyond_f clauses={reason.count} f={reason.threshold}"
    if reason.rule == "variable_occurrence":
        return (
            f"variable_occurrence variable={var_name(reason.variable, n)} "
            f"occurrences={reason.count} v={reason.threshold}"
        )
    if reason.rule == "literal_saturation":
        return (
            f"literal_saturation literal={literal_name(reason.variable, reason.negated, n)} "
            f"occurrences={reason.count} complement_occurrences={reason.complement_count} "
            f"q={reason.threshold}"
        )
    if reason.rule == "clause_class":
        return f"clause_class key={class_key_name(reason.class_key, n)}"
    raise ValueError(f"unknown rule {reason.rule!r}")


class AnalysisVerdict(Enum):
    """A report's verdict: ``value`` is its printed form, ``exit_code`` its
    SAT-convention exit code (20 proven unsat, 10 proven sat, 0 unknown)."""

    UNSATISFIABLE = "unsatisfiable", 20
    UNSATISFIABLE_ORACLE = "unsatisfiable (oracle)", 20
    SATISFIABLE_TRIVIALLY = "satisfiable (trivially)", 10
    SATISFIABLE_ORACLE = "satisfiable (oracle)", 10
    UNKNOWN = "unknown", 0

    def __new__(cls, text: str, exit_code: int) -> AnalysisVerdict:
        member = object.__new__(cls)
        member._value_, member.exit_code = text, exit_code
        return member


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    """The complete analysis record for one formula."""

    screen: ScreenResult
    oracle: OracleResult | None
    verdict: AnalysisVerdict
    reasons: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        """The verdict's SAT-convention exit code."""
        return self.verdict.exit_code


def build_report(
    screen: ScreenResult,
    oracle: OracleResult | None = None,
) -> AnalysisReport:
    """Combine screening evidence and an optional oracle run into a verdict.

    Detector evidence wins (it is sound); the oracle settles what the
    detectors leave unknown.  An empty formula is satisfiable outright.
    """
    reasons = [render_reason(r, screen.num_vars) for r in screen.reasons]
    if screen.verdict is Verdict.UNSATISFIABLE:
        verdict = AnalysisVerdict.UNSATISFIABLE
        if oracle is not None and oracle.model_count == 0:
            reasons.append("oracle model_count=0")
    elif oracle is not None and oracle.model_count == 0:
        verdict = AnalysisVerdict.UNSATISFIABLE_ORACLE
        reasons.append("oracle model_count=0")
    elif screen.num_clauses == 0:
        verdict = AnalysisVerdict.SATISFIABLE_TRIVIALLY
        reasons.append("no clauses")
    elif oracle is not None:
        verdict = AnalysisVerdict.SATISFIABLE_ORACLE
        reasons.append(f"oracle model_count={oracle.model_count}")
    else:
        verdict = AnalysisVerdict.UNKNOWN
    return AnalysisReport(
        screen=screen, oracle=oracle, verdict=verdict, reasons=tuple(reasons)
    )


def analyze(
    formula: PcnfFormula,
    *,
    oracle_max_n: int = DEFAULT_ANALYZE_ORACLE_CAP,
    recount_vars: bool = False,
    early_exit: bool = False,
) -> AnalysisReport:
    """The paper's procedure on one normalized formula: the clause count
    against f(n) and g(n), the counting rules, then the oracle when the
    declared universe has at most ``oracle_max_n`` variables.  With
    ``recount_vars`` the bounds count only the variables that occur, if any
    do.  This is where the CLI's oracle-cap and recount rules live."""
    occurring = len(formula.occurring_variables()) if recount_vars else 0
    screen = screen_all(formula, n=occurring or None, early_exit=early_exit)
    oracle = solve(formula, max_n=oracle_max_n) if formula.num_vars <= oracle_max_n else None
    return build_report(screen, oracle)


def report_to_dict(report: AnalysisReport) -> dict:
    """The stable report schema; every numeric field an exact int."""
    screen = report.screen
    num_vars = screen.num_vars
    table = screen.class_table
    oracle_doc: dict = {"run": report.oracle is not None}
    if report.oracle is not None:
        oracle_doc["model_count"] = report.oracle.model_count
    b = screen.bounds
    return {
        "n": b.n,
        "num_clauses": screen.num_clauses,
        "bounds": {"m": b.m, "f": b.f, "g": b.g, "v": b.v, "p": b.p, "q": b.q},
        "range_class": screen.range_class.value,
        "detectors": {
            "corollary": screen.occurrence.outcome.value,
            "clause_class": {
                "verdict": screen.clause_class.outcome.value,
                "C": {
                    class_key_name(key, num_vars): count
                    for key, count in table.counts.items()
                },
                "U": {str(width): cap for width, cap in table.ceilings.items()},
            },
        },
        "oracle": oracle_doc,
        "verdict": report.verdict.value,
        "reasons": list(report.reasons),
    }


def verification_to_dict(vr: VerificationReport) -> dict:
    t = vr.tightness
    return {
        "n": vr.n,
        "mode": vr.mode.value,
        "bounds": asdict(vr.bounds),
        "strata": [
            {
                "name": s.name,
                "clause_counts": [s.clause_count_lo, s.clause_count_hi],
                "formulas_checked": s.formulas_checked,
                "max_models_seen": s.max_models_seen,
                "counterexamples": [
                    {
                        "num_clauses": ce.num_clauses,
                        "clause_indices": list(ce.clause_indices),
                        "model_count": ce.model_count,
                    }
                    for ce in s.counterexamples
                ],
            }
            for s in vr.strata
        ],
        "tightness": {
            "max_sat_clause_count": t.max_sat_clause_count,
            "max_sat_model_count": t.max_sat_model_count,
            "double_sat_clause_count": t.double_sat_clause_count,
            "double_sat_model_count": t.double_sat_model_count,
        },
        "ok": vr.ok,
    }


def oracle_to_dict(result: OracleResult, n: int) -> dict:
    doc: dict = {
        "model_count": result.model_count,
        "verdict": result.verdict.value,
    }
    if result.models:
        doc["models"] = [
            {var_name(v, n): bool(a >> v & 1) for v in range(n)}
            for a in result.models
        ]
    return doc


@contextmanager
def _exact_ints():
    """Lift the interpreter's int-to-string digit limit for the duration, so
    bounds print as exact ints (m = 3^n - 1 is beyond its default 4,300
    digits from n = 9013)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@_exact_ints()
def to_json(doc: dict) -> str:
    """Byte-stable JSON: sorted keys, fixed two-space indentation, exact ints
    however many digits they have.  The bytes are ``json.dumps(doc, indent=2,
    sort_keys=True)``'s over the reports' subset: str-keyed dicts, lists, str,
    int, bool and None; anything else (a float, an int key) raises TypeError."""
    return _json(doc, "") + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json(value, indent: str) -> str:
    # Sorting bare keys, not json's (key, value) tuples, is 3-4x faster on
    # the clause-class table C; a dict of plain ints is one comprehension.
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or isinstance(value, bool):
        return _JSON_WORDS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        items, ends = [inner + _json(v, inner) for v in value], "[]"
    elif isinstance(value, dict):
        keys, ends = sorted(value), "{}"
        if all(type(v) is int for v in value.values()):
            items = [f"{inner}{_encode_str(k)}: {value[k]}" for k in keys]
        else:
            items = [f"{inner}{_encode_str(k)}: {_json(value[k], inner)}" for k in keys]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return f"{ends[0]}\n" + ",\n".join(items) + f"\n{indent}{ends[1]}"


@_exact_ints()
def bounds_text(table: BoundsTable) -> str:
    rows = [
        ("n", table.n, "variables"),
        ("m", table.m, "clause universe size (3^n - 1)"),
        ("f", table.f, "final point of satisfiability (3^n - 2^n)"),
        ("g", table.g, "last point of double satisfiability (f - 2^(n-1))"),
        ("r", table.r, "clauses removed from m to reach f (2^n - 1)"),
        ("s", table.s, "clauses removed from f to reach g (2^(n-1))"),
        ("v", table.v, "variable-occurrence ceiling"),
        ("p", table.p, "literal-occurrence ceiling (3^(n-1))"),
        ("q", table.q, "complement-occurrence threshold (v - p)"),
    ]
    width = max(len(str(value)) for _, value, _ in rows)
    return "\n".join(f"{name}  {value:>{width}}  {note}" for name, value, note in rows)


@_exact_ints()
def report_text(report: AnalysisReport) -> str:
    screen = report.screen
    lines = [
        f"variables      {screen.bounds.n}",
        f"clauses        {screen.num_clauses}",
        f"range          {screen.range_class.value} "
        f"(g={screen.bounds.g}, f={screen.bounds.f}, m={screen.bounds.m})",
        f"occurrences    {screen.occurrence.outcome.value}",
        f"clause classes {screen.clause_class.outcome.value}",
        "oracle         "
        + ("not run" if report.oracle is None else f"model_count={report.oracle.model_count}"),
        f"verdict        {report.verdict.value}",
    ]
    for reason in report.reasons:
        lines.append(f"  reason: {reason}")
    return "\n".join(lines)


def _width_table(n: int) -> list[str]:
    rows = [("width", list(range(1, n + 1)))]
    rows.append(("universe (m)", list(clause_distribution(n, Construction.ALL))))
    rows.append(("max-sat (f)", list(clause_distribution(n, Construction.MAX_SAT))))
    if n >= 2:
        rows.append(
            ("double-sat (g)", list(clause_distribution(n, Construction.DOUBLE_SAT)))
        )
    cell = max(len(str(v)) for _, values in rows for v in values)
    return [
        f"  {label:<15}" + "  ".join(f"{v:>{cell}}" for v in values)
        for label, values in rows
    ]


def verification_text(vr: VerificationReport) -> str:
    lines = [
        f"n={vr.n} mode={vr.mode.value}  (g={vr.bounds.g}, f={vr.bounds.f}, m={vr.bounds.m})"
    ]
    lines.extend(_width_table(vr.n))
    for s in vr.strata:
        lines.append(
            f"  {s.name:<14} M in [{s.clause_count_lo}, {s.clause_count_hi}]"
            f"  checked={s.formulas_checked}"
            f"  max_models={s.max_models_seen}"
            f"  counterexamples={len(s.counterexamples)}"
        )
    total = sum(s.formulas_checked for s in vr.strata)
    total_ce = sum(len(s.counterexamples) for s in vr.strata)
    floor = min(s.clause_count_lo for s in vr.strata) - 1
    bound_name = "g" if floor == vr.bounds.g else "f"
    lines.append(
        f"  checked {total} formulas above {bound_name}({vr.n}), {total_ce} counterexamples"
    )
    t = vr.tightness
    lines.append(
        f"  tightness      max_sat: {t.max_sat_clause_count} clauses,"
        f" {t.max_sat_model_count} model(s)"
    )
    if t.double_sat_clause_count is not None:
        lines.append(
            f"                 double_sat: {t.double_sat_clause_count} clauses,"
            f" {t.double_sat_model_count} model(s)"
        )
    lines.append(f"  ok             {vr.ok}")
    return "\n".join(lines)
