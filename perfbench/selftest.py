"""Self-test of the checkers: each must accept a correct report and reject
a deliberately wrong one.

Run standalone with ``python3 perfbench/selftest.py``; `perfbench/run.py`
also runs it before every measurement.  Needs no program.
"""
from __future__ import annotations

import copy
import random
import sys
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402


def _brute_force_count(n, clauses):
    return sum(
        all(any((a >> (abs(lit) - 1) & 1) == (lit > 0) for lit in c) for c in clauses)
        for a in range(1 << n)
    )


def _verify_doc(n: int) -> dict:
    """A correct exhaustive ``verify`` report, from the closed forms."""
    b = check.closed_forms(n)
    return {
        "n": n,
        "mode": "exhaustive",
        "bounds": b,
        "strata": [
            {
                "name": "natural_range",
                "clause_counts": [b["g"] + 1, b["f"]],
                "formulas_checked": sum(comb(b["m"], k) for k in range(b["g"] + 1, b["f"] + 1)),
                "max_models_seen": 1,
                "counterexamples": [],
            },
            {
                "name": "beyond_f",
                "clause_counts": [b["f"] + 1, b["m"]],
                "formulas_checked": sum(comb(b["m"], k) for k in range(b["f"] + 1, b["m"] + 1)),
                "max_models_seen": 0,
                "counterexamples": [],
            },
        ],
        "tightness": {
            "max_sat_clause_count": b["f"],
            "max_sat_model_count": 1,
            "double_sat_clause_count": b["g"],
            "double_sat_model_count": 2,
        },
        "ok": True,
    }


def run() -> list[str]:
    """Failures of the self-test; empty when every checker behaves."""
    failures = []

    def expect(problems, should_fail: bool, what: str) -> None:
        if bool(problems) != should_fail:
            verb = "accepted" if should_fail else "rejected"
            failures.append(f"{what}: checker {verb} it {problems}")

    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 6)
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(0, 12))
        ]
        if check.count_models(n, check.pcnf(clauses)) != _brute_force_count(n, clauses):
            failures.append(f"model counter disagrees with brute force on n={n} {clauses}")

    # A satisfiable formula the oracle settles: a wrong model count.
    sat = [(1, 2), (-1, 3), (2, -3)]
    doc, code, confirm = check.expected_analysis(3, sat)
    expect(check.check_analysis(doc, code, doc, code) + confirm, False, "correct analyze report")
    wrong = copy.deepcopy(doc)
    wrong["oracle"]["model_count"] += 1
    expect(check.check_analysis(wrong, code, doc, code), True, "wrong model count")

    # A saturated class on {a, b}: a dropped clause_class reason.
    saturated = [(1, 2), (1, -2), (-1, 2), (-1, -2), (3,)]
    doc, code, confirm = check.expected_analysis(3, saturated)
    expect(check.check_analysis(doc, code, doc, code) + confirm, False, "correct saturated report")
    if "clause_class key=ab" not in doc["reasons"]:
        failures.append(f"saturated class not expected to fire: {doc['reasons']}")
    wrong = copy.deepcopy(doc)
    wrong["reasons"].remove("clause_class key=ab")
    expect(check.check_analysis(wrong, code, doc, code), True, "dropped clause_class reason")
    pairs = check.pcnf(saturated)
    reasons = check.expected_reasons(3, pairs)
    expect(check.check_screen(3, len(pairs), pairs, reasons, 0), False, "correct screen result")
    expect(check.check_screen(3, len(pairs), pairs, reasons[:-1], 0), True, "screen result without its class reason")

    # An off-by-one f, in an analyze report and in a verify report.
    wrong = copy.deepcopy(doc)
    wrong["bounds"]["f"] += 1
    expect(check.check_analysis(wrong, code, doc, code), True, "analyze report with f off by one")
    good = _verify_doc(2)
    expect(check.check_verification(good, 0, 2, "exhaustive"), False, "correct verify report")
    wrong = copy.deepcopy(good)
    wrong["bounds"]["f"] += 1
    expect(check.check_verification(wrong, 0, 2, "exhaustive"), True, "verify report with f off by one")

    # A sample campaign that checked nothing but says ok.
    vacuous = copy.deepcopy(good)
    vacuous["mode"] = "sample"
    for stratum in vacuous["strata"]:
        stratum["formulas_checked"] = 0
        stratum["max_models_seen"] = 0
    expect(check.check_verification(vacuous, 0, 2, "sample", 0), True, "verify that checked zero formulas")
    return failures


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(p)
    print("checker self-test:", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
