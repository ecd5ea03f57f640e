"""Independent checkers for the benchmark.

Everything here is derived from DIMACS integers, clause bitmasks and the
paper's closed forms.  Nothing imports or calls ``pcnfrange``: the point is
to judge the program's output with code that shares none of its logic.

Formulas are handled as lists of ``(pos, neg)`` bitmask pairs over 0-based
variables; `pcnf` builds them from DIMACS integer clauses.  A checker
returns a list of human-readable mismatches; an empty list means correct.
"""
from __future__ import annotations

from collections import Counter
from math import comb

# Exit codes the CLI documents.
EX_OK, EX_SAT, EX_UNSAT = 0, 10, 20


def closed_forms(n: int) -> dict[str, int]:
    """m, f, g, r, s, v, p, q at n, straight from the paper's formulas."""
    m = 3**n - 1
    f = 3**n - 2**n
    g = 3**n - 2**n - 2 ** (n - 1)
    p = 3 ** (n - 1)
    q = 3 ** (n - 1) - 2 ** (n - 1)
    v = 2 * 3 ** (n - 1) - 2 ** (n - 1)
    return {"n": n, "m": m, "f": f, "g": g, "r": m - f, "s": f - g, "v": v, "p": p, "q": q}


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def pcnf(clauses) -> dict[tuple[int, int], tuple[int, ...]]:
    """Distinct PCNF clauses of DIMACS integer clauses, as mask pairs in
    input order, each mapped to its ascending 0-based variables.

    Repeated literals merge, tautologies and repeated clauses drop out.
    Raises ValueError on an empty clause.
    """
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for c in clauses:
        if not c:
            raise ValueError("empty clause")
        pos = neg = 0
        for lit in c:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        if not pos & neg and (pos, neg) not in out:
            out[pos, neg] = tuple(sorted({abs(lit) - 1 for lit in c}))
    return out


# --------------------------------------------------------------------------
# model counting over truth tables built from bytes

_TABLES: dict[int, tuple[int, ...]] = {}


def _variable_tables(n: int) -> tuple[int, ...]:
    """Truth table of each variable over the 2^n assignments.

    Bit ``a`` of table ``v`` is set iff bit ``v`` of assignment ``a`` is
    set.  Built from repeated byte patterns.
    """
    cached = _TABLES.get(n)
    if cached is not None:
        return cached
    if n <= 3:
        tables = tuple(sum(1 << a for a in range(1 << n) if a >> v & 1) for v in range(n))
    else:
        nbytes = 1 << (n - 3)
        out = []
        for v in range(n):
            if v < 3:
                pattern = bytes([sum(1 << b for b in range(8) if b >> v & 1)]) * nbytes
            else:
                k = 1 << (v - 3)
                pattern = (b"\x00" * k + b"\xff" * k) * (nbytes // (2 * k))
            out.append(int.from_bytes(pattern, "little"))
        tables = tuple(out)
    if len(_TABLES) > 4:
        _TABLES.clear()
    _TABLES[n] = tables
    return tables


def count_models(n: int, pairs) -> int:
    """Exact number of assignments over n variables satisfying every clause."""
    if n > 24:
        raise ValueError(f"refusing to count models over {n} variables")
    tables = _variable_tables(n)
    full = (1 << (1 << n)) - 1
    acc = full
    for pos, neg in pairs:
        sat = 0
        for v in bits(pos):
            sat |= tables[v]
        for v in bits(neg):
            sat |= full ^ tables[v]
        acc &= sat
        if not acc:
            return 0
    return acc.bit_count()


def relabel(pairs) -> tuple[int, list[tuple[int, int]]]:
    """Renumber the occurring variables 0..k-1, keeping clause structure."""
    union = 0
    for pos, neg in pairs:
        union |= pos | neg
    index = {v: i for i, v in enumerate(bits(union))}

    def squeeze(mask: int) -> int:
        return sum(1 << index[v] for v in bits(mask))

    return len(index), [(squeeze(pos), squeeze(neg)) for pos, neg in pairs]


# --------------------------------------------------------------------------
# the detector rules


def expected_reasons(n: int, pairs, classes: Counter | None = None) -> list[tuple]:
    """Every rule that must fire on the distinct PCNF clauses ``pairs`` at n.

    Each reason is ``(rule, variable, negated, class_key, count, threshold,
    complement_count)`` with 0-based variables, in the documented order:
    the clause-count rule, variable occurrences by variable, literal
    saturations by variable (positive first), saturated classes by key.
    ``classes`` may pass in `class_counts` of ``pairs``.
    """
    b = closed_forms(n)
    out: list[tuple] = []
    if len(pairs) > b["f"]:
        out.append(("beyond_f", None, None, None, len(pairs), b["f"], None))
    pos: Counter = Counter()
    neg: Counter = Counter()
    for tally, masks in ((pos, Counter(p for p, _ in pairs)), (neg, Counter(q for _, q in pairs))):
        for mask, times in masks.items():
            for v in bits(mask):
                tally[v] += times
    occurring = sorted(set(pos) | set(neg))
    for x in occurring:
        if pos[x] + neg[x] > b["v"]:
            out.append(("variable_occurrence", x, None, None, pos[x] + neg[x], b["v"], None))
    for x in occurring:
        for count, comp, negated in ((pos[x], neg[x], False), (neg[x], pos[x], True)):
            if count == b["p"] and comp > b["q"]:
                out.append(("literal_saturation", x, negated, None, count, b["q"], comp))
    saturated = []
    for occ, count in (class_counts(pairs) if classes is None else classes).items():
        if count == 1 << occ.bit_count():
            saturated.append(("clause_class", None, None, tuple(bits(occ)), count, count, None))
    out.extend(sorted(saturated, key=lambda r: r[3]))
    return out


def class_counts(pairs) -> Counter:
    """Clauses per variable set, keyed by the set's mask."""
    return Counter(p | q for p, q in pairs)


def confirm_unsat(pairs, reasons) -> list[str]:
    """Confirm with the model counter that a formula on which a rule fires
    has no model.

    Counts over the occurring variables when there are at most 20 of them.
    Otherwise a saturated class is its own witness: its clauses alone must
    have no model.
    """
    union = 0
    for pos, neg in pairs:
        union |= pos | neg
    k = union.bit_count()
    if k <= 20:
        models = count_models(*relabel(pairs))
        return [] if models == 0 else [f"detector hit has {models} models"]
    problems = []
    for r in reasons:
        if r[0] != "clause_class":
            problems.append(f"cannot confirm rule {r[0]} over {k} occurring variables")
            continue
        occ = sum(1 << v for v in r[3])
        sk, sub = relabel([(p, q) for p, q in pairs if p | q == occ])
        if count_models(sk, sub):
            problems.append(f"saturated class {r[3]} has a model")
    return problems


# --------------------------------------------------------------------------
# analyze reports


def _var(v: int, n: int) -> str:
    return chr(ord("a") + v) if n <= 26 else str(v + 1)


def _key(key, n: int) -> str:
    return ("" if n <= 26 else ",").join(_var(v, n) for v in key)


def render(reason: tuple, n: int) -> str:
    """A reason as the report's ``reasons`` list spells it."""
    rule, var, negated, key, count, threshold, comp = reason
    if rule == "beyond_f":
        return f"beyond_f clauses={count} f={threshold}"
    if rule == "variable_occurrence":
        return f"variable_occurrence variable={_var(var, n)} occurrences={count} v={threshold}"
    if rule == "literal_saturation":
        name = ("~" if negated else "") + _var(var, n)
        return (
            f"literal_saturation literal={name} occurrences={count} "
            f"complement_occurrences={comp} q={threshold}"
        )
    return f"clause_class key={_key(key, n)}"


def expected_analysis(n: int, raw_clauses, oracle_cap: int = 20) -> tuple[dict, int, list[str]]:
    """The analyze report and exit code the documented schema requires for
    a DIMACS file declaring ``n`` variables with ``raw_clauses``.

    The third item lists problems met while confirming, with the model
    counter, that a formula on which a rule fires has no model.
    """
    pairs = pcnf(raw_clauses)
    b = closed_forms(n)
    classes = class_counts(pairs)
    variables = {p | q: vs for (p, q), vs in pairs.items()}
    reasons = expected_reasons(n, pairs, classes)
    M = len(pairs)

    oracle: dict = {"run": n <= oracle_cap}
    models = None
    if oracle["run"]:
        models = oracle["model_count"] = count_models(n, pairs)

    lines = [render(r, n) for r in reasons]
    if reasons:
        verdict = "unsatisfiable"
        if models == 0:
            lines.append("oracle model_count=0")
    elif models == 0:
        verdict = "unsatisfiable (oracle)"
        lines.append("oracle model_count=0")
    elif M == 0:
        verdict = "satisfiable (trivially)"
        lines.append("no clauses")
    elif models is not None:
        verdict = "satisfiable (oracle)"
        lines.append(f"oracle model_count={models}")
    else:
        verdict = "unknown"
    doc = {
        "n": n,
        "num_clauses": M,
        "bounds": {k: b[k] for k in ("m", "f", "g", "v", "p", "q")},
        "range_class": "beyond_f" if M > b["f"] else "natural_range" if M > b["g"] else "below_range",
        "detectors": {
            "corollary": "unsatisfiable"
            if any(r[0] in ("variable_occurrence", "literal_saturation") for r in reasons)
            else "unknown",
            "clause_class": {
                "verdict": "unsatisfiable" if any(r[0] == "clause_class" for r in reasons) else "unknown",
                "C": {_key(variables[occ], n): c for occ, c in classes.items()},
                "U": {str(occ.bit_count()): 1 << occ.bit_count() for occ in classes},
            },
        },
        "oracle": oracle,
        "verdict": verdict,
        "reasons": lines,
    }
    if verdict.startswith("unsatisfiable"):
        code = EX_UNSAT
    elif verdict.startswith("satisfiable"):
        code = EX_SAT
    else:
        code = EX_OK
    return doc, code, confirm_unsat(pairs, reasons) if reasons else []


def check_analysis(doc: dict, code: int, expected: dict, expected_code: int) -> list[str]:
    """Compare an analyze report with the expected one, field by field."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    if set(doc) != set(expected):
        problems.append(f"report keys {sorted(doc)}")
    for field in ("n", "num_clauses", "bounds", "range_class", "oracle", "verdict", "reasons"):
        if doc.get(field) != expected[field]:
            problems.append(f"{field}: got {str(doc.get(field))[:160]}, expected {str(expected[field])[:160]}")
    got, want = doc.get("detectors", {}), expected["detectors"]
    if got.get("corollary") != want["corollary"]:
        problems.append("detectors.corollary differs")
    for field in ("verdict", "C", "U"):
        if got.get("clause_class", {}).get(field) != want["clause_class"][field]:
            problems.append(f"detectors.clause_class.{field} differs")
    return problems


# --------------------------------------------------------------------------
# screening campaign


def check_screen(n: int, size: int, pairs, reasons, model_count) -> list[str]:
    """One campaign formula: a valid PCNF draw of ``size`` clauses over n
    variables, exactly the reasons the counts demand, and for a hit no
    model, by the program's bitmap (``model_count``) and by the counter."""
    problems = []
    universe = (1 << n) - 1
    if len(pairs) != size or len(set(pairs)) != size:
        problems.append(f"drew {len(set(pairs))} distinct of {len(pairs)} clauses, asked for {size}")
    if any(p & q or not p | q or (p | q) & ~universe for p, q in pairs):
        problems.append("drew a clause that is not a PCNF clause over n variables")
    want = expected_reasons(n, pairs)
    if list(reasons) != want:
        problems.append(f"reasons {list(reasons)[:3]} != expected {want[:3]}")
    if want:
        if model_count != 0:
            problems.append(f"program bitmap counted {model_count} models on a hit")
        if count_models(n, pairs):
            problems.append("detector hit has a model")
    elif model_count is not None:
        problems.append("oracle ran on a formula no rule fired on")
    return problems


# --------------------------------------------------------------------------
# verify reports


def check_verification(doc: dict, code: int, n: int, mode: str, sample_count: int = 0) -> list[str]:
    """Check a ``verify`` report over both strata against the closed forms
    and the binomial formula counts.

    Exhaustive: each stratum checked exactly sum C(m, M) formulas over its
    clause counts, the natural range saw at most one model and exactly one
    somewhere (the max-sat construction is in it), beyond f none.  Sample:
    the strata together checked exactly ``sample_count`` formulas.  Either
    way the campaign checked something, found no counterexample, the
    constructions attain f and g, and only then may it say ok.
    """
    b = closed_forms(n)
    problems = []
    if doc.get("n") != n or doc.get("mode") != mode:
        problems.append(f"n/mode {doc.get('n')}/{doc.get('mode')}")
    if doc.get("bounds") != b:
        problems.append(f"bounds block {doc.get('bounds')} != closed forms {b}")
    spans = {"natural_range": (b["g"] + 1, b["f"]), "beyond_f": (b["f"] + 1, b["m"])}
    strata = {s.get("name"): s for s in doc.get("strata", [])}
    if set(strata) != set(spans):
        problems.append(f"strata {sorted(strata)}")
    total = 0
    for name, (lo, hi) in spans.items():
        s = strata.get(name, {})
        checked = s.get("formulas_checked", 0)
        total += checked
        most = s.get("max_models_seen")
        ceiling = 1 if name == "natural_range" else 0
        if s.get("clause_counts") != [lo, hi]:
            problems.append(f"{name}: clause_counts {s.get('clause_counts')} != {[lo, hi]}")
        if s.get("counterexamples"):
            problems.append(f"{name}: {len(s['counterexamples'])} counterexamples")
        if mode == "exhaustive":
            want = sum(comb(b["m"], k) for k in range(lo, hi + 1))
            if checked != want:
                problems.append(f"{name}: formulas_checked {checked} != {want}")
            if most != ceiling:
                problems.append(f"{name}: max_models_seen {most} != {ceiling}")
        elif most is None or most > ceiling:
            problems.append(f"{name}: max_models_seen {most} above {ceiling}")
    if mode == "sample" and total != sample_count:
        problems.append(f"sampled {total} formulas, asked for {sample_count}")
    if total <= 0:
        problems.append("checked no formulas")
    tight = {
        "max_sat_clause_count": b["f"],
        "max_sat_model_count": 1,
        "double_sat_clause_count": b["g"],
        "double_sat_model_count": 2,
    }
    if doc.get("tightness") != tight:
        problems.append(f"tightness {doc.get('tightness')} != {tight}")
    if doc.get("ok") is not True:
        problems.append(f"ok={doc.get('ok')}")
    if code != EX_OK:
        problems.append(f"exit code {code}")
    return problems
