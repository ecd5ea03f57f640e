import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pcnfrange import analyze, cli, normalize, parse_dimacs, report_to_dict, to_json
from pcnfrange.cli import build_parser, main

from tests.helpers import GOLDEN_CNF, collector_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_bytes(data):
    """A standard input whose ``buffer`` yields ``data``, as a pipe's does."""
    return io.TextIOWrapper(io.BytesIO(data))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_golden_fixture_oracle_proves_unsat(capsys):
    code, out, _ = run(capsys, "analyze", str(GOLDEN_CNF))
    doc = json.loads(out)
    assert code == 20
    assert doc["verdict"] == "unsatisfiable (oracle)"
    assert doc["detectors"]["corollary"] == "unknown"
    assert doc["detectors"]["clause_class"]["verdict"] == "unknown"
    assert doc["range_class"] == "natural_range"


def test_analyze_contradiction_via_clause_class(capsys, tmp_path):
    path = write(tmp_path, "contra.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "analyze", path)
    doc = json.loads(out)
    assert code == 20
    assert "clause_class key=a" in doc["reasons"]


def test_analyze_satisfiable_unit(capsys, tmp_path):
    path = write(tmp_path, "unit.cnf", "p cnf 1 1\n1 0\n")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 10
    assert json.loads(out)["verdict"] == "satisfiable (oracle)"


def test_analyze_unknown_when_oracle_capped(capsys):
    code, out, _ = run(capsys, "analyze", str(GOLDEN_CNF), "--oracle-max-n", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "unknown"
    assert doc["oracle"] == {"run": False}


def test_analyze_empty_clause_input(capsys, tmp_path):
    path = write(tmp_path, "empty.cnf", "p cnf 1 1\n0\n")
    code, out, _ = run(capsys, "analyze", path)
    doc = json.loads(out)
    assert code == 20
    assert doc["verdict"] == "unsatisfiable"
    assert doc["reasons"] == ["empty clause present"]


def test_analyze_recount_vars(capsys, tmp_path):
    # one clause over a universe padded to 3 declared variables
    path = write(tmp_path, "padded.cnf", "p cnf 3 1\n1 0\n")
    code, out, _ = run(capsys, "analyze", path)
    assert json.loads(out)["range_class"] == "below_range"
    code, out, _ = run(capsys, "analyze", path, "--recount-vars")
    doc = json.loads(out)
    assert doc["n"] == 1
    assert doc["range_class"] == "natural_range"


def test_recount_vars_keeps_declared_names(capsys, tmp_path):
    path = write(tmp_path, "wide.cnf", "p cnf 100 2\n51 100 0\n-51 0\n")
    code, out, _ = run(capsys, "analyze", path, "--recount-vars")
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["detectors"]["clause_class"]["C"] == {"51": 1, "51,100": 1}


def test_recount_vars_keeps_declared_names_in_reasons(capsys, tmp_path):
    # all four sign patterns on variables 30 and 40 saturate their class
    clauses = "".join(f"{a} {b} 0\n" for a in (30, -30) for b in (40, -40))
    path = write(tmp_path, "sat40.cnf", "p cnf 40 4\n" + clauses)
    code, out, _ = run(capsys, "analyze", path, "--recount-vars", "--text")
    assert code == 20
    end = out.index("\n}\n") + 3
    assert json.loads(out[:end])["reasons"] == ["clause_class key=30,40"]
    assert out[end:].endswith("  reason: clause_class key=30,40\n")


@pytest.mark.parametrize(
    "flags, classes, ceilings",
    [
        ([], {"1200": 1, "5,700": 4, "5,700,1200": 1}, {"1": 2, "2": 4, "3": 8}),
        (["--early-exit"], {"1200": 1, "5,700": 4}, {"1": 2, "2": 4}),
    ],
    ids=["full-scan", "early-exit"],
)
def test_analyze_padded_file_past_the_hash_width(capsys, tmp_path, flags, classes, ceilings):
    # 1200 declared variables, three used: the scan keys classes by their
    # variable indices.  In canonical order the unit on 1200 comes first,
    # then the saturated class {5, 700}, where --early-exit stops.
    clauses = [(5, 700, -1200), (1200,)] + [(a, b) for a in (5, -5) for b in (700, -700)]
    text = "p cnf 1200 6\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    code, out, _ = run(capsys, "analyze", write(tmp_path, "padded.cnf", text), *flags)
    doc = json.loads(out)
    assert code == 20
    assert doc["detectors"]["clause_class"]["C"] == classes
    assert doc["detectors"]["clause_class"]["U"] == ceilings
    assert doc["reasons"] == ["clause_class key=5,700"]


# Two of 30 declared variables occur, in 4 clauses: natural range for n' = 2.
PADDED_30 = "p cnf 30 4\n1 2 0\n1 -2 0\n-1 2 0\n1 0\n"


@pytest.mark.parametrize(
    "text, flags, kwargs",
    [
        (GOLDEN_CNF.read_text(), [], {}),
        (GOLDEN_CNF.read_text(), ["--early-exit"], {"early_exit": True}),
        (GOLDEN_CNF.read_text(), ["--oracle-max-n", "0"], {"oracle_max_n": 0}),
        (PADDED_30, ["--recount-vars"], {"recount_vars": True}),
    ],
    ids=["golden", "golden-early-exit", "golden-no-oracle", "padded-recount"],
)
def test_library_analyze_matches_the_cli(capsys, tmp_path, text, flags, kwargs):
    path = write(tmp_path, "in.cnf", text)
    code, out, _ = run(capsys, "analyze", path, *flags)
    formula, _stats = normalize(parse_dimacs(Path(path).read_bytes()))
    report = analyze(formula, **kwargs)
    assert to_json(report_to_dict(report)) == out
    assert report.exit_code == code


def test_analyze_accepts_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.cnf"
    path.write_bytes(b"\xef\xbb\xbfp cnf 3 1\n1 0\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 10
    assert json.loads(out)["oracle"] == {"model_count": 4, "run": True}


def test_analyze_early_exit_flag(capsys, tmp_path):
    path = write(tmp_path, "contra.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "analyze", path, "--early-exit")
    assert code == 20


def test_analyze_text_flag(capsys):
    code, out, _ = run(capsys, "analyze", str(GOLDEN_CNF), "--text")
    end = out.index("\n}\n") + 3  # top-level close of the JSON document
    doc = json.loads(out[:end])
    assert doc["range_class"] == "natural_range"
    assert "verdict        unsatisfiable (oracle)" in out[end:]


def test_analyze_rejects_zero_variable_universe(capsys, tmp_path):
    path = write(tmp_path, "zero.cnf", "p cnf 0 0\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 65
    assert "zero variables" in err


def test_analyze_parse_error_reports_line(capsys, tmp_path):
    path = write(tmp_path, "bad.cnf", "p cnf 1 1\n9 0\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 65
    assert "line 2" in err


@pytest.mark.parametrize(
    "token", ["1_0", "\u0661", "+1", "3\u00a0-3", "1\x1f2", "1\x1c2", "1\u20282"]
)
def test_non_dimacs_integers_exit_65_with_one_line(capsys, tmp_path, token):
    for line, text in ((2, f"p cnf 10 1\n{token} 0\n"), (1, f"p cnf {token} 1\n1 0\n")):
        path = tmp_path / "bad.cnf"
        path.write_bytes(text.encode())
        for command in ("analyze", "solve", "normalize"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (65, "")
            assert err.count("\n") == 1 and f"line {line}: " in err


@pytest.mark.parametrize("command", ["analyze", "solve", "normalize"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_undecodable_byte_is_a_line_numbered_parse_error(
    capsys, monkeypatch, tmp_path, command, source
):
    data = b"c comment\r\np cnf 2 1\r1 \xff 0\n"
    if source == "file":
        path = tmp_path / "bad.cnf"
        path.write_bytes(data)
        arg = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", stdin_bytes(data))
        arg = "-"
    code, out, err = run(capsys, command, arg)
    assert (code, out, err) == (65, "", "parse error: line 3: undecodable byte 0xff\n")


def test_zero_variable_header_is_refused_by_every_formula_command(capsys, monkeypatch, tmp_path):
    path = write(tmp_path, "zero.cnf", "p cnf 0 0\n")
    for command in ("analyze", "solve", "normalize"):
        for arg in (path, "-"):
            monkeypatch.setattr(sys, "stdin", stdin_bytes(b"p cnf 0 0\n"))
            code, out, err = run(capsys, command, arg)
            assert (code, out, err) == (65, "", "error: formula declares zero variables\n")


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent.cnf")
    assert code == 65
    assert "cannot read" in err


def test_dash_reads_stdin(capsys, monkeypatch, tmp_path):
    text = "p cnf 2 2\n1 2 0\n-1 0\n"
    path = write(tmp_path, "in.cnf", text)
    for command, code in (("analyze", 10), ("solve", 10), ("normalize", 0)):
        expected = run(capsys, command, path)
        assert expected[0] == code
        monkeypatch.setattr(sys, "stdin", stdin_bytes(text.encode()))
        assert run(capsys, command, "-") == expected


def test_usage_error_exits_64(capsys):
    assert run(capsys, "analyze")[0] == 64
    assert run(capsys, "bogus-command")[0] == 64
    assert run(capsys, "verify", "--n", "2")[0] == 64  # --mode required


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--n", "0", "--mode", "sample"), "n >= 1"),
        (("generate", "--construction", "all", "--n", "0"), "n >= 1"),
        (("generate", "--construction", "double-sat", "--n", "1"), "n >= 2"),
        (("verify", "--n", "3", "--mode", "sample", "--count", "-5"), "count must be >= 0"),
        (("verify", "--n", "13", "--mode", "sample"), "enumeration cap of n=12"),
        (("generate", "--construction", "all", "--n", "13"), "enumeration cap of n=12"),
        (("generate", "--construction", "double-sat", "--n", "13"), "enumeration cap of n=12"),
        (("verify", "--n", "3", "--mode", "exhaustive", "--budget", "-5"), "budget must be >= 0"),
        (("verify", "--n", "3", "--mode", "sample", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("verify", "--n", "3", "--mode", "exhaustive", "--seed", "-1"), "seed must be >= 0"),
        (("analyze", str(GOLDEN_CNF), "--oracle-max-n", "-1"), "oracle cap must be >= 0, got -1"),
    ],
)
def test_bad_argument_values_exit_64(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert message in err


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "3")
    doc = json.loads(out)
    assert code == 0
    assert {k: doc[k] for k in ("m", "f", "g", "v", "p", "q")} == {
        "m": 26, "f": 19, "g": 15, "v": 14, "p": 9, "q": 5,
    }


def test_bounds_rejects_zero(capsys):
    code, _, err = run(capsys, "bounds", "0")
    assert code == 64
    assert "n >= 1" in err


def test_normalize_roundtrip(capsys, tmp_path):
    path = write(tmp_path, "messy.cnf", "p cnf 2 3\n1 1 -2 0\n1 -1 0\n-2 1 0\n")
    out_path = tmp_path / "clean.cnf"
    code, _, err = run(capsys, "normalize", path, str(out_path))
    assert code == 0
    assert out_path.read_text() == "p cnf 2 1\n1 -2 0\n"
    assert "1 duplicate literals" in err
    assert "1 tautological clauses" in err
    assert "1 duplicate clauses" in err


def test_normalize_to_stdout(capsys, tmp_path):
    path = write(tmp_path, "in.cnf", "p cnf 1 1\n1 0\n")
    code, out, _ = run(capsys, "normalize", path)
    assert code == 0
    assert out == "p cnf 1 1\n1 0\n"


def test_normalize_dash_outfile_is_stdout(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "in.cnf", "p cnf 2 2\n1 1 0\n-2 0\n")
    code, out, err = run(capsys, "normalize", "in.cnf", "-")
    assert code == 0
    assert out == "p cnf 2 2\n-2 0\n1 0\n"
    assert "1 duplicate literals" in err and "p cnf" not in err
    assert not (tmp_path / "-").exists()


def test_normalize_empty_clause_is_data_error(capsys, tmp_path):
    path = write(tmp_path, "empty.cnf", "p cnf 1 1\n0\n")
    code, _, err = run(capsys, "normalize", path)
    assert code == 65
    assert "empty clause" in err


def test_generate_double_sat(capsys):
    code, out, _ = run(
        capsys, "generate", "--construction", "double-sat", "--n", "2", "--flip", "a"
    )
    assert code == 0
    assert out == "p cnf 2 3\n2 0\n-1 2 0\n1 2 0\n"


def test_generate_all_and_max_sat(capsys):
    code, out, _ = run(capsys, "generate", "--construction", "all", "--n", "2")
    assert out.startswith("p cnf 2 8\n")
    code, out, _ = run(capsys, "generate", "--construction", "max-sat", "--n", "2")
    assert out.startswith("p cnf 2 5\n")


def test_generate_with_witness_and_numeric_flip(capsys):
    code, out, _ = run(
        capsys, "generate", "--construction", "double-sat", "--n", "2",
        "--witness", "01", "--flip", "2",
    )
    assert code == 0
    # witness a=0, b=1, flip b: models {01, 00} keep clauses satisfied by both
    assert "p cnf 2 3\n" in out


def test_generate_rejects_unknown_flip_variable(capsys):
    code, _, err = run(
        capsys, "generate", "--construction", "double-sat", "--n", "2", "--flip", "z"
    )
    assert code == 64
    assert "out of range" in err


def test_generate_rejects_bad_witness(capsys):
    code, _, err = run(
        capsys, "generate", "--construction", "max-sat", "--n", "2",
        "--witness", "2x",
    )
    assert code == 64
    assert "witness must be 2 characters" in err


@pytest.mark.parametrize("command", ["analyze", "solve", "normalize"])
def test_clause_count_warning_is_one_line_on_every_call(capsys, tmp_path, command):
    w1 = write(tmp_path, "w1.cnf", "p cnf 3 5\n1 0\n")
    w2 = write(tmp_path, "w2.cnf", "p cnf 3 4\n2 0\n")
    warned = []
    for path in (w1, w2, w1):
        _, _, err = run(capsys, command, path)
        warned += [line for line in err.splitlines() if not line.startswith("removed ")]
    assert warned == [
        "warning: header declares 5 clauses but 1 found",
        "warning: header declares 4 clauses but 1 found",
        "warning: header declares 5 clauses but 1 found",
    ]


def test_clause_count_warning_in_a_fresh_interpreter(tmp_path):
    path = write(tmp_path, "w1.cnf", "p cnf 3 5\n1 0\n")
    proc = run_module("solve", path, capture_output=True)
    assert proc.returncode == 10
    assert proc.stderr.splitlines() == ["warning: header declares 5 clauses but 1 found"]


def test_solve_exit_codes(capsys, tmp_path):
    sat = write(tmp_path, "sat.cnf", "p cnf 1 1\n1 0\n")
    code, out, _ = run(capsys, "solve", sat)
    doc = json.loads(out)
    assert code == 10
    assert doc["model_count"] == 1
    assert doc["models"] == [{"a": True}]
    unsat = write(tmp_path, "unsat.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    assert run(capsys, "solve", unsat)[0] == 20


def test_solve_empty_clause(capsys, tmp_path):
    path = write(tmp_path, "empty.cnf", "p cnf 1 1\n0\n")
    code, out, _ = run(capsys, "solve", path)
    assert code == 20
    assert json.loads(out)["model_count"] == 0


def test_solve_respects_cap(capsys, tmp_path):
    path = write(tmp_path, "wide.cnf", "p cnf 25 1\n1 0\n")
    code, out, err = run(capsys, "solve", path)
    assert (code, out) == (65, "")
    assert "cap of 24" in err


def test_verify_exhaustive_n2(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--mode", "exhaustive")
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert sum(s["formulas_checked"] for s in doc["strata"]) == 163


def test_verify_sample_stratum(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--mode", "sample",
        "--count", "200", "--seed", "5", "--stratum", "natural-range",
    )
    doc = json.loads(out)
    assert code == 0
    assert [s["name"] for s in doc["strata"]] == ["natural_range"]
    assert doc["strata"][0]["formulas_checked"] == 200


def test_verify_with_no_formulas_checked_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--mode", "sample", "--count", "0"
    )
    doc = json.loads(out)
    assert code == 70
    assert doc["ok"] is False
    assert [s["formulas_checked"] for s in doc["strata"]] == [0, 0]


def test_verify_budget_exceeded(capsys):
    code, _, err = run(
        capsys, "verify", "--n", "3", "--mode", "exhaustive", "--budget", "1000"
    )
    assert code == 65
    assert "budget" in err


def test_verify_budget_refusal_past_the_digit_limit(capsys):
    # The exact formula total at n=11 has more than 4,300 digits.
    code, out, err = run(capsys, "verify", "--n", "11", "--mode", "exhaustive")
    assert code == 65
    assert out == ""
    assert "budget" in err
    assert "digits" not in err


def test_oracle_cap_env_var(capsys, monkeypatch):
    # No environment variable sets the oracle cap; only --oracle-max-n does.
    monkeypatch.setenv("PCNFRANGE_ORACLE_MAX_N", "0")
    assert build_parser().parse_args(["analyze", "-"]).oracle_max_n == 20
    code, out, err = run(capsys, "analyze", str(GOLDEN_CNF))
    assert (code, err) == (20, "")
    assert json.loads(out)["oracle"] == {"model_count": 0, "run": True}


def test_oracle_cap_above_ceiling_is_usage_error(capsys, tmp_path):
    path = write(tmp_path, "unit.cnf", "p cnf 3 1\n1 0\n")
    for cap in ("25", "100000"):
        code, out, err = run(capsys, "analyze", path, "--oracle-max-n", cap)
        assert (code, out) == (64, "")
        assert "ceiling of 24" in err


def test_analyze_satlib_trailer(capsys, tmp_path):
    # uf20-91 style: the clauses end at "%", the "0" after it is ignored
    path = write(
        tmp_path, "uf.cnf", "c uf-style\np cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n%\n0\n"
    )
    code, out, _ = run(capsys, "analyze", path)
    doc = json.loads(out)
    assert code == 10
    assert doc["num_clauses"] == 3
    assert doc["verdict"] == "satisfiable (oracle)"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path, enabled):
    bad = write(tmp_path, "bad.cnf", "p cnf 2 1\n1 x 0\n")
    cases = [
        (("analyze", str(GOLDEN_CNF)), 20),
        (("analyze", bad), 65),
        (("analyze", str(GOLDEN_CNF), "--oracle-max-n", "-1"), 64),
        (("--help",), 0),
    ]
    with collector_set(enabled):
        for argv, code in cases:
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled


def test_analyze_starts_no_collector_pass(capsys, tmp_path):
    # Seeded random 3-CNF, n=100 and 5,000 clauses: enough allocations for
    # about a dozen passes if the collector ran during the command.
    rng = random.Random(5_000)
    lines = ["p cnf 100 5000"]
    for _ in range(5_000):
        variables = rng.sample(range(1, 101), 3)
        lines.append(" ".join(str(v if rng.getrandbits(1) else -v) for v in variables) + " 0")
    path = write(tmp_path, "random.cnf", "\n".join(lines) + "\n")
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    cli._parser()  # built, and its allocations made, before the count
    with collector_set(True):
        gc.collect()
        gc.callbacks.append(record)
        try:
            code = main(["analyze", path])
        finally:
            gc.callbacks.remove(record)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "unknown"
    assert starts == []


def run_module(*argv, unbuffered=False, **kwargs):
    """``python -m pcnfrange ARGV`` in a fresh interpreter on this checkout,
    by default with a block-buffered stdout, whose exit-time flush can fail;
    ``unbuffered`` sets ``PYTHONUNBUFFERED``, so each write can fail."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pcnfrange", *argv],
        text=True, env=env, timeout=60, **kwargs,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write(tmp_path, "contra.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    proc = run_module("analyze", path, capture_output=True)
    assert proc.returncode == 20
    assert "clause_class key=a" in json.loads(proc.stdout)["reasons"]


# The child prints its own peak RSS: ru_maxrss would report the pytest
# process's, which the child inherits across fork and exec.
ANALYZE_PEAK = """
import os, sys
from pcnfrange import cli
sys.stdout = open(os.devnull, "w")
code = cli.main(["analyze", sys.argv[1]])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak, file=sys.__stdout__)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_analyze_frees_the_raw_clauses_before_screening(tmp_path):
    # Seeded random 3-CNF, n=1000 and 50k clauses.  Holding the parsed
    # clauses through screen and report peaks at about 60.5 MB, dropping
    # them after normalize at about 53 MB.
    rng = random.Random(50_000)
    lines = ["p cnf 1000 50000"]
    for _ in range(50_000):
        variables = rng.sample(range(1, 1001), 3)
        lines.append(" ".join(str(v if rng.getrandbits(1) else -v) for v in variables) + " 0")
    path = write(tmp_path, "random.cnf", "\n".join(lines) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    proc = subprocess.run(
        [sys.executable, "-c", ANALYZE_PEAK, path],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 57 * 1024


def assert_write_error(proc, errnum, suffix=""):
    """Exit 74 with one stderr line: no traceback, no "Exception ignored"."""
    reason = f"[Errno {errnum}] {os.strerror(errnum)}{suffix}"
    assert proc.returncode == 74
    assert proc.stderr.splitlines() == [f"error: cannot write output: {reason}"]


@pytest.mark.parametrize(
    "target, errnum",
    [("missing/out.cnf", errno.ENOENT), (".", errno.EISDIR)],
    ids=["missing-directory", "directory"],
)
def test_normalize_unwritable_outfile(tmp_path, target, errnum):
    path = write(tmp_path, "unit.cnf", "p cnf 2 1\n1 0\n")
    outfile = str(tmp_path / target)
    proc = run_module("normalize", path, outfile, capture_output=True)
    assert_write_error(proc, errnum, f": {outfile!r}")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_stdout(tmp_path):
    path = write(tmp_path, "unit.cnf", "p cnf 2 1\n1 0\n")
    with open("/dev/full", "w") as full:
        proc = run_module("solve", path, stdout=full, stderr=subprocess.PIPE)
    assert_write_error(proc, errno.ENOSPC)


@pytest.mark.parametrize(
    "argv",
    [["bounds", "2000", "--text"], ["bounds", "5", "--text"], ["--help"]],
    ids=["beyond-one-buffer", "within-one-buffer", "help"],
)
def test_closed_stdout_pipe(argv):
    # The reader is gone before the first write, as when `| head` has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(*argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert_write_error(proc, errno.EPIPE)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["--help"], ["analyze", "--help"]], ids=["help", "analyze-help"]
)
def test_help_into_closed_pipe_in_both_buffering_modes(argv, unbuffered):
    # Unbuffered, the help text's own write fails inside argparse, which
    # swallowed the OSError and exited 0 with nothing on stderr.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(
            *argv, unbuffered=unbuffered, stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert_write_error(proc, errno.EPIPE)


@pytest.fixture
def fresh_parser():
    """``main``'s cached parser dropped before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["analyze"], 64, 2, "error: the following arguments are required: file"),
        (["--help"], 0, 1, "usage: pcnfrange"),
    ],
)
def test_shared_parser_after_early_exit(capsys, fresh_parser, argv, code, stream, text):
    first = run(capsys, "bounds", "3")
    cli._parser.cache_clear()
    exited = run(capsys, *argv)
    assert exited[0] == code and text in exited[stream]
    assert run(capsys, "bounds", "3") == first


def test_parser_built_once_per_process(capsys, monkeypatch, fresh_parser):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(10):
        assert run(capsys, "bounds", "2")[0] == 0
        assert run(capsys, "analyze", str(GOLDEN_CNF))[0] == 20
    assert len(built) == 1
