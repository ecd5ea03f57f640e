import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcnfrange.cli import build_parser, main

from tests.helpers import GOLDEN_CNF


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
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
    path = write(tmp_path, "sat.cnf", "p cnf 1 1\n1 0\n")
    code, _, err = run(capsys, "solve", path, "--max-n", "0")
    assert code == 65


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


def test_oracle_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PCNFRANGE_ORACLE_MAX_N", "0")
    code, out, _ = run(capsys, "analyze", str(GOLDEN_CNF))
    assert code == 0
    assert json.loads(out)["oracle"] == {"run": False}


def test_oracle_cap_above_ceiling_is_usage_error(capsys, monkeypatch, tmp_path):
    path = write(tmp_path, "unit.cnf", "p cnf 3 1\n1 0\n")
    code, _, err = run(capsys, "analyze", path, "--oracle-max-n", "100000")
    assert code == 64
    assert "ceiling of 24" in err
    code, _, err = run(capsys, "solve", path, "--max-n", "25")
    assert code == 64
    assert "ceiling of 24" in err
    monkeypatch.setenv("PCNFRANGE_ORACLE_MAX_N", "25")
    code, _, err = run(capsys, "analyze", path)
    assert code == 64
    assert "ceiling of 24" in err


def test_oracle_cap_env_var_non_integer_warns(capsys, monkeypatch):
    monkeypatch.setenv("PCNFRANGE_ORACLE_MAX_N", "lots")
    code, out, err = run(capsys, "analyze", str(GOLDEN_CNF))
    assert code == 20
    assert "ignoring non-integer" in err
    assert json.loads(out)["oracle"]["run"] is True


def test_oracle_cap_env_var_read_by_analyze_only(capsys, monkeypatch):
    monkeypatch.setenv("PCNFRANGE_ORACLE_MAX_N", "x")
    code, out, err = run(capsys, "bounds", "2")
    assert code == 0
    assert err == ""
    assert build_parser().parse_args(["analyze", str(GOLDEN_CNF)]).oracle_max_n == 20
    assert "ignoring non-integer PCNFRANGE_ORACLE_MAX_N='x'" in capsys.readouterr().err


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


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write(tmp_path, "contra.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    proc = subprocess.run(
        [sys.executable, "-m", "pcnfrange", "analyze", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 20
    assert "clause_class key=a" in json.loads(proc.stdout)["reasons"]
