"""The public API is `pcnfrange.__all__` and the command line's options;
changing either must be deliberate."""
import argparse
import inspect

import pcnfrange
from pcnfrange.cli import build_parser

PUBLIC_API = [
    "AnalysisReport",
    "AnalysisVerdict",
    "Assignment",
    "BoundsTable",
    "BudgetExceededError",
    "Clause",
    "ClauseClassTable",
    "Construction",
    "Counterexample",
    "DetectorVerdict",
    "DimacsError",
    "DimacsWarning",
    "EmptyClauseError",
    "EnumerationCapError",
    "LiteralOutOfRangeError",
    "MalformedHeaderError",
    "NormalizationStats",
    "OccurrenceCensus",
    "OracleResult",
    "OracleVerdict",
    "PcnfFormula",
    "RangeClass",
    "RawCnf",
    "Reason",
    "ScreenResult",
    "StratumReport",
    "TightnessReport",
    "TooManyVariablesError",
    "UnterminatedClauseError",
    "Verdict",
    "VerificationReport",
    "VerifyMode",
    "all_true",
    "analyze",
    "bounds_for",
    "build_report",
    "classify_count",
    "clause_class_screen",
    "clause_distribution",
    "clause_satisfied",
    "double_sat_construction",
    "enumerate_clauses",
    "max_sat_construction",
    "model_bitmap",
    "normalize",
    "occurrence_census",
    "occurrence_screen",
    "parse_dimacs",
    "raw_model_bitmap",
    "report_to_dict",
    "sample_pcnf",
    "screen_all",
    "solve",
    "to_json",
    "verify_bounds",
    "write_dimacs",
]

# Per subcommand, its option strings and positionals in declaration order.
CLI_SURFACE = {
    "analyze": [
        "-h", "--help", "file", "--oracle-max-n", "--recount-vars", "--early-exit", "--text",
    ],
    "bounds": ["-h", "--help", "n", "--text"],
    "normalize": ["-h", "--help", "infile", "outfile"],
    "generate": ["-h", "--help", "--construction", "--n", "--flip", "--witness"],
    "solve": ["-h", "--help", "file"],
    "verify": [
        "-h", "--help", "--n", "--mode", "--count", "--seed", "--stratum", "--budget", "--text",
    ],
}


def test_public_names_are_pinned():
    assert sorted(pcnfrange.__all__) == PUBLIC_API
    assert len(set(pcnfrange.__all__)) == len(pcnfrange.__all__)


def test_every_public_name_resolves():
    for name in PUBLIC_API:
        assert getattr(pcnfrange, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from pcnfrange import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API


def test_cli_surface_is_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [opt for a in p._actions for opt in a.option_strings or [a.dest]]
        for name, p in sub.choices.items()
    }
    assert surface == CLI_SURFACE


def test_analyze_signature_and_verdicts_are_pinned():
    assert str(inspect.signature(pcnfrange.analyze)) == (
        "(formula: 'PcnfFormula', *, oracle_max_n: 'int' = 20, recount_vars: 'bool' = False, "
        "early_exit: 'bool' = False) -> 'AnalysisReport'"
    )
    assert [(v.name, v.value, v.exit_code) for v in pcnfrange.AnalysisVerdict] == [
        ("UNSATISFIABLE", "unsatisfiable", 20),
        ("UNSATISFIABLE_ORACLE", "unsatisfiable (oracle)", 20),
        ("SATISFIABLE_TRIVIALLY", "satisfiable (trivially)", 10),
        ("SATISFIABLE_ORACLE", "satisfiable (oracle)", 10),
        ("UNKNOWN", "unknown", 0),
    ]
