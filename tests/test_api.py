"""The public API is `pcnfrange.__all__`; changing it must be deliberate."""
import pcnfrange

PUBLIC_API = [
    "AnalysisReport",
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
