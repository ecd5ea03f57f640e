"""Command-line front end.

Exit codes follow SAT-solver conventions so existing harnesses interoperate:
20 for proven unsatisfiable, 10 for proven satisfiable, 0 for unknown, 64
for usage errors, 65 for unreadable or malformed input, 70 for a failed
verification campaign.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bounds import bounds_for
from .detectors import screen_all
from .dimacs import DimacsError, parse_dimacs, write_dimacs
from .formula import PcnfFormula
from .generate import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    EnumerationCapError,
    VerifyMode,
    double_sat_construction,
    enumerate_clauses,
    max_sat_construction,
    verify_bounds,
)
from .normalize import EmptyClauseError, normalize
from .oracle import DEFAULT_MAX_VARS, TooManyVariablesError, solve
from .report import (
    bounds_text,
    bounds_to_dict,
    build_report,
    oracle_to_dict,
    report_text,
    report_to_dict,
    to_json,
    verification_text,
    verification_to_dict,
)

EX_OK = 0
EX_SAT = 10
EX_UNSAT = 20
EX_USAGE = 64
EX_DATAERR = 65
EX_VERIFYFAIL = 70

ORACLE_CAP_ENV = "PCNFRANGE_ORACLE_MAX_N"
DEFAULT_ANALYZE_ORACLE_CAP = 20


class UsageError(Exception):
    """An argument value the command cannot use; exits 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _read(path: str) -> str:
    """The text of ``path``, or of standard input when it is ``-``."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise DimacsError(f"cannot read {path}: {exc}") from exc


class _OracleCapFromEnv(str):
    """Default of ``analyze --oracle-max-n``: argparse applies ``int`` to a
    string default only when its subcommand runs without the option, so no
    other subcommand reads the environment."""

    def __int__(self) -> int:
        raw = os.environ.get(ORACLE_CAP_ENV)
        if raw is None:
            return DEFAULT_ANALYZE_ORACLE_CAP
        try:
            return int(raw)
        except ValueError:
            print(
                f"warning: ignoring non-integer {ORACLE_CAP_ENV}={raw!r}",
                file=sys.stderr,
            )
            return DEFAULT_ANALYZE_ORACLE_CAP


def _check_oracle_cap(cap: int) -> None:
    if cap > DEFAULT_MAX_VARS:
        raise UsageError(
            f"oracle cap {cap} exceeds the ceiling of {DEFAULT_MAX_VARS} variables"
        )


def _parse_variable(spec: str, n: int) -> int:
    """A variable given as a letter (a, b, ...) or a 1-based index."""
    if len(spec) == 1 and spec.isalpha():
        index = ord(spec.lower()) - ord("a")
    else:
        try:
            index = int(spec) - 1
        except ValueError:
            raise UsageError(f"variable {spec!r} is neither a letter nor an index") from None
    if not 0 <= index < n:
        raise UsageError(f"variable {spec!r} out of range for n={n}")
    return index


def _parse_witness(spec: str, n: int) -> int:
    if len(spec) != n or any(ch not in "01" for ch in spec):
        raise UsageError(f"witness must be {n} characters of 0/1, got {spec!r}")
    # Leftmost character is variable a.
    return sum(1 << i for i, ch in enumerate(spec) if ch == "1")


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_oracle_cap(args.oracle_max_n)
    raw = parse_dimacs(_read(args.file))
    if raw.num_vars == 0:
        raise ValueError("formula declares zero variables")
    try:
        formula, _stats = normalize(raw)
    except EmptyClauseError:
        doc = {
            "n": raw.num_vars,
            "num_clauses": len(raw.clauses),
            "oracle": {"run": False},
            "verdict": "unsatisfiable",
            "reasons": ["empty clause present"],
        }
        sys.stdout.write(to_json(doc))
        return EX_UNSAT

    effective_n = None
    if args.recount_vars:
        occurring = len(formula.occurring_variables())
        if occurring > 0:
            effective_n = occurring
    screen = screen_all(formula, n=effective_n, early_exit=args.early_exit)
    oracle_result = None
    if formula.num_vars <= args.oracle_max_n:
        oracle_result = solve(formula, max_n=args.oracle_max_n)
    report = build_report(screen, oracle_result)
    sys.stdout.write(to_json(report_to_dict(report)))
    if args.text:
        print(report_text(report))
    return report.exit_code


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError(f"bounds require n >= 1, got {args.n}")
    table = bounds_for(args.n)
    sys.stdout.write(to_json(bounds_to_dict(table)))
    if args.text:
        print(bounds_text(table))
    return EX_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    raw = parse_dimacs(_read(args.infile))
    formula, stats = normalize(raw)
    text = write_dimacs(formula)
    if args.outfile and args.outfile != "-":
        Path(args.outfile).write_text(text)
    else:
        sys.stdout.write(text)
    print(
        f"removed {stats.duplicate_literals_removed} duplicate literals, "
        f"{stats.tautological_clauses_dropped} tautological clauses, "
        f"{stats.duplicate_clauses_dropped} duplicate clauses",
        file=sys.stderr,
    )
    return EX_OK


def cmd_generate(args: argparse.Namespace) -> int:
    n = args.n
    least = 2 if args.construction == "double-sat" else 1
    if n < least:
        raise UsageError(
            f"construction {args.construction} requires n >= {least}, got {n}"
        )
    witness = _parse_witness(args.witness, n) if args.witness else None
    if args.construction == "all":
        formula = PcnfFormula(n, enumerate_clauses(n))
    elif args.construction == "max-sat":
        formula = max_sat_construction(n, witness)
    else:
        flip = _parse_variable(args.flip, n)
        formula = double_sat_construction(n, witness, flip_var=flip)
    sys.stdout.write(write_dimacs(formula))
    return EX_OK


def cmd_solve(args: argparse.Namespace) -> int:
    _check_oracle_cap(args.max_n)
    raw = parse_dimacs(_read(args.file))
    try:
        formula, _stats = normalize(raw)
    except EmptyClauseError:
        sys.stdout.write(
            to_json({"model_count": 0, "verdict": "unsat", "note": "empty clause"})
        )
        return EX_UNSAT
    result = solve(formula, max_n=args.max_n)
    sys.stdout.write(to_json(oracle_to_dict(result, formula.num_vars)))
    return EX_SAT if result.model_count else EX_UNSAT


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError(f"verify requires n >= 1, got {args.n}")
    if args.mode == "sample" and args.count < 0:
        raise UsageError(f"sample count must be >= 0, got {args.count}")
    report = verify_bounds(
        args.n,
        VerifyMode(args.mode),
        sample_count=args.count,
        seed=args.seed,
        include_beyond_f=args.stratum in ("both", "beyond-f"),
        include_natural_range=args.stratum in ("both", "natural-range"),
        budget=args.budget,
    )
    sys.stdout.write(to_json(verification_to_dict(report)))
    if args.text:
        print(verification_text(report))
    return EX_OK if report.ok else EX_VERIFYFAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcnfrange",
        description="PCNF normalization, clause-count bounds, and unsatisfiability screening",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="screen a DIMACS file and report a verdict")
    p.add_argument("file", help="DIMACS file, or - for standard input")
    p.add_argument(
        "--oracle-max-n",
        type=int,
        default=_OracleCapFromEnv(),
        help="run the exhaustive oracle only up to this many variables "
        f"(default {DEFAULT_ANALYZE_ORACLE_CAP}, or ${ORACLE_CAP_ENV}; "
        f"at most {DEFAULT_MAX_VARS})",
    )
    p.add_argument(
        "--recount-vars",
        action="store_true",
        help="classify against the count of occurring variables instead of the declared universe",
    )
    p.add_argument(
        "--early-exit",
        action="store_true",
        help="stop the clause-class scan at the first saturated class",
    )
    p.add_argument("--text", action="store_true", help="also print a readable summary")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="print the bounds table for n variables")
    p.add_argument("n", type=int)
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("normalize", help="normalize a DIMACS file to PCNF")
    p.add_argument("infile", help="DIMACS file, or - for standard input")
    p.add_argument(
        "outfile", nargs="?", help="output file; standard output if omitted or -"
    )
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("generate", help="emit a known construction as DIMACS")
    p.add_argument(
        "--construction",
        required=True,
        choices=["all", "max-sat", "double-sat"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--flip",
        default="a",
        help="variable to flip for double-sat (letter or 1-based index)",
    )
    p.add_argument(
        "--witness",
        help="witness assignment as a 0/1 string, leftmost character = a (default all 1s)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="exhaustively count models of a DIMACS file")
    p.add_argument("file", help="DIMACS file, or - for standard input")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_VARS)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check the clause-count bounds against the oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["exhaustive", "sample"])
    p.add_argument("--count", type=int, default=100_000, help="sample size (sample mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--stratum",
        choices=["both", "beyond-f", "natural-range"],
        default="both",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="refuse exhaustive campaigns larger than this many formulas",
    )
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except DimacsError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except EmptyClauseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except (
        TooManyVariablesError,
        EnumerationCapError,
        BudgetExceededError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
