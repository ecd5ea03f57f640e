"""Command-line front end.

Exit codes follow SAT-solver conventions so existing harnesses interoperate:
20 for proven unsatisfiable, 10 for proven satisfiable, 0 for unknown, 64
for usage errors, 65 for unreadable, malformed or out-of-memory input, 70
for a failed verification campaign, 74 for output that cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from .bounds import bounds_for
from .dimacs import DimacsError, parse_dimacs, write_dimacs
from .formula import PcnfFormula, RawCnf, collector_paused
from .generate import (
    DEFAULT_BUDGET,
    DEFAULT_ENUMERATION_CAP,
    VerifyMode,
    double_sat_construction,
    enumerate_clauses,
    max_sat_construction,
    verify_bounds,
)
from .normalize import EmptyClauseError, normalize
from .oracle import DEFAULT_MAX_VARS, solve
from .report import (
    DEFAULT_ANALYZE_ORACLE_CAP,
    analyze,
    bounds_text,
    check_oracle_cap,
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
EX_IOERR = 74


class UsageError(Exception):
    """An argument value the command cannot use; exits 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)

    def _print_message(self, message, file=None):
        # argparse swallows an OSError from this write; on stdout (--help)
        # it must reach main, which exits 74 as for any unwritable output.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _read_cnf(path: str) -> RawCnf:
    """The formula in ``path`` (``-``: standard input), refused over zero
    variables: the bounds, the clause universe and ``verify`` need n >= 1.

    Each parser warning is one ``warning: ...`` line on stderr, on every
    call, not the ``warnings`` module's source-quoting, once-per-message
    display."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise DimacsError(f"cannot read {path}: {exc}") from exc
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        raw = parse_dimacs(data)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if raw.num_vars == 0:
        raise ValueError("formula declares zero variables")
    return raw


def _check_n(what: str, n: int) -> None:
    if n < 1:
        raise UsageError(f"{what} requires n >= 1, got {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise UsageError(
            f"n={n} is beyond the enumeration cap of n={DEFAULT_ENUMERATION_CAP}"
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
    try:
        check_oracle_cap(args.oracle_max_n)
    except ValueError as exc:  # a usage error here, not malformed input
        raise UsageError(exc) from None
    raw = _read_cnf(args.file)
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
    del raw  # the raw clauses are not needed past normalize
    report = analyze(
        formula,
        oracle_max_n=args.oracle_max_n,
        recount_vars=args.recount_vars,
        early_exit=args.early_exit,
    )
    sys.stdout.write(to_json(report_to_dict(report)))
    if args.text:
        print(report_text(report))
    return report.exit_code


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError(f"bounds require n >= 1, got {args.n}")
    table = bounds_for(args.n)
    sys.stdout.write(to_json(asdict(table)))
    if args.text:
        print(bounds_text(table))
    return EX_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    raw = _read_cnf(args.infile)
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
    _check_n(f"construction {args.construction}", n)
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
    raw = _read_cnf(args.file)
    try:
        formula, _stats = normalize(raw)
    except EmptyClauseError:
        sys.stdout.write(
            to_json({"model_count": 0, "verdict": "unsat", "note": "empty clause"})
        )
        return EX_UNSAT
    result = solve(formula)
    sys.stdout.write(to_json(oracle_to_dict(result, formula.num_vars)))
    return EX_SAT if result.model_count else EX_UNSAT


def cmd_verify(args: argparse.Namespace) -> int:
    _check_n("verify", args.n)
    if args.mode == "sample" and args.count < 0:
        raise UsageError(f"sample count must be >= 0, got {args.count}")
    if args.budget < 0:
        raise UsageError(f"budget must be >= 0, got {args.budget}")
    if args.seed < 0:
        raise UsageError(f"seed must be >= 0, got {args.seed}")
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
        default=DEFAULT_ANALYZE_ORACLE_CAP,
        help="run the exhaustive oracle only up to this many variables "
        f"(default {DEFAULT_ANALYZE_ORACLE_CAP}, at most {DEFAULT_MAX_VARS})",
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: ``parse_args`` leaves
    it unchanged."""
    return build_parser()


def _drop_unwritable_stdout() -> None:
    """Point a stdout that cannot take its buffered bytes at the null device,
    so the exit-time flush neither fails (exit 120) nor prints a warning."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            # The commands build no cycles for a collector pass to free.
            with collector_paused():
                code = args.func(args)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code if isinstance(exc.code, int) else EX_USAGE
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except DimacsError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:  # input read errors are DimacsErrors by now
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        _drop_unwritable_stdout()
        return EX_IOERR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
