"""One benchmark process: runs a task against the program and writes a JSON
result.

Usage: ``python3 perfbench/worker.py TASK.json``.  The task names its kind
(``setup``, ``cli``, ``batch``, ``screen`` or ``verify``), the inputs and the
result path.  The program is imported from ``$PYTHONPATH``;
the task's ``src`` says where it must come from.  Campaign outputs are
checked here, after the timed calls, because shipping every sampled
formula to the parent would cost more than checking it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
from refclock import Sampler  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def require_checkout_program(src: str) -> None:
    import pcnfrange

    where = Path(pcnfrange.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"pcnfrange imported from {where}, not from {src}")


def cli(argv: list[str]) -> tuple[int, str]:
    from pcnfrange.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def analyze_layers(path: str) -> tuple[int, str]:
    """``analyze PATH`` through the public layers, in the order the CLI
    calls them, with the CLI parser's defaults.  The functions are looked
    up at call time, so a traced run gets the wrapped ones."""
    from pcnfrange import build_report, normalize, parse_dimacs, report_to_dict, screen_all, solve, to_json
    from pcnfrange.cli import build_parser

    args = build_parser().parse_args(["analyze", path])
    raw = parse_dimacs(Path(path).read_text())
    formula, _stats = normalize(raw)
    screen = screen_all(formula)
    oracle = None
    if formula.num_vars <= args.oracle_max_n:
        oracle = solve(formula, max_n=args.oracle_max_n)
    report = build_report(screen, oracle)
    return report.exit_code, to_json(report_to_dict(report))


SWEEP_CNF = "p cnf 4 7\n1 -2 0\n1 -2 0\n2 3 -2 0\n-1 -1 4 0\n-3 4 0\n3 4 0\n-4 0\n"


def sweep(work: Path) -> list[str]:
    """Call every traced function once on tiny fixed inputs, and check the
    results.  Run first in each traced process, so that every layer shows
    up in every traced run and a public function that the program stopped
    calling through its module is noticed."""
    from pcnfrange import VerifyMode, model_bitmap, sample_pcnf, verify_bounds
    from pcnfrange.report import to_json, verification_to_dict

    path = work / "sweep.cnf"
    path.write_text(SWEEP_CNF)
    code, out = analyze_layers(str(path))
    raw = [tuple(map(int, line.split()[:-1])) for line in SWEEP_CNF.splitlines()[1:]]
    expected, expected_code, problems = check.expected_analysis(4, raw)
    problems += check.check_analysis(json.loads(out), code, expected, expected_code)
    formula = sample_pcnf(3, 20, seed=7)
    model_bitmap(3, formula.clauses)
    report = verify_bounds(2, VerifyMode.EXHAUSTIVE)
    problems += check.check_verification(
        json.loads(to_json(verification_to_dict(report))), 0 if report.ok else 70, 2, "exhaustive"
    )
    return problems


# --------------------------------------------------------------------------
# tasks


def task_setup(task: dict) -> dict:
    def set_up():
        import pcnfrange
        from pcnfrange.cli import build_parser

        build_parser()
        for n in task["universes"]:
            pcnfrange.enumerate_clauses(n)

    op: dict = {}
    with Sampler() as sampler:
        sampler.timed(op, set_up)
    require_checkout_program(task["src"])
    return {"setup_s": op["s"]}


def task_cli(task: dict) -> dict:
    """One CLI run as the only work of a fresh process; the timed call
    includes importing the package, as a user's run does."""
    op: dict = {}
    with Sampler() as sampler:
        op["code"], out = sampler.timed(op, cli, task["argv"])
    require_checkout_program(task["src"])
    Path(task["stdout"]).write_text(out)
    return totals([op])


def run_ops(items, call, sampler: Sampler) -> dict:
    """Time ``call(item)`` for each item; an exception is a failed operation."""
    ops = []
    with sampler:
        for item in items:
            op: dict = {}
            try:
                op["code"], op["out"] = sampler.timed(op, call, item)
            except Exception as exc:
                op["error"] = repr(exc)
            ops.append(op)
    return totals(ops)


def totals(ops: list[dict]) -> dict:
    return {
        "ops": ops,
        "busy_s": sum(op["s"] for op in ops),
        "raw_busy_s": sum(op["raw_s"] for op in ops),
        "peak_rss_mb": peak_rss_mb(),
    }


def task_batch(task: dict, tracer: Tracer | None) -> dict:
    call = analyze_layers if tracer else (lambda path: cli(["analyze", path]))
    return run_ops(task["files"], call, Sampler(enabled=tracer is None))


def task_verify(task: dict, tracer: Tracer | None) -> dict:
    return run_ops(task["calls"], cli, Sampler(enabled=tracer is None))


def screen_one(n: int, size: int, seed: int):
    from pcnfrange import model_bitmap, sample_pcnf, screen_all

    formula = sample_pcnf(n, size, seed)
    result = screen_all(formula)
    bitmap = model_bitmap(n, formula.clauses) if result.verdict.value == "unsatisfiable" else None
    return formula, result, bitmap


def task_screen(task: dict, tracer: Tracer | None) -> dict:
    from pcnfrange import enumerate_clauses

    ops = []
    problems: list[str] = []
    digest = hashlib.sha256()
    built = None
    with Sampler(enabled=tracer is None) as sampler:
        for n, size, seed in gen.screen_cases(task["seed"]):
            if n != built:
                enumerate_clauses(n)  # first use builds the universe: set-up, untimed
                built = n
            op: dict = {"clauses": size}
            ops.append(op)
            try:
                formula, result, bitmap = sampler.timed(op, screen_one, n, size, seed)
            except Exception as exc:
                op["error"] = repr(exc)
                continue
            reasons = [
                (r.rule, r.variable, r.negated, r.class_key, r.count, r.threshold, r.complement_count)
                for r in result.reasons
            ]
            op["rules"] = sorted({r[0] for r in reasons})
            digest.update(repr((n, size, seed, reasons)).encode())
            if task["check"]:
                pairs = [(c.pos_mask, c.neg_mask) for c in formula.clauses]
                models = None if bitmap is None else bitmap.bit_count()
                found = check.check_screen(n, size, pairs, reasons, models)
                problems += [f"n={n} size={size} seed={seed}: {p}" for p in found]
    return {**totals(ops), "digest": digest.hexdigest(), "problems": problems}


TASKS = {"batch": task_batch, "screen": task_screen, "verify": task_verify}


def main() -> None:
    task = json.loads(Path(sys.argv[1]).read_text())
    if task["kind"] == "setup":
        result = task_setup(task)
    elif task["kind"] == "cli":
        result = task_cli(task)
    else:
        import pcnfrange  # noqa: F401  (every module is loaded before tracing)

        require_checkout_program(task["src"])
        tracer = Tracer() if task["trace"] else None
        if tracer:
            tracer.install()
            sweep_problems = sweep(Path(task["out"]).parent)
        result = TASKS[task["kind"]](task, tracer)
        if tracer:
            tracer.uninstall()
            result["problems"] = result.get("problems", []) + sweep_problems
            result["layers_missing"] = sorted(set(LAYERS) - tracer.layers_seen())
            result["layer_s"] = tracer.layer_seconds()
            result["tally"] = dict(tracer.tally)
            Path(task["spans"]).write_text(json.dumps(tracer.dump()))
    Path(task["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
