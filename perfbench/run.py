"""Benchmark for pcnfrange: four workloads, end-to-end metrics, and a traced
run with per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is analyze-large, analyze-batch, screen-campaign, verify-n3 or all.
Run from anywhere; the program is taken from ``src/`` of the checkout this
file sits in.  Inputs come from the seed alone.  Every output is checked
against the independent checkers in ``check.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  See README.md for what each workload and metric is.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import selftest  # noqa: E402
from tracing import LAYERS  # noqa: E402

WORKLOADS = ("analyze-large", "analyze-batch", "screen-campaign", "verify-n3")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
# Rounds per run, each in a fresh process; see `end_to_end`.
LARGE_ROUNDS, BATCH_ROUNDS, SCREEN_ROUNDS, VERIFY_ROUNDS = 1, 2, 2, 2
VERIFY_BUDGET = 11_000_000
VERIFY_SAMPLES = 100_000

END_TO_END = {
    "setup_s": "s",
    "clauses_per_s": "clauses/s",
    "formulas_per_s": "formulas/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dimacs.parse_s": "s",
    "dimacs.literals": "count",
    "normalize.normalize_s": "s",
    "normalize.literals_scanned": "count",
    "normalize.kept_ratio": "ratio",
    "bounds.bounds_for_s": "s",
    "bounds.calls": "count",
    "detectors.screen_s": "s",
    "detectors.census_s": "s",
    "detectors.class_scan_s": "s",
    "detectors.clauses_scanned": "count",
    "detectors.hit_ratio": "ratio",
    "oracle.solve_s": "s",
    "oracle.solve_calls": "count",
    "oracle.assignments": "count",
    "oracle.bitmap_s": "s",
    "oracle.bitmap_calls": "count",
    "generate.universe_s": "s",
    "generate.sample_s": "s",
    "generate.formulas_sampled": "count",
    "generate.verify_s": "s",
    "generate.formulas_checked": "count",
    "report.build_s": "s",
    "report.json_s": "s",
    "report.json_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a fault in an output)."""


class Run:
    """State of one benchmark invocation: work directory, child processes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PCNFRANGE_ORACLE_MAX_N", None)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tasks = 0
        self.spans: list[list[dict]] = []  # one list per traced process

    def close(self) -> Path | None:
        """Remove the inputs; keep the spans of a traced run and return
        where they were written."""
        shutil.rmtree(self.work, ignore_errors=True)
        if not self.spans:
            return None
        path = HERE / ".work" / "traces" / f"{self.workload}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "seed": self.seed, "processes": self.spans}))
        return path

    # -- child processes ---------------------------------------------------

    def worker(self, kind: str, **task) -> dict:
        """Run one worker process to completion and return its result."""
        self.tasks += 1
        stem = self.work / f"task{self.tasks}"
        task.update(kind=kind, src=str(SRC), out=f"{stem}.out.json", spans=f"{stem}.spans.json")
        Path(f"{stem}.json").write_text(json.dumps(task))
        cmd = [sys.executable, str(HERE / "worker.py"), f"{stem}.json"]
        proc = subprocess.run(cmd, env=self.env, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise BenchError(f"worker {kind} exited with {proc.returncode}")
        result = json.loads(Path(task["out"]).read_text())
        if task.get("trace"):
            self.spans.append(json.loads(Path(task["spans"]).read_text()))
        return result

    def setup_seconds(self, universes: list[int]) -> float:
        """Median, over fresh interpreters, of importing the package and
        building the CLI parser (and the listed clause universes)."""
        return statistics.median(
            self.worker("setup", universes=universes)["setup_s"] for _ in range(SETUP_REPEATS)
        )

    # -- bookkeeping -------------------------------------------------------

    def count(self, ops: list[dict]) -> list[dict]:
        """Record attempted and failed operations; return the ones that ran."""
        self.attempted += len(ops)
        bad = [op for op in ops if "error" in op]
        self.failed += len(bad)
        self.problems += [f"operation failed: {op['error']}" for op in bad[:3]]
        return [op for op in ops if "error" not in op]

    def rounds(self, one_round, at_least: int) -> list:
        """Whole rounds, at least ``at_least`` of them, until the timed
        calls have taken --seconds of real (raw) time."""
        results, busy = [], 0.0
        while len(results) < at_least or busy < self.seconds:
            results.append(one_round(len(results)))
            busy += results[-1]["raw_busy_s"]
        return results


def end_to_end(rounds: list[dict], work: list[tuple[int, int]]) -> dict:
    """End-to-end metrics from the median repetition of each operation.

    Every round repeats the same operations in a fresh process; times are
    in reference seconds (see refclock.py).  ``work`` gives (clauses,
    formulas) per operation.
    """
    per_op = []
    for (clauses, formulas), reps in zip(work, zip(*(r["ops"] for r in rounds))):
        times = [op["s"] for op in reps if "error" not in op]
        if times:
            per_op.append((statistics.median(times), clauses, formulas))
    busy = sum(b[0] for b in per_op)
    ms = sorted(b[0] * 1000 for b in per_op)
    return {
        "clauses_per_s": sum(b[1] for b in per_op) / busy,
        "formulas_per_s": sum(b[2] for b in per_op) / busy,
        "op_p50_ms": statistics.median(ms),
        "op_p95_ms": statistics.quantiles(ms, n=20, method="inclusive")[18],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def write_inputs(run: Run, files: list[tuple[int, list]], stem: str) -> list[dict]:
    """Write DIMACS files and compute each one's expected report."""
    out = []
    for i, (n, clauses) in enumerate(files):
        path = run.work / f"{stem}{i:03d}-n{n}.cnf"
        path.write_text(gen.dimacs(n, clauses, comment=f"{stem} {i} seed {run.seed}"))
        expected, code, problems = check.expected_analysis(n, clauses)
        run.problems += [f"{path.name}: benchmark's own confirmation: {p}" for p in problems]
        out.append({"path": str(path), "clauses": len(clauses), "expected": expected, "code": code})
    return out


def check_analyze_ops(run: Run, items: list[dict], ops: list[dict], reference: list[dict] | None = None) -> None:
    """Check analyze outputs against the expected reports or, when a
    reference round is given, require them to equal its outputs byte for
    byte."""
    for i, (item, op) in enumerate(zip(items, ops)):
        name = Path(item["path"]).name
        if "error" in op:
            continue
        if reference is not None:
            if "error" not in reference[i] and op["out"] != reference[i]["out"]:
                run.problems.append(f"{name}: output differs from the reference run's")
            continue
        doc = parse_output(run, name, op["out"])
        if doc is not None:
            found = check.check_analysis(doc, op["code"], item["expected"], item["code"])
            run.problems += [f"{name}: {p}" for p in found]


def parse_output(run: Run, name: str, text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        run.problems.append(f"{name}: output is not JSON: {text[:80]!r}")
        return None


def layer_metrics(results: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics summed over traced worker results."""
    seconds = {layer: sum(r["layer_s"][layer] for r in results) for layer in LAYERS}
    tally: dict[str, int] = {}
    for r in results:
        for k, v in r["tally"].items():
            tally[k] = tally.get(k, 0) + v
    t = lambda k: tally.get(k, 0)  # noqa: E731
    return {
        "dimacs.parse_s": seconds["dimacs.parse"],
        "dimacs.literals": t("dimacs.literals"),
        "normalize.normalize_s": seconds["normalize.normalize"],
        "normalize.literals_scanned": t("normalize.literals_scanned"),
        "normalize.kept_ratio": t("normalize.clauses_kept") / max(t("normalize.clauses_read"), 1),
        "bounds.bounds_for_s": seconds["bounds.bounds_for"],
        "bounds.calls": t("bounds.calls"),
        "detectors.screen_s": seconds["detectors.screen"],
        "detectors.census_s": seconds["detectors.census"],
        "detectors.class_scan_s": seconds["detectors.class_scan"],
        "detectors.clauses_scanned": t("detectors.clauses_scanned"),
        "detectors.hit_ratio": t("detectors.hits") / max(t("detectors.screened"), 1),
        "oracle.solve_s": seconds["oracle.solve"],
        "oracle.solve_calls": t("oracle.solve_calls"),
        "oracle.assignments": t("oracle.assignments"),
        "oracle.bitmap_s": seconds["oracle.bitmap"],
        "oracle.bitmap_calls": t("oracle.bitmap_calls"),
        "generate.universe_s": seconds["generate.universe"],
        "generate.sample_s": seconds["generate.sample"],
        "generate.formulas_sampled": t("generate.formulas_sampled"),
        "generate.verify_s": seconds["generate.verify"],
        "generate.formulas_checked": t("generate.formulas_checked"),
        "report.build_s": seconds["report.build"],
        "report.json_s": seconds["report.json"],
        "report.json_bytes": t("report.json_bytes"),
        "trace.overhead_s": overhead_s,
    }


def overhead(untraced: list[dict], traced: list[dict]) -> float:
    """Traced time minus untraced time, in raw seconds like the spans.
    The untraced round runs once before and once after the traced one,
    and their mean is used, so that a steady drift in the host's speed
    cancels."""
    return sum(r["raw_busy_s"] for r in traced) - statistics.mean(r["raw_busy_s"] for r in untraced)


def traced_checks(run: Run, result: dict) -> None:
    run.problems += result["problems"]
    if result["layers_missing"]:
        run.problems.append(f"traced run never entered {result['layers_missing']}")


# --------------------------------------------------------------------------
# workloads


def analyze_large(run: Run) -> dict:
    """Two n=1000, 200k-clause files, each analysed by a fresh interpreter."""
    rng = random.Random(f"{run.seed}:large")
    items = write_inputs(run, [gen.large_planted(rng), gen.large_clean(rng)], "large")
    if [item["code"] for item in items] != [check.EX_UNSAT, check.EX_OK]:
        raise BenchError("analyze-large inputs do not have the intended verdicts")

    def one_round(index: int) -> dict:
        passes = []
        for item in items:
            stdout = run.work / f"{Path(item['path']).stem}-pass{index}.json"
            passes.append(run.worker("cli", argv=["analyze", item["path"]], stdout=str(stdout)))
            passes[-1]["ops"][0]["out"] = stdout.read_text()
        ops = [p["ops"][0] for p in passes]
        run.count(ops)
        return {
            "ops": ops,
            "busy_s": sum(p["busy_s"] for p in passes),
            "raw_busy_s": sum(p["raw_busy_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }

    if run.trace:
        plain = one_round(0)
        check_analyze_ops(run, items, plain["ops"])
        traced = []
        for item, op in zip(items, plain["ops"]):
            result = run.worker("batch", files=[item["path"]], trace=True)
            run.count(result["ops"])
            check_analyze_ops(run, [item], result["ops"], [op])
            traced_checks(run, result)
            traced.append(result)
        again = one_round(1)
        check_analyze_ops(run, items, again["ops"], plain["ops"])
        return layer_metrics(traced, overhead([plain, again], traced))

    rounds = run.rounds(one_round, at_least=LARGE_ROUNDS)
    check_analyze_ops(run, items, rounds[0]["ops"])
    for r in rounds[1:]:
        check_analyze_ops(run, items, r["ops"], rounds[0]["ops"])
    return end_to_end(rounds, [(item["clauses"], 1) for item in items])


def analyze_batch(run: Run) -> dict:
    """148 small files analysed in one process per round."""
    items = write_inputs(run, gen.batch_files(random.Random(f"{run.seed}:batch")), "batch")
    paths = [item["path"] for item in items]

    def one_round(index: int, trace: bool = False) -> dict:
        result = run.worker("batch", files=paths, trace=trace)
        run.count(result["ops"])
        return result

    if run.trace:
        plain, traced, again = one_round(0), one_round(1, trace=True), one_round(2)
        check_analyze_ops(run, items, plain["ops"])
        check_analyze_ops(run, items, traced["ops"], plain["ops"])
        check_analyze_ops(run, items, again["ops"], plain["ops"])
        traced_checks(run, traced)
        return layer_metrics([traced], overhead([plain, again], [traced]))

    rounds = run.rounds(one_round, at_least=BATCH_ROUNDS)
    check_analyze_ops(run, items, rounds[0]["ops"])
    for r in rounds[1:]:
        check_analyze_ops(run, items, r["ops"], rounds[0]["ops"])
    return end_to_end(rounds, [(item["clauses"], 1) for item in items])


ALL_RULES = {"beyond_f", "variable_occurrence", "literal_saturation", "clause_class"}


def screen_campaign(run: Run) -> dict:
    """Seeded sample_pcnf + screen_all for n = 1..12, hits confirmed."""

    def one_round(index: int, trace: bool = False) -> dict:
        result = run.worker("screen", seed=run.seed, check=index == 0 or trace, trace=trace)
        ok = run.count(result["ops"])
        run.problems += result["problems"][:20]
        fired = set().union(*(op["rules"] for op in ok))
        if fired != ALL_RULES:
            run.problems.append(f"rules that never fired: {sorted(ALL_RULES - fired)}")
        return result

    if run.trace:
        plain, traced, again = one_round(1), one_round(0, trace=True), one_round(2)
        if not plain["digest"] == traced["digest"] == again["digest"]:
            run.problems.append("traced campaign screened differently")
        traced_checks(run, traced)
        return layer_metrics([traced], overhead([plain, again], [traced]))

    rounds = run.rounds(one_round, at_least=SCREEN_ROUNDS)
    if len({r["digest"] for r in rounds}) != 1:
        run.problems.append("campaign rounds screened differently")
    return end_to_end(rounds, [(size, 1) for _, size, _ in gen.screen_cases(run.seed)])


def verify_n3(run: Run) -> dict:
    """verify --n 3 through cli.main: exhaustive over both strata, then a
    seeded 100k sample."""
    b = check.closed_forms(3)
    sizes = range(b["g"] + 1, b["m"] + 1)
    exhaustive = ["verify", "--n", "3", "--mode", "exhaustive", "--budget", str(VERIFY_BUDGET)]
    sample = ["verify", "--n", "3", "--mode", "sample", "--count", str(VERIFY_SAMPLES), "--seed", str(run.seed)]
    calls = [exhaustive, sample]
    # The sample's clause counts are drawn inside the program, so only the
    # exhaustive call's clauses are counted.
    work = [(sum(k * comb(b["m"], k) for k in sizes), sum(comb(b["m"], k) for k in sizes)), (0, VERIFY_SAMPLES)]

    def one_round(index: int, trace: bool = False) -> dict:
        result = run.worker("verify", calls=calls, trace=trace)
        run.count(result["ops"])
        for argv, op in zip(calls, result["ops"]):
            name = " ".join(argv)
            doc = None if "error" in op else parse_output(run, name, op["out"])
            if doc is not None:
                found = check.check_verification(doc, op["code"], 3, argv[4], VERIFY_SAMPLES)
                run.problems += [f"{name}: {p}" for p in found]
        return result

    if run.trace:
        plain, traced, again = one_round(0), one_round(1, trace=True), one_round(2)
        for a, t in zip(plain["ops"], traced["ops"]):
            if "error" not in a and "error" not in t and a["out"] != t["out"]:
                run.problems.append("traced verify printed different JSON")
        traced_checks(run, traced)
        return layer_metrics([traced], overhead([plain, again], [traced]))

    rounds = run.rounds(one_round, at_least=VERIFY_ROUNDS)
    return end_to_end(rounds, work)


WORKLOAD_RUNNERS = {
    "analyze-large": (analyze_large, []),
    "analyze-batch": (analyze_batch, []),
    "screen-campaign": (screen_campaign, list(gen.SCREEN_NS)),
    "verify-n3": (verify_n3, [3]),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner, universes = WORKLOAD_RUNNERS[name]
    run = Run(name, seed, seconds, trace)
    try:
        if trace:
            metrics, units = runner(run), PER_LAYER
        else:
            setup = run.setup_seconds(universes)
            metrics, units = runner(run), END_TO_END
            metrics["setup_s"] = setup
    finally:
        spans = run.close()
    if spans:
        print(f"{name}: spans written to {spans.relative_to(ROOT)}")
    for p in run.problems[:10]:
        print(f"{name}: PROBLEM {p}")
    print(f"{name}: attempted={run.attempted} failed={run.failed} problems={len(run.problems)}")
    for key, unit in units.items():
        print(f"{name}: {key} = {metrics[key]:.6g} {unit}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    failures = selftest.run()
    if failures:
        print("checker self-test failed:", *failures, sep="\n  ", file=sys.stderr)
        return 3
    if not (SRC / "pcnfrange" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'pcnfrange'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
