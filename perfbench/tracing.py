"""Spans around calls into the program's public functions.

`Tracer.install` replaces each traced function, in every loaded
``pcnfrange`` module that holds it, by a wrapper that records a span
(layer, start, end, parent) in memory and updates the layer's counters from
the call's arguments and result.  Nothing in the program changes on disk;
`Tracer.uninstall` puts the originals back.  Spans nest by call stack, so a
census inside a screen is the screen's child.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _parse(tally, args, result):
    tally["dimacs.literals"] += sum(map(len, result.clauses))


def _normalize(tally, args, result):
    formula, stats = result
    tally["normalize.literals_scanned"] += stats.literals_scanned
    tally["normalize.clauses_read"] += len(args[0].clauses)
    tally["normalize.clauses_kept"] += len(formula.clauses)


def _bounds(tally, args, result):
    tally["bounds.calls"] += 1


def _screen(tally, args, result):
    tally["detectors.screened"] += 1
    tally["detectors.hits"] += result.verdict.value == "unsatisfiable"


def _class_scan(tally, args, result):
    tally["detectors.clauses_scanned"] += result[1].clauses_scanned


def _solve(tally, args, result):
    tally["oracle.solve_calls"] += 1
    tally["oracle.assignments"] += 1 << args[0].num_vars


def _bitmap(tally, args, result):
    tally["oracle.bitmap_calls"] += 1


def _sample(tally, args, result):
    tally["generate.formulas_sampled"] += 1


def _verify(tally, args, result):
    tally["generate.formulas_checked"] += sum(s.formulas_checked for s in result.strata)


def _json(tally, args, result):
    tally["report.json_bytes"] += len(result.encode())


# (layer, module, function, counter update)
TARGETS = (
    ("dimacs.parse", "pcnfrange.dimacs", "parse_dimacs", _parse),
    ("normalize.normalize", "pcnfrange.normalize", "normalize", _normalize),
    ("bounds.bounds_for", "pcnfrange.bounds", "bounds_for", _bounds),
    ("detectors.screen", "pcnfrange.detectors", "screen_all", _screen),
    ("detectors.census", "pcnfrange.detectors", "occurrence_census", None),
    ("detectors.class_scan", "pcnfrange.detectors", "clause_class_screen", _class_scan),
    ("oracle.solve", "pcnfrange.oracle", "solve", _solve),
    ("oracle.bitmap", "pcnfrange.oracle", "model_bitmap", _bitmap),
    ("generate.universe", "pcnfrange.generate", "enumerate_clauses", None),
    ("generate.sample", "pcnfrange.generate", "sample_pcnf", _sample),
    ("generate.verify", "pcnfrange.generate", "verify_bounds", _verify),
    ("report.build", "pcnfrange.report", "build_report", None),
    ("report.build", "pcnfrange.report", "report_to_dict", None),
    ("report.build", "pcnfrange.report", "verification_to_dict", None),
    ("report.json", "pcnfrange.report", "to_json", _json),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.tally: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, count):
        spans, stack, tally = self.spans, self._stack, self.tally

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if count is not None:
                count(tally, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("pcnfrange")]
        for layer, module_name, name, count in TARGETS:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(layer, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_seconds(self) -> dict[str, float]:
        """Time inside each layer, counting a span only when no ancestor
        span belongs to the same layer, so re-entry is not counted twice."""
        out = dict.fromkeys(LAYERS, 0.0)
        spans = self.spans
        for layer, start, end, parent in spans:
            while parent >= 0 and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                out[layer] += end - start
        return out

    def layers_seen(self) -> set[str]:
        return {span[0] for span in self.spans}

    def dump(self) -> list[dict]:
        return [
            {"name": layer, "start": start, "end": end, "parent": parent}
            for layer, start, end, parent in self.spans
        ]
