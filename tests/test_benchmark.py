"""The benchmark's traced sweep, run in this process.

A traced benchmark run counts a problem the sweep finds, or a traced layer
it never entered, as an incorrect run; this test sees either first.
"""
from pathlib import Path

import pcnfrange  # noqa: F401  (every module is loaded before tracing)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_sweep_checks_clean_and_enters_every_layer(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    tracer = tracing.Tracer()
    tracer.install()
    try:
        problems = worker.sweep(tmp_path)
    finally:
        tracer.uninstall()
    assert problems == []
    assert sorted(set(tracing.LAYERS) - tracer.layers_seen()) == []
