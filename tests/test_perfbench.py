"""The benchmark's view of the package. ``perfbench/`` wraps templink's
functions and methods by name and calls its probes' APIs directly, so a
rename in the package must fail here and not only under
``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_tracer_installs_and_probes_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    probes = importlib.import_module("probes")
    from templink import pipeline
    evaluate_checkpoints = pipeline.evaluate_checkpoints

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert pipeline.evaluate_checkpoints is not evaluate_checkpoints
    finally:
        tracer.uninstall()
    assert pipeline.evaluate_checkpoints is evaluate_checkpoints

    assert probes.graph_step_ms(n=200, m=50, sample=64) > 0
    for mode in ("mean", "attn"):
        assert probes.encoder_ms(100, mode=mode, batch=4, length=8) > 0
    assert probes.knn_s(50) > 0
    assert probes.gold_rank_ms(n=100, mentions=2) > 0
