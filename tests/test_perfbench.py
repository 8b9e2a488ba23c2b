"""The benchmark's view of the package. ``perfbench/`` wraps templink's
functions and methods by name and calls its probes' APIs directly, so a
rename in the package must fail here and not only under
``perfbench/run.py --trace 1``."""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

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


def test_traced_experiment_embeds_through_the_bag_mean(monkeypatch, tmp_path):
    # a traced command end to end; the description embedding's bag mean is
    # the tape op, so its span sits under graphs.embed_descriptions. The
    # benchmark's stage metrics read the spans counted below, so renaming
    # one of these functions fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from fixtures import write_toy_dataset
    from templink import cli

    data = write_toy_dataset(tmp_path / "data", years=(2019, 2020))
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[paths]\ndata_dir = {data}\nout_dir = {tmp_path / 'out'}\n"
        "[run]\nyears = 2019..2020\n"
        "[graphs]\nk = 3\nmin_count = 2\nmax_count = 5\nembed_dim = 16\n"
        "[model]\ndim = 8\ngcn_hidden = 4\ngcn_out = 4\ngcn_layers = 1\n"
        "[train]\nepochs = 1\nbatch_size = 4\n")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["experiment", "--config", str(ini)])
    finally:
        tracer.uninstall()
    assert code == 0
    name_ids, _, _, parent, _ = tracer.arrays()
    names = np.array(tracer.names)[name_ids]
    bag_means = np.flatnonzero(names == "tape.mean_bags")
    assert "graphs.embed_descriptions" in set(names[parent[bag_means]])
    spans = Counter(names.tolist())
    assert [spans[name] for name in (
        "pipeline.build_year_graphs", "pipeline.train_year",
        "pipeline.build_tokenizer", "graphs.embed_descriptions")] == [
        2, 2 * 2, 1, 1]
