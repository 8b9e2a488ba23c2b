"""The benchmark's view of the package. ``perfbench/`` wraps templink's
functions and methods by name and calls its probes' APIs directly, so a
rename in the package must fail here and not only under
``perfbench/run.py --trace 1``."""

import configparser
import importlib
import logging
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


def test_benchmark_config_loads_every_value_it_sets(monkeypatch, tmp_path,
                                                    caplog):
    # the benchmark's run.ini still carries retired keys; each warns, and
    # every other key loads the value the file holds, so deleting a setting
    # the benchmark sets (min_count, say) fails here. ``run`` is not
    # imported: it sets BLAS variables for the process that imports it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    corpus = importlib.import_module("corpus")
    from templink import cli
    from templink.pipeline import parse_years

    spec = corpus.CorpusSpec(
        years=3, entities=40, new_share=0.1, words=200, zipf=1.1,
        topic_share=0.5, desc_len=12, triples_per_entity=4.0,
        train_mentions=20, test_mentions=10, context_len=8, min_count=3,
        max_count=17, epochs=2, batch_size=16)
    corpus.write_config(spec, tmp_path)
    ini = tmp_path / "run.ini"
    with caplog.at_level(logging.WARNING, logger="templink.cli"):
        cfg = cli.load_config_file(ini)
    warned = sorted(r.getMessage() for r in caplog.records)
    retired = {("train", "gram_sample"), ("run", "mode"),
               ("run", "categories"), ("model", "encoder_mode"),
               ("model", "encoder_layers")}
    assert warned == sorted(
        f"{ini}: [{section}] {key} names no setting; ignored"
        for section, key in retired)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ini, encoding="utf-8")
    holders = {"model": cfg.model, "train": cfg.train}
    for section in parser.sections():
        for key, text in parser.items(section):
            if (section, key) in retired:
                continue
            value = getattr(holders.get(section, cfg), key)
            want = parse_years(text) if key == "years" else type(value)(text)
            assert value == want, (section, key)
