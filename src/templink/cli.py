"""Command-line surface: ingest, build-graphs, train, eval, experiment, report.

A flat ``key = value`` config file with per-module sections (INI syntax)
seeds every run; command-line flags override file values. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from . import pipeline, records, reporting
from .checkpoint import atomic_open
from .model import ModelConfig
from .pipeline import RunConfig, parse_years
from .records import DataError
from .trainer import NumericError, TrainConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def load_config_file(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    cfg = RunConfig()

    def get(section, key, cast, default):
        if parser.has_option(section, key):
            return cast(parser.get(section, key))
        return default

    cfg.data_dir = get("paths", "data_dir", str, cfg.data_dir)
    cfg.out_dir = get("paths", "out_dir", str, cfg.out_dir)
    cfg.baseline = get("paths", "baseline", str, cfg.baseline)
    years = get("run", "years", str, "")
    if years:
        cfg.years = _parse_years_arg(years)
    cfg.mode = get("run", "mode", str, cfg.mode)
    cats = get("run", "categories", str, "")
    if cats:
        cfg.categories = [c.strip() for c in cats.split(",") if c.strip()]

    cfg.k = get("graphs", "k", int, cfg.k)
    cfg.min_count = get("graphs", "min_count", int, cfg.min_count)
    cfg.max_count = get("graphs", "max_count", int, cfg.max_count)
    cfg.embed_dim = get("graphs", "embed_dim", int, cfg.embed_dim)
    cfg.embed_seed = get("graphs", "embed_seed", int, cfg.embed_seed)

    mc = ModelConfig()
    mc.dim = get("model", "dim", int, mc.dim)
    mc.gcn_hidden = get("model", "gcn_hidden", int, mc.gcn_hidden)
    mc.gcn_out = get("model", "gcn_out", int, mc.gcn_out)
    mc.gcn_layers = get("model", "gcn_layers", int, mc.gcn_layers)
    mc.encoder_mode = get("model", "encoder_mode", str, mc.encoder_mode)
    mc.encoder_layers = get("model", "encoder_layers", int, mc.encoder_layers)
    mc.max_len = get("model", "max_len", int, mc.max_len)
    cfg.model = mc

    tc = TrainConfig()
    tc.learning_rate = get("train", "learning_rate", float, tc.learning_rate)
    tc.epochs = get("train", "epochs", int, tc.epochs)
    tc.batch_size = get("train", "batch_size", int, tc.batch_size)
    tc.loss_a = get("train", "loss_a", float, tc.loss_a)
    tc.loss_b = get("train", "loss_b", float, tc.loss_b)
    tc.gram_sample = get("train", "gram_sample", int, tc.gram_sample)
    tc.grad_clip = get("train", "grad_clip", float, tc.grad_clip)
    cfg.train = tc
    return cfg


def _parse_years_arg(spec: str) -> list:
    try:
        return parse_years(spec)
    except ValueError as exc:
        raise UsageError(f"bad years value {spec!r}: {exc}") from exc


def apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "data_dir", None):
        cfg.data_dir = args.data_dir
    if getattr(args, "out_dir", None):
        cfg.out_dir = args.out_dir
    if getattr(args, "years", None):
        cfg.years = _parse_years_arg(args.years)
    if getattr(args, "k", None) is not None:
        cfg.k = args.k
    if getattr(args, "min_count", None) is not None:
        cfg.min_count = args.min_count
    if getattr(args, "max_count", None) is not None:
        cfg.max_count = args.max_count
    if getattr(args, "mode", None):
        cfg.mode = args.mode
    if getattr(args, "baseline", None):
        cfg.baseline = args.baseline
    if getattr(args, "seed", None) is not None:
        cfg.train.seed = args.seed
        cfg.model.seed = args.seed
        cfg.embed_seed = args.seed
    return cfg


def build_run_config(args) -> RunConfig:
    cfg = load_config_file(args.config) if getattr(args, "config", None) else RunConfig()
    return apply_overrides(cfg, args)


class OutputLock:
    """Guards an output directory against concurrent writers."""

    def __init__(self, out_dir):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise UsageError(f"output dir locked by another run: {self.path}")
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        if self.path.exists():
            self.path.unlink()
        return False


def cmd_ingest(args) -> int:
    cfg = build_run_config(args)
    year = args.year
    out = Path(cfg.data_dir) / str(year)
    out.mkdir(parents=True, exist_ok=True)
    n_e = records.ingest_jsonl_entities(args.entities, out / "entities.tsv", year)
    log.info("wrote %d entities", n_e)
    if args.mentions:
        n_m = records.ingest_jsonl_mentions(
            args.mentions, out / "mentions_train.tsv", year)
        log.info("wrote %d training mentions", n_m)
    if args.test_mentions:
        n_t = records.ingest_jsonl_mentions(
            args.test_mentions, out / "mentions_test.tsv", year)
        log.info("wrote %d test mentions", n_t)
    if args.triples:
        triples = records.load_triples(args.triples)
        records.save_triples(triples, out / "triples.tsv")
        log.info("wrote %d triples", len(triples))
    return EXIT_OK


def cmd_build_graphs(args) -> int:
    cfg = build_run_config(args)
    with OutputLock(cfg.out_dir):
        pipeline.write_resolved_config(cfg, __version__)
        corpora = pipeline.load_corpora(cfg)
        tokenizer = pipeline.build_tokenizer(cfg, corpora)
        for year in cfg.years:
            structure, feature_graph, fmat = pipeline.build_year_graphs(
                cfg, year, corpora[year], tokenizer)
            log.info("year %d: %d entities, %d structure edges, %d knn edges, "
                     "%d feature columns", year, structure.n, structure.nnz,
                     feature_graph.nnz, fmat.m)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_run_config(args)
    with OutputLock(cfg.out_dir):
        stamp = pipeline.write_resolved_config(cfg, __version__)
        pipeline.train_years(cfg, pipeline.load_corpora(cfg), stamp)
    return EXIT_OK


def _emit_matrices(cfg: RunConfig, matrices: dict) -> None:
    out = Path(cfg.out_dir)
    for category, matrix in matrices.items():
        reporting.write_gap_matrix_csv(matrix, out / f"gap_matrix_{category}.csv")
        reporting.write_aggregate_csv(matrix, out / f"aggregate_{category}.csv")
    reporting.write_recall_vs_gap_plot(
        matrices, out / "recall_vs_gap.svg", metric=1,
        mode=cfg.mode if cfg.mode else "forward_only")
    if cfg.baseline:
        baseline = reporting.load_baseline_csv(cfg.baseline)
        for category, matrix in matrices.items():
            reporting.write_boost_csv(matrix, baseline, category,
                                      out / f"boost_{category}.csv",
                                      mode=cfg.mode)


def cmd_eval(args) -> int:
    cfg = build_run_config(args)
    with OutputLock(cfg.out_dir):
        _emit_matrices(cfg, pipeline.evaluate_checkpoints(
            cfg, pipeline.load_corpora(cfg)))
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = build_run_config(args)
    with OutputLock(cfg.out_dir):
        matrices = pipeline.run_experiment(cfg, version=__version__)
        _emit_matrices(cfg, matrices)
    return EXIT_OK


def cmd_report(args) -> int:
    if not args.table:
        return cmd_eval(args)
    cfg = build_run_config(args)
    table = reporting.load_results_table(args.table)
    cells, recomputed_ave = reporting.recompute_boost(table)
    printed_ave = reporting.printed_average_boost(table)
    result = {
        "boost_cells": {f"@{n}|gap{g}|{c}": v
                        for (n, g, c), v in sorted(cells.items())},
        "recomputed_average_boost": {f"gap{g}|{c}": v
                                     for (c, g), v in sorted(recomputed_ave.items())},
        "printed_average_boost": {f"gap{g}|{c}": v
                                  for (c, g), v in sorted(printed_ave.items())},
    }
    with OutputLock(cfg.out_dir):
        with atomic_open(Path(cfg.out_dir) / "table_boost.json",
                         text=True) as fh:
            fh.write(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for key in sorted(printed_ave):
        print(f"ave boost {key[0]} gap {key[1]}: {printed_ave[key]:.2f}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templink",
        description="Temporal graph-aware entity linking pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--years", help='e.g. "2019..2022" or "2019,2021"')
        p.add_argument("--seed", type=int)

    p = sub.add_parser("ingest", help="convert JSONL dumps to canonical TSVs")
    common(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--entities", required=True, help="entity JSONL file")
    p.add_argument("--mentions", help="training-mention JSONL file")
    p.add_argument("--test-mentions", dest="test_mentions")
    p.add_argument("--triples", help="TSV triple file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-graphs", help="construct snapshot graphs + matrices")
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--max-count", dest="max_count", type=int)
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("train", help="train per-year checkpoints")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints over all year pairs")
    common(p)
    p.add_argument("--mode", choices=["forward_only", "forward_and_backward"])
    p.add_argument("--baseline", help="baseline CSV (metric,gap,category,value)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="build + train + eval + report")
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--max-count", dest="max_count", type=int)
    p.add_argument("--mode", choices=["forward_only", "forward_and_backward"])
    p.add_argument("--baseline")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="emit CSVs, plots, and boost tables")
    common(p)
    p.add_argument("--mode", choices=["forward_only", "forward_and_backward"])
    p.add_argument("--baseline")
    p.add_argument("--table", help="transcribed results table CSV for "
                                   "boost arithmetic (see data/published_results.csv)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (DataError, reporting.BaselineFormatError, FileNotFoundError,
            ValueError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except NumericError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
