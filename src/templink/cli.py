"""Command-line surface: ingest, build-graphs, train, eval, experiment, report.

A flat ``key = value`` config file with per-module sections (INI syntax,
values literal) sets every run, its one ``[run] seed`` included; command-line
flags override file values. Exit codes: 0 success, 1 usage error, 2 data or
I/O error (a training worker that dies included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

from . import __version__
from . import pipeline, records, reporting
from .checkpoint import write_json
from .pipeline import RunConfig, parse_years
from .records import DataError
from .trainer import NumericError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


# INI section of each RunConfig field not read from [graphs]
SECTION_OF = {"data_dir": "paths", "out_dir": "paths", "baseline": "paths",
              "years": "run", "seed": "run", "model": "model", "train": "train"}


def _from_ini(parser, cls, section: str, section_of: dict):
    """A ``cls`` built through its constructor from the INI keys named after
    its fields, each read from ``section_of.get(name, section)`` and cast by
    the type of the field's default; a dataclass field reads its own fields
    from that section. Each key read is removed from ``parser``."""
    values = {}
    for f in fields(cls):
        default = f.default if f.default is not MISSING else f.default_factory()
        where = section_of.get(f.name, section)
        if is_dataclass(default):
            values[f.name] = _from_ini(parser, type(default), where, {})
        elif (text := parser.get(where, f.name, fallback=None)) is not None:
            parser.remove_option(where, f.name)
            try:
                values[f.name] = (parse_years(text) if f.name == "years"
                                  else type(default)(text))
            except ValueError as exc:
                raise ValueError(f"[{where}] {f.name}: {exc}") from exc
    return cls(**values)


def load_config_file(path) -> RunConfig:
    """The config a UTF-8 INI file sets. A key that names no setting loads,
    shapes nothing and is logged as a warning; ``[DEFAULT]`` is a section
    like any other (no header can spell the parser's default section)."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise UsageError(f"bad config file: {exc}") from exc
    if not read:
        raise UsageError(f"config file not found: {path}")
    cfg = _from_ini(parser, RunConfig, "graphs", SECTION_OF)
    for section in parser.sections():
        for key in parser.options(section):
            log.warning("%s: [%s] %s names no setting; ignored",
                        path, section, key)
    return cfg


def apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """``cfg`` with each field that a parsed flag of the same name set."""
    changes = {f.name: value for f in fields(RunConfig)
               if (value := getattr(args, f.name, None)) is not None}
    if "years" in changes:
        changes["years"] = parse_years(changes["years"])
    return replace(cfg, **changes)


def pipeline_config(args) -> RunConfig:
    """The file config (if any) with the command-line flags applied. An
    invalid value, or no years given, is a usage error, raised before the
    output dir exists."""
    try:
        cfg = apply_overrides(load_config_file(args.config) if args.config
                              else RunConfig(), args)
    except ValueError as exc:
        raise UsageError(f"bad config: {exc}") from exc
    if not cfg.years:
        raise UsageError("no years given: set [run] years or pass --years")
    return cfg


def _lock_holder(path: Path) -> str:
    """The PID in the lock file at ``path``, and whether it is running."""
    try:
        pid = int(path.read_text())
    except (OSError, ValueError):
        pid = 0
    if pid <= 0:
        return "holds no PID"
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return f"holds PID {pid}, which is not running"
    except PermissionError:  # running as another user
        pass
    return f"holds PID {pid}, which is running"


class OutputLock:
    """Guards an output directory against concurrent writers."""

    def __init__(self, out_dir):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise UsageError(f"output dir locked by another run: {self.path} "
                             f"{_lock_holder(self.path)}") from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        if self.path.exists():
            self.path.unlink()
        return False


def cmd_ingest(args) -> int:
    """Read and check every input, then write the year's TSVs."""
    year = args.year
    entities = records.read_jsonl_entities(args.entities, year)
    mentions = {name: records.read_jsonl_mentions(src, year)
                for name, src in (("mentions_train.tsv", args.mentions),
                                  ("mentions_test.tsv", args.test_mentions))
                if src}
    triples = records.load_triples(args.triples) if args.triples else None
    out = Path(args.data_dir) / str(year)
    out.mkdir(parents=True, exist_ok=True)
    records.save_entities(entities, out / "entities.tsv")
    log.info("wrote %d entities", len(entities))
    for name, rows in mentions.items():
        records.save_mentions(rows, out / name)
        log.info("wrote %d mentions to %s", len(rows), name)
    if triples is not None:
        records.save_triples(triples, out / "triples.tsv")
        log.info("wrote %d triples", len(triples))
    return EXIT_OK


def cmd_build_graphs(args) -> int:
    cfg = pipeline_config(args)
    with OutputLock(cfg.out_dir):
        stamp = pipeline.write_resolved_config(cfg, __version__)
        corpora = pipeline.load_corpora(cfg)
        pipeline.make_snapshots(cfg, corpora, cfg.years,
                                pipeline.build_tokenizer(cfg, corpora), stamp)
    return EXIT_OK


def cmd_train(args, workers: int) -> int:
    cfg = pipeline_config(args)
    with OutputLock(cfg.out_dir):
        stamp = pipeline.write_resolved_config(cfg, __version__)
        pipeline.train_years(cfg, pipeline.lazy_inputs(cfg), stamp, workers)
    return EXIT_OK


def _emit_matrices(cfg: RunConfig, matrices: dict, baseline) -> None:
    """The gap-matrix, aggregate and plot files of ``matrices``; with a
    ``cfg.baseline``, whose rows ``baseline`` holds, the boost files."""
    out = Path(cfg.out_dir)
    for category, matrix in matrices.items():
        reporting.write_gap_matrix_csv(matrix, out / f"gap_matrix_{category}.csv")
        reporting.write_aggregate_csv(matrix, out / f"aggregate_{category}.csv")
    reporting.write_recall_vs_gap_plot(matrices, out / "recall_vs_gap.svg")
    if cfg.baseline:
        for category, matrix in matrices.items():
            reporting.write_boost_csv(matrix, baseline, category,
                                      out / f"boost_{category}.csv")


def cmd_eval(args) -> int:
    cfg = pipeline_config(args)
    baseline = cfg.baseline and reporting.load_baseline_csv(cfg.baseline)
    with OutputLock(cfg.out_dir):
        stamp = cfg.stamp(pipeline.data_digest(cfg))
        matrices = pipeline.evaluate_checkpoints(
            cfg, pipeline.lazy_inputs(cfg), stamp)
        _emit_matrices(cfg, matrices, baseline)
    return EXIT_OK


def cmd_experiment(args, workers: int) -> int:
    cfg = pipeline_config(args)
    baseline = cfg.baseline and reporting.load_baseline_csv(cfg.baseline)
    with OutputLock(cfg.out_dir):
        matrices = pipeline.run_experiment(cfg, __version__, workers)
        _emit_matrices(cfg, matrices, baseline)
    return EXIT_OK


def cmd_report(args) -> int:
    """Recompute the boost arithmetic of a transcribed results table."""
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
    with OutputLock(args.out_dir):
        write_json(Path(args.out_dir) / "table_boost.json", result)
    for key in sorted(printed_ave):
        print(f"ave boost {key[0]} gap {key[1]}: {printed_ave[key]:.2f}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templink",
        description="Temporal graph-aware entity linking pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    def run_command(name, func, summary):
        p = command(name, func, summary)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--out-dir", dest="out_dir")
        # --years and the four flags after it shape the checkpoint stamp
        p.add_argument("--years", help='e.g. "2019..2022" or "2019,2021"')
        p.add_argument("--seed", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--min-count", dest="min_count", type=int)
        p.add_argument("--max-count", dest="max_count", type=int)
        return p

    p = command("ingest", cmd_ingest, "convert JSONL dumps to canonical TSVs")
    p.add_argument("--data-dir", dest="data_dir", default=RunConfig.data_dir)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--entities", required=True, help="entity JSONL file")
    p.add_argument("--mentions", help="training-mention JSONL file")
    p.add_argument("--test-mentions", dest="test_mentions")
    p.add_argument("--triples", help="TSV triple file")
    run_command("build-graphs", cmd_build_graphs,
                "construct snapshot graphs + matrices")
    run_command("train", cmd_train, "train per-year checkpoints")
    for name, func, summary in (
            ("eval", cmd_eval, "evaluate checkpoints over all year pairs"),
            ("experiment", cmd_experiment, "build + train + eval")):
        p = run_command(name, func, summary)
        p.add_argument("--baseline",
                       help="baseline CSV (metric,gap,category,value)")
    p = command("report", cmd_report, "recompute a results table's boosts")
    p.add_argument("--out-dir", dest="out_dir", default=RunConfig.out_dir)
    p.add_argument("--table", required=True, help="transcribed results "
                   "table CSV (see data/published_results.csv)")
    return parser


def main(argv=None, workers: int = 1) -> int:
    """Run the command ``argv`` names; ``train`` and ``experiment`` train in
    up to ``workers`` forked processes. Returns the exit code."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.func in (cmd_train, cmd_experiment):
            return args.func(args, workers)
        return args.func(args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (DataError, reporting.BaselineFormatError, OSError,
            ValueError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except NumericError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC


def run() -> int:
    """The program's entry point: ``main`` on ``sys.argv`` with one training
    worker per CPU this process may run on, or with one where the OS has no
    ``os.sched_getaffinity`` (it is Linux only)."""
    return main(workers=len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else 1)


if __name__ == "__main__":
    sys.exit(run())
