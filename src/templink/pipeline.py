"""End-to-end orchestration: snapshot assembly, per-year training runs,
temporal evaluation, and resumable experiment state.

On-disk layout per year under a data directory:

    <data>/<year>/entities.tsv
    <data>/<year>/mentions_train.tsv
    <data>/<year>/mentions_test.tsv
    <data>/<year>/triples.tsv

Graph artifacts and checkpoints land under the run's output directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import records, trainer
from .checkpoint import read_meta, write_csv, write_json
from .evaluate import temporal_matrix
from .graphs import (VocabFilter, build_feature_matrix, build_knn_graph,
                     build_structure_graph, embed_descriptions, save_adjacency,
                     save_feature_matrix)
from .model import Model, ModelConfig
from .textenc import Tokenizer
from .trainer import Snapshot, TrainConfig, load_model, save_model, train

log = logging.getLogger(__name__)

INPUT_FILES = ("entities.tsv", "mentions_train.tsv", "mentions_test.tsv",
               "triples.tsv")
# config fields that shape no checkpoint, left out of its stamp
UNSTAMPED = ("data_dir", "out_dir", "baseline")


@dataclass
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    years: list = field(default_factory=list)
    seed: int = 0
    k: int = 10
    min_count: int = 46
    max_count: int = 200
    embed_dim: int = 64
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    baseline: str = ""

    def __post_init__(self):
        twice = [y for y in self.years if self.years.count(y) > 1]
        if twice:
            raise ValueError(f"year {twice[0]} named more than once")
        if self.k < 1 or self.embed_dim < 1:
            raise ValueError("k and embed_dim must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        VocabFilter(self.min_count, self.max_count)

    def stamp(self, data_digest: str) -> str:
        """Digest of what shapes a checkpoint: the config without its path
        and eval-only fields, the data digest and ``CHECKPOINT_FORMAT``."""
        shaping = {k: v for k, v in asdict(self).items() if k not in UNSTAMPED}
        return hashlib.sha256(json.dumps(
            [shaping, data_digest, trainer.CHECKPOINT_FORMAT], sort_keys=True)
            .encode()).hexdigest()[:16]


def year_dir(cfg: RunConfig, year: int) -> Path:
    return Path(cfg.data_dir) / str(year)


def data_digest(cfg: RunConfig) -> str:
    """SHA-256 over the SHA-256 of each run year's four input TSVs."""
    h = hashlib.sha256()
    for year in cfg.years:
        for name in INPUT_FILES:
            file_hash = hashlib.sha256((year_dir(cfg, year) / name).read_bytes())
            h.update(f"{year}/{name}\t{file_hash.hexdigest()}\n".encode())
    return h.hexdigest()


def load_year_corpus(cfg: RunConfig, year: int):
    """(entities, index, train mentions, test mentions) of one year; the
    mentions keep only gold qids the year's index resolves."""
    d = year_dir(cfg, year)
    entities = records.load_entities(d / "entities.tsv", year)
    index = records.build_entity_index(entities)
    train_m, _ = records.filter_mentions(
        records.load_mentions(d / "mentions_train.tsv", year), index)
    test_m, _ = records.filter_mentions(
        records.load_mentions(d / "mentions_test.tsv", year), index)
    return entities, index, train_m, test_m


def load_corpora(cfg: RunConfig) -> dict:
    """year -> ``load_year_corpus``: each year read once per command."""
    return {year: load_year_corpus(cfg, year) for year in cfg.years}


def build_tokenizer(cfg: RunConfig, corpora: dict) -> Tokenizer:
    """One vocabulary across all years so checkpoints transfer between snapshots."""
    texts = []
    for entities, _, train_m, test_m in corpora.values():
        for e in entities:
            texts.append(e.title)
            texts.append(e.description)
        for m in train_m + test_m:
            texts.extend((m.context_left, m.mention, m.context_right))
    return Tokenizer.build(texts, max_len=cfg.model.max_len)


def graphs_dir(cfg: RunConfig, year: int) -> Path:
    return Path(cfg.out_dir) / "graphs" / str(year)


def build_year_graphs(cfg: RunConfig, year: int, corpus, tokenizer: Tokenizer,
                      emb):
    """The year's structure graph, kNN feature graph (over ``emb``, the
    year's ``embed_descriptions`` rows) and feature matrix; nothing is
    written. The year's ``triples.tsv`` is read here and nowhere else. An
    entity with no title or description tokens is a ``DataError``."""
    entities, index, _, _ = corpus
    has_text = emb.any(axis=1)
    if not has_text.all():
        raise records.DataError(
            f"{year_dir(cfg, year) / 'entities.tsv'}: no title or description "
            f"text for entity {entities[has_text.argmin()].qid}")
    triples = records.load_triples(year_dir(cfg, year) / "triples.tsv")
    structure = build_structure_graph(triples, index)
    feature_graph = build_knn_graph(emb, min(cfg.k, len(entities) - 1))
    fmat = build_feature_matrix(
        entities, tokenizer, VocabFilter(cfg.min_count, cfg.max_count))
    return structure, feature_graph, fmat


def make_snapshots(cfg: RunConfig, corpora: dict, years,
                   tokenizer: Tokenizer, stamp: str) -> list:
    """The training snapshots of ``years``, in order, each over all its
    training mentions. One ``embed_descriptions`` call embeds every year's
    entities. Every year's graphs are built first, so a graph error leaves
    the checkpoints and graph files as they were. Then each checkpoint of
    ``years`` with another ``stamp`` in its header, which the new graph
    files will not match, is deleted, and each year's graph files, outputs
    for inspection, are written."""
    if not years:
        return []
    emb = embed_descriptions([e for year in years for e in corpora[year][0]],
                             tokenizer, dim=cfg.embed_dim, seed=cfg.seed)
    snapshots = []
    lo = 0
    for year in years:
        entities, index, train_m, _ = corpora[year]
        structure, feature_graph, fmat = build_year_graphs(
            cfg, year, corpora[year], tokenizer, emb[lo:lo + len(entities)])
        lo += len(entities)
        log.info("year %d: %d entities, %d structure edges, %d knn edges, "
                 "%d feature columns", year, structure.n, structure.nnz,
                 feature_graph.nnz, fmat.m)
        snapshots.append(Snapshot(
            year=year, entities=entities, mentions=train_m, index=index,
            structure=structure, feature_graph=feature_graph,
            feature_matrix=fmat))
    del emb
    for year in years:
        for category in records.CATEGORIES:
            path = checkpoint_path(cfg, year, category)
            if (old := checkpoint_stamp(path)) not in (None, stamp):
                log.info("deleting %s: stamp %s, not the graphs' stamp %s",
                         path, old, stamp)
                path.unlink()
    for snap in snapshots:
        out = graphs_dir(cfg, snap.year)
        out.mkdir(parents=True, exist_ok=True)
        snap.index.save(out / "index.manifest")
        save_adjacency(snap.feature_graph, out / "feature.adj")
        save_feature_matrix(snap.feature_matrix, out / "feature.mat")
        save_adjacency(snap.structure, out / "structure.adj")
    return snapshots


def checkpoint_path(cfg: RunConfig, year: int, category: str) -> Path:
    return Path(cfg.out_dir) / "checkpoints" / f"{category}_{year}.ckpt"


def train_year(cfg: RunConfig, snapshot: Snapshot, category: str,
               tokenizer: Tokenizer, stamp: str) -> Path:
    """Train one (snapshot year, category) checkpoint on the snapshot's
    mentions of that category; its header records ``stamp``. The loss
    curve goes beside it, in ``loss_curve_<category>_<year>.csv``. A
    ``snapshot`` prepared beforehand lends its sparse matrices to every
    category; else ``train`` prepares this category's copy."""
    year = snapshot.year
    path = checkpoint_path(cfg, year, category)
    snapshot = replace(snapshot, mentions=[
        m for m in snapshot.mentions if m.category == category])
    model = Model(tokenizer, snapshot.feature_matrix.m, cfg.model, cfg.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    curve = train(snapshot, model, cfg.train, cfg.seed)
    write_csv(path.parent / f"loss_curve_{category}_{year}.csv",
              ["step", *trainer.LOSS_TERMS],
              ([step] + [repr(v) for v in losses] for step, *losses in curve))
    save_model(path, model, cfg.train, extra={
        "year": year, "category": category, "seed": cfg.seed, "stamp": stamp})
    log.info("checkpoint %s", path)
    return path


def checkpoint_stamp(path: Path):
    """The stamp in a checkpoint's header: None when there is no checkpoint,
    ``"none"`` when its header holds no stamp."""
    return read_meta(path).get("stamp", "none") if path.exists() else None


def train_years(cfg: RunConfig, corpora: dict, tokenizer: Tokenizer,
                stamp: str, workers: int = 1):
    """Train every (year, category) checkpoint, skipping those whose header
    holds the same ``stamp`` (``RunConfig.stamp``). A year with work left
    gets one snapshot, shared by its categories and prepared here, from
    ``make_snapshots``, which also deletes the checkpoints to retrain. With
    ``workers`` > 1 and more than one job, the jobs run in up to
    ``workers`` forked processes (``_train_in_pool``); else here, in order."""
    todo = {}  # year -> categories to train
    for year in cfg.years:
        for category in records.CATEGORIES:
            path = checkpoint_path(cfg, year, category)
            old = checkpoint_stamp(path)
            if old == stamp:
                log.info("skipping %s: stamp %s unchanged", path, stamp)
                continue
            log.info("training %s: %s", path, "no checkpoint" if old is None
                     else f"stamp changed {old} -> {stamp}")
            todo.setdefault(year, []).append(category)
    snapshots = make_snapshots(cfg, corpora, list(todo), tokenizer, stamp)
    jobs = [(cfg, snap.prepare(), category, tokenizer, stamp)
            for snap in snapshots for category in todo[snap.year]]
    if workers > 1 and len(jobs) > 1:
        _train_in_pool(jobs, workers)
    else:
        for job in jobs:
            train_year(*job)


_JOBS = []  # the pool's ``train_year`` arguments, filled in each worker


def _train_job(i: int):
    train_year(*_JOBS[i])


def _train_in_pool(jobs: list, workers: int):
    """``train_year(*job)`` for each of ``jobs`` in a pool of
    ``min(workers, len(jobs))`` forked processes. The jobs reach the workers
    through fork, never pickled; only their indices are submitted. The first
    failure cancels the jobs not yet started and is raised here once the
    running ones end; a worker that dies is a ``ChildProcessError``."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        min(workers, len(jobs)), mp_context=multiprocessing.get_context("fork"),
        initializer=_JOBS.extend, initargs=(jobs,))
    try:
        for future in as_completed([pool.submit(_train_job, i)
                                    for i in range(len(jobs))]):
            future.result()
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a training worker died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate_checkpoints(cfg: RunConfig, corpora: dict, tokenizer: Tokenizer,
                         stamp: str) -> dict:
    """category -> GapMatrix over every (train year, test year) pair, in one
    pass: each checkpoint is loaded once, over ``tokenizer``, and released
    before the next. Every checkpoint's header must hold the run's ``stamp``,
    checked before any model is loaded; else a ``DataError``."""
    paths = [(category, year, checkpoint_path(cfg, year, category))
             for category in records.CATEGORIES for year in cfg.years]
    for _, _, path in paths:
        found = checkpoint_stamp(path)
        if found != stamp:
            what = "no checkpoint" if found is None else f"stamp {found}"
            raise records.DataError(
                f"{path}: {what}, but the run's stamp is {stamp}; run "
                "`templink train` with this config and data first")
    models = ((category, year, load_model(path, tokenizer))
              for category, year, path in paths)
    test_sets = {year: (test_m, entities, index)
                 for year, (entities, index, _, test_m) in corpora.items()}
    return temporal_matrix(models, test_sets, tokenizer)


def write_resolved_config(cfg: RunConfig, version: str) -> str:
    """Write ``resolved_config.json``: the config, the version, the input
    data digest and the checkpoint stamp. Returns the stamp."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = data_digest(cfg)
    stamp = cfg.stamp(digest)
    write_json(out / "resolved_config.json", dict(
        asdict(cfg), version=version, data_digest=digest, stamp=stamp))
    return stamp


def run_experiment(cfg: RunConfig, version: str = "0", workers: int = 1):
    """Train per (year, category) in up to ``workers`` processes, evaluate
    all year pairs, return matrices."""
    stamp = write_resolved_config(cfg, version)
    corpora = load_corpora(cfg)
    tokenizer = build_tokenizer(cfg, corpora)
    train_years(cfg, corpora, tokenizer, stamp, workers)
    return evaluate_checkpoints(cfg, corpora, tokenizer, stamp)


def parse_years(spec: str) -> list:
    """Accept "A..B" (inclusive) or a non-empty comma-separated list."""
    spec = spec.strip()
    if ".." in spec:
        a, b = spec.split("..", 1)
        a, b = int(a), int(b)
        if b < a:
            raise ValueError(f"bad year range {spec!r}")
        return list(range(a, b + 1))
    years = [int(y) for y in spec.split(",") if y.strip()]
    if not years:
        raise ValueError(f"no years in {spec!r}")
    return years
