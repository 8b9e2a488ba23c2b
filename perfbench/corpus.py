"""Deterministic synthetic yearly snapshots for the benchmark.

``generate(spec, seed, root)`` writes the canonical TSV layout

    <root>/data/<year>/entities.tsv
    <root>/data/<year>/mentions_train.tsv
    <root>/data/<year>/mentions_test.tsv
    <root>/data/<year>/triples.tsv

plus ``<root>/run.ini``. The same (spec, seed) always gives the same bytes.

Properties the pipeline's cost and results depend on:

* description and context words follow a Zipf law over a word pool, and
  each entity mixes global words with words of its topic, so the kNN graph
  and the feature band have structure;
* triple tails are drawn by a Zipf popularity, so structure-graph degrees
  are skewed;
* every year edits a share of each description and adds new entities, so
  later snapshots drift away from earlier ones;
* every (year, category) has train and test mentions: ``new`` mentions
  name entities that first appear that year (in the first year, the last
  cohort of entities), ``continual`` mentions name the others.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIRST_YEAR = 2015
N_TYPES = 40        # title type words ("entity kind")
N_RELATIONS = 24
N_TOPICS = 40       # topic clusters over the word pool
TOPIC_WORDS = 20    # words in each topic's slice of the pool
EDIT_SHARE = 0.1    # description words replaced per year


@dataclass(frozen=True)
class CorpusSpec:
    years: int               # yearly snapshots
    entities: int            # entities in the first snapshot
    new_share: float         # entities added per year, as a share of `entities`
    words: int               # description/context word pool
    zipf: float              # exponent of the pool's Zipf law
    topic_share: float       # share of an entity's words drawn from its topic
    desc_len: int            # mean description length, in words
    triples_per_entity: float
    train_mentions: int      # per (year, category)
    test_mentions: int       # per (year, category)
    context_len: int         # words on each side of a mention
    # feature band and training schedule written to the run config
    min_count: int
    max_count: int
    epochs: int = 1
    batch_size: int = 32


def _zipf(n: int, s: float = 1.0) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def _token(prefix: str, i: int) -> str:
    digits = "abcdefghijklmnopqrstuvwxyz"
    out = ""
    i += 26
    while i:
        i, r = divmod(i, 26)
        out = digits[r] + out
    return prefix + out


class _Words:
    """Zipf word sampler over the whole pool, mixed with a Zipf draw from the
    topic's own slice of `topic_words` words."""

    def __init__(self, spec: CorpusSpec, rng):
        if N_TOPICS * TOPIC_WORDS > spec.words:
            raise ValueError("topic slices do not fit in the word pool")
        self.rng = rng
        self.spec = spec
        self.pool = np.array([_token("w", i) for i in range(spec.words)])
        self.order = rng.permutation(spec.words)
        self.cdf = np.cumsum(_zipf(spec.words, spec.zipf))
        self.topic_cdf = np.cumsum(_zipf(TOPIC_WORDS, 0.8))

    def draw(self, n: int, topic: int) -> list:
        u = self.rng.random((3, n))
        glob = self.order[np.searchsorted(self.cdf, u[0] * self.cdf[-1])]
        local = topic * TOPIC_WORDS + np.searchsorted(
            self.topic_cdf, u[1] * self.topic_cdf[-1])
        return self.pool[np.where(u[2] < self.spec.topic_share, local, glob)].tolist()


def _write_tsv(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def generate(spec: CorpusSpec, seed: int, root) -> dict:
    """Write the corpus and run config for one workload seed; returns its shape."""
    root = Path(root)
    rng = np.random.Generator(np.random.PCG64(seed))
    words = _Words(spec, rng)
    types = [_token("t", i) for i in range(N_TYPES)]
    type_p = _zipf(N_TYPES)
    per_year_new = max(1, round(spec.new_share * spec.entities))

    # entity j: name token, type word, topic, description words, and a
    # heavy-tailed popularity shared by its train and test mentions
    ents = []
    triples = []

    def add_entities(count):
        for _ in range(count):
            j = len(ents)
            topic = int(rng.integers(N_TOPICS))
            length = max(3, int(rng.poisson(spec.desc_len)))
            ents.append({"qid": f"Q{j + 1}", "name": _token("e", j),
                         "type": types[rng.choice(N_TYPES, p=type_p)],
                         "topic": topic, "desc": words.draw(length, topic),
                         "popularity": 1.0 + rng.pareto(3.0)})
        # new entities link to existing ones; tails follow Zipf popularity
        n = len(ents)
        n_new = round(spec.triples_per_entity * count)
        heads = rng.integers(n - count, n, size=n_new)
        tails = rng.choice(n, size=n_new, p=_zipf(n, 1.1))
        rels = rng.integers(N_RELATIONS, size=n_new)
        triples.extend((f"Q{h + 1}", f"P{r}", f"Q{t + 1}")
                       for h, t, r in zip(heads, tails, rels) if h != t)

    years = [FIRST_YEAR + i for i in range(spec.years)]
    shape = {"years": years, "entities": [], "triples": [], "mentions": {}}
    add_entities(spec.entities)
    for yi, year in enumerate(years):
        if yi:
            add_entities(per_year_new)
            for e in ents:   # description drift
                edit = rng.random(len(e["desc"])) < EDIT_SHARE
                if edit.any():
                    fresh = words.draw(int(edit.sum()), e["topic"])
                    for pos, w in zip(np.flatnonzero(edit), fresh):
                        e["desc"][pos] = w
        d = root / "data" / str(year)
        _write_tsv(d / "entities.tsv",
                   [(e["qid"], f"{e['name']} {e['type']}", " ".join(e["desc"]))
                    for e in ents])
        _write_tsv(d / "triples.tsv", triples)
        first_cohort = len(ents) - per_year_new
        pools = {"continual": ents[:first_cohort], "new": ents[first_cohort:]}
        for split, count in (("train", spec.train_mentions),
                             ("test", spec.test_mentions)):
            rows = []
            for category, pool in pools.items():
                weight = np.array([e["popularity"] for e in pool])
                golds = rng.choice(len(pool), size=count, p=weight / weight.sum())
                for g in golds:
                    e = pool[g]
                    ctx = words.draw(2 * spec.context_len, e["topic"])
                    # half of each context quotes the entity's description
                    quote = rng.choice(e["desc"], size=spec.context_len)
                    ctx[::2] = quote
                    span = e["name"]
                    if rng.random() >= 0.7:
                        span += " " + e["type"]
                    rows.append((e["qid"], category,
                                 " ".join(ctx[:spec.context_len]), span,
                                 " ".join(ctx[spec.context_len:])))
            _write_tsv(d / f"mentions_{split}.tsv", rows)
            shape["mentions"][f"{year}/{split}"] = len(rows)
        shape["entities"].append(len(ents))
        shape["triples"].append(len(triples))
    write_config(spec, root)
    return shape


def write_config(spec: CorpusSpec, root: Path):
    cfg = configparser.ConfigParser()
    cfg["paths"] = {"data_dir": str(root / "data"), "out_dir": str(root / "out")}
    cfg["run"] = {"years": f"{FIRST_YEAR}..{FIRST_YEAR + spec.years - 1}",
                  "mode": "forward_and_backward",
                  "categories": "continual,new"}
    cfg["graphs"] = {"k": 10, "min_count": spec.min_count,
                     "max_count": spec.max_count, "embed_dim": 64}
    cfg["model"] = {"dim": 32, "gcn_hidden": 32, "gcn_out": 32,
                    "gcn_layers": 2, "encoder_mode": "mean",
                    "encoder_layers": 1, "max_len": 64}
    cfg["train"] = {"learning_rate": 0.02, "epochs": spec.epochs,
                    "batch_size": spec.batch_size, "gram_sample": 2048}
    with (root / "run.ini").open("w", encoding="utf-8") as fh:
        cfg.write(fh)


def self_check(spec: CorpusSpec, root) -> dict:
    """Load the corpus with the package's own loaders; every gold qid must
    resolve and every year must keep feature-band columns."""
    from templink import records
    from templink.textenc import split_text

    root = Path(root)
    vocab = set()
    cols = []
    for i in range(spec.years):
        d = root / "data" / str(FIRST_YEAR + i)
        entities = records.load_entities(d / "entities.tsv", FIRST_YEAR + i)
        index = records.build_entity_index(entities)
        for split in ("train", "test"):
            mentions = records.load_mentions(d / f"mentions_{split}.tsv",
                                             FIRST_YEAR + i)
            _, dropped = records.filter_mentions(mentions, index)
            if dropped:
                raise ValueError(f"{d}: {dropped} {split} gold qids do not resolve")
            for cat in records.CATEGORIES:
                if not any(m.category == cat for m in mentions):
                    raise ValueError(f"{d}: no {cat} {split} mentions")
            for m in mentions:
                vocab.update(split_text(m.context_left + " " + m.mention
                                        + " " + m.context_right))
        records.load_triples(d / "triples.tsv")
        counts = {}
        for e in entities:
            vocab.update(split_text(e.title))
            for t in split_text(e.description):
                counts[t] = counts.get(t, 0) + 1
        vocab.update(counts)
        kept = sum(spec.min_count <= c <= spec.max_count for c in counts.values())
        if not kept:
            raise ValueError(f"{d}: feature band keeps no columns")
        cols.append(kept)
    return {"vocab": len(vocab), "feature_cols": cols}
