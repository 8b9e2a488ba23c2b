"""Candidate ranking, recall@N, temporal gap matrices and boost arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape

RECALL_NS = (1, 2, 4, 8, 16, 32, 64)
SCORE_BLOCK = 1 << 20  # mention-entity scores held at once while ranking
MODES = ("forward_only", "forward_and_backward")  # gap aggregation directions


@dataclass
class RecallReport:
    train_year: int
    test_year: int
    mention_count: int
    recall: dict = field(default_factory=dict)  # N -> value in [0, 1]

    def __post_init__(self):
        for n in sorted(self.recall):
            v = self.recall[n]
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"recall@{n}={v} outside [0,1]")


@dataclass
class GapMatrix:
    years: list
    cells: dict = field(default_factory=dict)  # (train_year, test_year) -> report

    def cell(self, t1, t2) -> RecallReport:
        return self.cells[(t1, t2)]


def recall_at(ranks, n: int) -> float:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float((ranks <= n).mean())


def recall_report(ranks, train_year, test_year) -> RecallReport:
    """The cell's recall at every N of ``RECALL_NS``, from one rank array."""
    ranks = np.asarray(ranks)
    return RecallReport(train_year=train_year, test_year=test_year,
                        mention_count=len(ranks),
                        recall={n: recall_at(ranks, n) for n in RECALL_NS})


def _gold_ranks(y_m, table, gold) -> np.ndarray:
    """int64 array of the 1-based rank of row ``gold[i]`` of ``table`` for
    the mention encoded as ``y_m[i]``: by descending float64 dot product,
    ties broken by lower row index, scoring at most ``SCORE_BLOCK`` pairs at
    a time."""
    y_m, table = y_m.astype(np.float64), table.astype(np.float64)
    gold = np.asarray(gold, dtype=np.int64)[:, None]
    cols = np.arange(len(table))
    step = max(1, SCORE_BLOCK // max(1, len(table)))
    ranks = np.empty(len(gold), dtype=np.int64)
    for lo in range(0, len(gold), step):
        s, g = y_m[lo:lo + step] @ table.T, gold[lo:lo + step]
        s_gold = np.take_along_axis(s, g, axis=1)
        mask = s > s_gold
        ahead = np.count_nonzero(mask, axis=1)
        np.equal(s, s_gold, out=mask)   # ties, counted left of gold only
        mask &= cols < g
        ahead += np.count_nonzero(mask, axis=1)
        ranks[lo:lo + step] = ahead + 1
    return ranks


def gold_rank(y_m, table, gold_row: int) -> int:
    """``_gold_ranks`` of one mention encoding ``y_m``."""
    if len(table) == 0:
        raise ValueError("empty entity table")
    return int(_gold_ranks(np.asarray(y_m).reshape(1, -1), table, [gold_row])[0])


def temporal_matrix(models, test_sets_by_year: dict, tokenizer) -> dict:
    """Evaluate every (train year, test year) pair of each model group.

    ``models`` yields (key, train year, model), all built over ``tokenizer``
    and its ``max_len``; each model is dropped before the next is drawn, so
    a lazy iterable keeps at most one alive. ``test_sets_by_year[year]`` is
    (mentions, entities, index), rendered once with ``tokenizer``. The
    entity table for each pair is the train-year model's text encoding of
    the test year's entities.

    The distinct entity and mention sequences of all test years are packed
    into bags once; each model encodes each set in one pass, and a cell
    takes its rows. A row depends on its own sequence alone, so every cell
    ranks the arrays an encoding of its test year alone would give.
    Returns key -> GapMatrix over the test years.
    """
    years = sorted(test_sets_by_year)
    distinct = ({}, {})  # entity, mention sequence -> row of its encoding
    rows, gold = {}, {}  # test year -> (entity, kept mention) rows, gold rows
    for t2, (mentions, entities, index) in test_sets_by_year.items():
        kept = [m for m in mentions if m.gold_qid in index]
        gold[t2] = np.array([index.row(m.gold_qid) for m in kept],
                            dtype=np.int64)
        seqs = ([tokenizer.render_entity(e) for e in entities],
                [tokenizer.render_mention(m) for m in kept])
        rows[t2] = tuple(
            np.array([row_of.setdefault(tuple(s), len(row_of)) for s in ss],
                     dtype=np.intp)
            for row_of, ss in zip(distinct, seqs))
    entity_bags, mention_bags = (tape.Bags(list(row_of)) for row_of in distinct)
    matrices = {}
    for key, t1, model in models:
        matrix = matrices.setdefault(key, GapMatrix(years=years))
        table = model.entity_encoder.encode(entity_bags).data
        y_m = model.mention_encoder.encode(mention_bags).data
        for t2 in years:
            entity_rows, mention_rows = rows[t2]
            matrix.cells[(t1, t2)] = recall_report(
                _gold_ranks(y_m[mention_rows], table[entity_rows], gold[t2]),
                t1, t2)
        del model
    return matrices


def aggregate_gap(matrix: GapMatrix, mode: str) -> dict:
    """Per-gap unweighted mean recall over the selected direction(s).

    forward_only averages cells with test year > train year (gap 0 is the
    diagonal in both modes); forward_and_backward averages both directions.
    """
    if mode not in MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    out = {}
    gaps = sorted({abs(t2 - t1) for t1 in matrix.years for t2 in matrix.years})
    for gap in gaps:
        cells = []
        for t1 in matrix.years:
            for t2 in matrix.years:
                if abs(t2 - t1) != gap:
                    continue
                if mode == "forward_only" and t2 < t1:
                    continue
                cells.append(matrix.cell(t1, t2))
        out[gap] = {n: float(np.mean([c.recall[n] for c in cells]))
                    for n in RECALL_NS}
    return out


def boost(ours: float, baseline: float):
    """Relative improvement in percent; None where the baseline is not positive."""
    if baseline <= 0:
        return None
    return 100.0 * (ours - baseline) / baseline


def average_boost(boosts) -> float:
    values = [b for b in boosts if b is not None]
    if not values:
        raise ValueError("no defined boost values to average")
    return float(np.mean(values))
