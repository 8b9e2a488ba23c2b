import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import bundled_results_path, complete
from templink import evaluate
from templink.evaluate import (RECALL_NS, GapMatrix, RecallReport,
                               _gold_ranks, aggregate_gap, average_boost,
                               boost, gold_rank, recall_at,
                               recall_report, temporal_matrix)
from templink.model import Model, ModelConfig
from templink.records import EntityIndex, EntityRecord, MentionRecord
from templink.reporting import (BaselineFormatError, load_baseline_csv,
                                load_results_table, printed_average_boost,
                                recompute_boost, write_aggregate_csv, write_boost_csv,
                                write_gap_matrix_csv, write_recall_vs_gap_plot)
from templink.textenc import CLS, Tokenizer


def oracle_rank(y, table, gold_row: int) -> int:
    """1-based position of ``gold_row`` when the rows are sorted by
    (-score, index), scores taken in float64."""
    scores = np.asarray(table, dtype=np.float64) @ np.asarray(
        y, dtype=np.float64).ravel()
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(gold_row) + 1


class TestRanking:
    def test_descending_order(self):
        table = np.array([[1.0], [3.0], [2.0]])
        assert [gold_rank(np.array([1.0]), table, r)
                for r in range(3)] == [3, 1, 2]

    def test_tie_prefers_lower_index(self):
        table = np.array([[2.0], [2.0], [3.0], [2.0]])
        assert [gold_rank(np.array([1.0]), table, r)
                for r in range(4)] == [2, 3, 1, 4]

    def test_empty_table(self):
        with pytest.raises(ValueError):
            gold_rank(np.array([1.0]), np.zeros((0, 1)), 0)

    def test_gold_rank(self):
        table = np.array([[1.0], [3.0], [2.0]])
        assert gold_rank(np.array([1.0]), table, gold_row=1) == 1
        assert gold_rank(np.array([1.0]), table, gold_row=0) == 3

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            if trial < 50:
                table = rng.normal(size=(20, 5))
                y = rng.normal(size=5)
            else:  # tie-heavy: a handful of distinct small-integer scores
                table = rng.integers(-1, 2, size=(20, 5)).astype(np.float64)
                y = rng.integers(0, 2, size=5).astype(np.float64)
            for row in range(20):
                assert gold_rank(y, table, row) == oracle_rank(y, table, row)
            got = _gold_ranks(np.tile(y, (20, 1)), table, range(20))
            assert got.dtype == np.int64 and got.tolist() == [
                oracle_rank(y, table, row) for row in range(20)]


class TestRecall:
    def test_counting(self):
        ranks = [1, 3, 70]
        assert recall_at(ranks, 1) == pytest.approx(1 / 3)
        assert recall_at(ranks, 2) == pytest.approx(1 / 3)
        assert recall_at(ranks, 4) == pytest.approx(2 / 3)
        assert recall_at(ranks, 64) == pytest.approx(2 / 3)
        assert recall_at(ranks, 70) == 1.0

    def test_empty(self):
        assert recall_at([], 8) == 0.0

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing_in_n(self, ranks):
        values = [recall_at(ranks, n) for n in RECALL_NS]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_report_fields(self):
        rep = recall_report([1, 2, 9], 2019, 2021)
        assert rep.mention_count == 3
        assert rep.recall[1] == pytest.approx(1 / 3)
        assert rep.recall[8] == pytest.approx(2 / 3)
        assert set(rep.recall) == set(RECALL_NS)

    @given(st.lists(st.integers(1, 200), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_report_of_rank_array(self, ranks):
        # the int64 array a cell's ranking returns gives the recalls of the
        # rank list, and an empty cell recalls 0
        got = recall_report(np.array(ranks, dtype=np.int64), 2019, 2020)
        assert got == recall_report(ranks, 2019, 2020)
        assert got.recall == {n: recall_at(ranks, n) for n in RECALL_NS}

    def test_report_range_validation(self):
        with pytest.raises(ValueError):
            RecallReport(2019, 2019, 1, recall={1: 1.5})


def report_for(t1, t2, value, count=10):
    return RecallReport(t1, t2, count, {n: value for n in RECALL_NS})


def matrix_2019_2022():
    """Synthetic 4x4 matrix: recall = 0.9 - 0.1*|t2-t1| - 0.02*(t2<t1)."""
    years = [2019, 2020, 2021, 2022]
    m = GapMatrix(years=years)
    for t1 in years:
        for t2 in years:
            v = 0.9 - 0.1 * abs(t2 - t1) - (0.02 if t2 < t1 else 0.0)
            m.cells[(t1, t2)] = report_for(t1, t2, v)
    return m


class TestAggregate:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            aggregate_gap(matrix_2019_2022(), "backward_only")

    def test_forward_only(self):
        agg = aggregate_gap(matrix_2019_2022(), "forward_only")
        assert sorted(agg) == [0, 1, 2, 3]
        assert agg[0][1] == pytest.approx(0.9)
        assert agg[1][1] == pytest.approx(0.8)
        # gap 3 forward_only has exactly one cell: 2019 -> 2022
        assert agg[3][1] == pytest.approx(0.6)

    def test_forward_and_backward(self):
        agg = aggregate_gap(matrix_2019_2022(), "forward_and_backward")
        # gap 3 averages the two directed cells (0.6 and 0.58)
        assert agg[3][1] == pytest.approx(0.59)
        assert agg[0][1] == pytest.approx(0.9)

    def test_diagonal_identical_across_modes(self):
        m = matrix_2019_2022()
        fwd = aggregate_gap(m, "forward_only")
        both = aggregate_gap(m, "forward_and_backward")
        assert fwd[0] == both[0]

    def test_complete(self):
        m = matrix_2019_2022()
        assert complete(m)
        del m.cells[(2019, 2022)]
        assert not complete(m)


class TestBoost:
    def test_relative_percent(self):
        assert boost(60.0, 50.0) == pytest.approx(20.0)
        assert boost(45.0, 50.0) == pytest.approx(-10.0)

    def test_zero_baseline(self):
        assert boost(10.0, 0.0) is None
        assert boost(10.0, -1.0) is None

    def test_average_skips_undefined(self):
        assert average_boost([10.0, None, 20.0]) == pytest.approx(15.0)

    def test_average_all_undefined(self):
        with pytest.raises(ValueError):
            average_boost([None, None])


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


TOK = Tokenizer.build([" ".join(WORDS)], max_len=16)


def year_model(seed):
    cfg = ModelConfig(dim=6, gcn_hidden=4, gcn_out=3, gcn_layers=1, max_len=16)
    return Model(TOK, feature_dim=3, config=cfg, seed=seed)


def year_test_set(year):
    entities = [EntityRecord(f"Q{year}{i}", w, f"{w} thing", year)
                for i, w in enumerate(["alpha", "beta", "gamma"])]
    mentions = [MentionRecord("", w, "", f"Q{year}{i}", "new", year)
                for i, w in enumerate(["alpha", "beta"])]
    return mentions, entities, EntityIndex([e.qid for e in entities])


def evaluate_mentions(model, mentions, entities, index, table=None):
    """One cell ranked per model: gold ranks of the mentions whose gold qid
    ``index`` resolves, against ``table`` (the model's text table by
    default)."""
    if table is None:
        table = model.entity_table(entities)
    kept = [m for m in mentions if m.gold_qid in index]
    seqs = [model.tokenizer.render_mention(m) for m in kept]
    return _gold_ranks(model.encode_mentions(seqs).data, table,
                       [index.row(m.gold_qid) for m in kept]).tolist()


class TestTemporalMatrix:
    def test_full_grid(self):
        models = {y: year_model(y) for y in (2019, 2020)}
        tests = {y: year_test_set(y) for y in (2019, 2020)}
        matrix = temporal_matrix(
            [(0, y, m) for y, m in models.items()], tests, TOK)[0]
        assert matrix.years == [2019, 2020]
        assert complete(matrix)
        for (t1, t2), rep in matrix.cells.items():
            assert rep.mention_count == 2
            assert rep.train_year == t1 and rep.test_year == t2

    def test_entities_rendered_once_per_test_year(self, monkeypatch):
        calls = []
        render = Tokenizer.render_entity
        monkeypatch.setattr(Tokenizer, "render_entity",
                            lambda tok, e: calls.append(e.qid) or render(tok, e))
        models = {y: year_model(y) for y in (2019, 2020, 2021)}
        tests = {y: year_test_set(y) for y in (2019, 2020, 2021)}
        temporal_matrix([(0, y, m) for y, m in models.items()], tests, TOK)
        assert sorted(calls) == sorted(e.qid for _, ents, _ in tests.values()
                                       for e in ents)

    def test_mentions_rendered_once_per_test_year(self, monkeypatch):
        calls = []
        render = Tokenizer.render_mention
        monkeypatch.setattr(Tokenizer, "render_mention",
                            lambda tok, m: calls.append(m.gold_qid) or render(tok, m))
        models = {y: year_model(y) for y in (2019, 2020, 2021)}
        tests = {}
        for y in (2019, 2020, 2021):
            mentions, entities, index = year_test_set(y)
            stray = MentionRecord("", "alpha", "", "Q404", "new", y)
            tests[y] = (mentions + [stray], entities, index)
        matrix = temporal_matrix(
            [(0, y, m) for y, m in models.items()], tests, TOK)[0]
        assert sorted(calls) == sorted(m.gold_qid for ms, _, _ in tests.values()
                                       for m in ms if m.gold_qid != "Q404")
        assert all(rep.mention_count == 2 for rep in matrix.cells.values())

    def test_keys_share_renderings_and_one_model_is_alive(self, monkeypatch):
        calls = []
        render = Tokenizer.render_entity
        monkeypatch.setattr(Tokenizer, "render_entity",
                            lambda tok, e: calls.append(e.qid) or render(tok, e))
        years = (2019, 2020)
        tests = {y: year_test_set(y) for y in years}
        released = []

        def models():
            refs = []
            for key in ("continual", "new"):
                for y in years:
                    released.append(all(r() is None for r in refs))
                    model = year_model(y)
                    refs.append(weakref.ref(model))
                    yield key, y, model
                    del model

        matrices = temporal_matrix(models(), tests, TOK)
        assert all(released)
        assert sorted(calls) == sorted(e.qid for _, ents, _ in tests.values()
                                       for e in ents)
        assert sorted(matrices) == ["continual", "new"]
        want = temporal_matrix([(0, y, year_model(y)) for y in years], tests,
                               TOK)[0]
        for matrix in matrices.values():
            assert complete(matrix) and matrix.cells == want.cells

    def test_unresolvable_gold_skipped(self):
        model = year_model(0)
        mentions, entities, index = year_test_set(2019)
        stray = MentionRecord("", "alpha", "", "Q404", "new", 2019)
        ranks = evaluate_mentions(model, mentions + [stray], entities, index)
        assert len(ranks) == 2
        matrix = temporal_matrix(
            [(0, 2019, model)], {2019: (mentions + [stray], entities, index)},
            TOK)[0]
        assert matrix.cell(2019, 2019) == recall_report(ranks, 2019, 2019)

    def test_matrix_uses_text_table(self):
        model = year_model(1)
        mentions, entities, index = year_test_set(2019)
        table = model.entity_table(entities)
        direct = evaluate_mentions(model, mentions, entities, index, table)
        matrix = temporal_matrix([(0, 2019, model)],
                                 {2019: (mentions, entities, index)}, TOK)[0]
        assert matrix.cell(2019, 2019) == recall_report(direct, 2019, 2019)


class ScriptedTokenizer(Tokenizer):
    """Renders a record as the ids written in its text, so a test chooses
    which sequences repeat, within a year and across years."""

    def render_entity(self, entity_record):
        return [int(t) for t in entity_record.description.split()]

    def render_mention(self, mention_record):
        return [int(t) for t in mention_record.mention.split()]


def scripted_test_sets(years):
    """year -> (mentions, entities, index) whose sequences of 1 to
    ``max_len`` 16 ids repeat across years and within a year."""
    rng = np.random.default_rng(14)

    def seqs(n):
        return [rng.integers(1, TOK.vocab_size, size=rng.integers(1, 17))
                .tolist() for _ in range(n)]

    entity_pool = ([[CLS], list(range(1, 13)) + [12, 11, 10, 9], [7, 8, 9]]
                   + seqs(6))
    mention_pool = [[CLS], [1], [9, 10] * 8, [11, 12]] + seqs(6)
    sets = {}
    for year in years:
        picks = [0, 1, 2, 2, *rng.integers(0, len(entity_pool), size=6)]
        entities = [EntityRecord(f"Q{year}_{i}", "", " ".join(
            map(str, entity_pool[k])), year) for i, k in enumerate(picks)]
        picks = [0, 1, 2, 3, 3, *rng.integers(0, len(mention_pool), size=9)]
        mentions = [MentionRecord("", " ".join(map(str, mention_pool[k])), "",
                                  entities[rng.integers(len(entities))].qid,
                                  "new", year) for k in picks]
        mentions.append(MentionRecord("", "7 8", "", "Q404", "new", year))
        sets[year] = (mentions, entities,
                      EntityIndex([e.qid for e in entities]))
    return sets


def per_cell_matrix(models, test_sets_by_year, tokenizer):
    """``temporal_matrix`` as each cell was once scored: the train-year
    model encodes the test year's sequences for that cell alone."""
    years = sorted(test_sets_by_year)
    matrices = {}
    for key, t1, model in models:
        matrix = matrices.setdefault(key, GapMatrix(years=years))
        for t2 in years:
            mentions, entities, index = test_sets_by_year[t2]
            kept = [m for m in mentions if m.gold_qid in index]
            gold = np.array([index.row(m.gold_qid) for m in kept],
                            dtype=np.int64)
            table = model.encode_entities(
                [tokenizer.render_entity(e) for e in entities]).data
            y_m = model.encode_mentions(
                [tokenizer.render_mention(m) for m in kept]).data
            matrix.cells[(t1, t2)] = recall_report(
                evaluate._gold_ranks(y_m, table, gold), t1, t2)
    return matrices


class TestOnePassPerModel:
    def test_matches_per_cell_encoding(self, monkeypatch):
        years = (2019, 2020, 2021)
        tok = ScriptedTokenizer(TOK.vocab, max_len=16)
        tests = scripted_test_sets(years)
        entity_seqs = [tok.render_entity(e) for _, ents, _ in tests.values()
                       for e in ents]
        assert len({tuple(s) for s in entity_seqs}) < len(entity_seqs)
        models = [(key, y, Model(tok, feature_dim=3, config=ModelConfig(
                      dim=6, gcn_hidden=4, gcn_out=3, gcn_layers=1,
                      max_len=16), seed=seed))
                  for seed, (key, y) in enumerate(
                      (key, y) for key in ("continual", "new") for y in years)]
        ranked = {}
        rank = evaluate._gold_ranks
        for name, run in (("one_pass", temporal_matrix),
                          ("per_cell", per_cell_matrix)):
            calls = ranked[name] = []
            monkeypatch.setattr(evaluate, "_gold_ranks", lambda y, t, g: (
                calls.append([(a.dtype, a.shape, a.tobytes()) for a in (y, t, g)])
                or rank(y, t, g)))
            ranked[name + "_matrices"] = run(models, tests, tok)
        assert ranked["one_pass"] == ranked["per_cell"]
        assert len(ranked["one_pass"]) == 2 * 3 * 3
        assert ranked["one_pass_matrices"] == ranked["per_cell_matrices"]


class TestBatchedRanks:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ranks_match_gold_rank(self, data):
        # duplicate table rows give exact ties; gold -1 is an unresolvable qid
        seed = data.draw(st.integers(0, 2 ** 16))
        n_distinct = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.integers(0, n_distinct - 1),
                                  min_size=1, max_size=12))
        golds = data.draw(st.lists(st.integers(-1, len(rows) - 1), max_size=10))
        words = data.draw(st.lists(st.sampled_from(WORDS), min_size=len(golds),
                                   max_size=len(golds)))
        block = data.draw(st.sampled_from([1, 7, 1 << 20]))
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(n_distinct, 6)).astype(np.float32)[rows]
        model = year_model(seed % 3)
        entities = [EntityRecord(f"Q{i}", "", "", 2020) for i in range(len(rows))]
        index = EntityIndex([e.qid for e in entities])
        mentions = [MentionRecord(w, WORDS[g % len(WORDS)], "",
                                  f"Q{g}" if g >= 0 else "Q404", "new", 2020)
                    for g, w in zip(golds, words)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "SCORE_BLOCK", block)
            got = evaluate_mentions(model, mentions, entities, index, table)
        encode = model.mention_encoder.encode_ids
        want = [oracle_rank(encode(model.tokenizer.render_mention(m)),
                            table, index.row(m.gold_qid))
                for m in mentions if m.gold_qid in index]
        assert got == want


class TestResultsTable:
    def test_bundled_table_loads(self):
        table = load_results_table(bundled_results_path())
        assert {"BLINK", "SpEL", "TIGER", "Boost"} <= set(table)
        # every recall grid is fully populated
        for model in ("BLINK", "SpEL", "TIGER"):
            keys = [k for k in table[model] if k[0] != "ave"]
            assert len(keys) == 7 * 4 * 2

    def test_printed_average_rows_match_bundled(self):
        table = load_results_table(bundled_results_path())
        averages = printed_average_boost(table)
        for (cat, gap), value in averages.items():
            printed = table["AveBoost"][("ave", gap, cat)]
            assert value == pytest.approx(printed, abs=0.01)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(BaselineFormatError):
            load_results_table(p)

    def test_bad_value_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("metric,gap,category,model,value\n"
                     "1,0,new,TIGER,oops\n")
        with pytest.raises(BaselineFormatError, match=":2"):
            load_results_table(p)

    def test_recompute_boost_synthetic(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["metric,gap,category,model,value"]
        for n in RECALL_NS:
            rows.append(f"{n},0,new,SpEL,50.0")
            rows.append(f"{n},0,new,TIGER,60.0")
        p.write_text("\n".join(rows) + "\n")
        cells, averages = recompute_boost(load_results_table(p))
        assert all(v == pytest.approx(20.0) for v in cells.values())
        assert averages[("new", 0)] == pytest.approx(20.0)

    def test_baseline_csv(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("metric,gap,category,value\n1,0,new,37.5\n")
        assert load_baseline_csv(p) == {(1, 0, "new"): 37.5}
        bad = tmp_path / "bad.csv"
        bad.write_text("metric,gap,value\n")
        with pytest.raises(BaselineFormatError):
            load_baseline_csv(bad)


class TestCsvWriters:
    def test_gap_matrix_csv(self, tmp_path):
        m = matrix_2019_2022()
        write_gap_matrix_csv(m, tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0].startswith("train_year,test_year,mentions,recall@1")
        assert len(lines) == 1 + 16
        first = lines[1].split(",")
        assert first[:3] == ["2019", "2019", "10"]
        assert float(first[3]) == pytest.approx(0.9)

    def test_aggregate_csv_bit_stable(self, tmp_path):
        m = matrix_2019_2022()
        write_aggregate_csv(m, tmp_path / "a.csv")
        write_aggregate_csv(m, tmp_path / "b.csv")
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 4  # both modes, gaps 0..3

    def test_boost_csv(self, tmp_path):
        m = matrix_2019_2022()
        baseline = {(n, g, "new"): 0.5 for n in RECALL_NS for g in range(4)}
        write_boost_csv(m, baseline, "new", tmp_path / "b.csv")
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 7
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["ours"]) == pytest.approx(0.9)
        assert float(row["boost_percent"]) == pytest.approx(80.0)
        assert float(row["delta_points"]) == pytest.approx(40.0)


class TestSvg:
    def test_parses_and_stable(self, tmp_path):
        two_years = GapMatrix(years=[2019, 2020])
        for t1 in two_years.years:
            for t2 in two_years.years:
                two_years.cells[(t1, t2)] = report_for(
                    t1, t2, 0.75 if t1 == t2 else 0.6)
        matrices = {"continual": matrix_2019_2022(), "new": two_years}
        write_recall_vs_gap_plot(matrices, tmp_path / "p.svg")
        write_recall_vs_gap_plot(matrices, tmp_path / "q.svg")
        assert ((tmp_path / "p.svg").read_bytes()
                == (tmp_path / "q.svg").read_bytes())
        root = ET.parse(tmp_path / "p.svg").getroot()
        polylines = [e for e in root.iter()
                     if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_recall_vs_gap_plot({}, tmp_path / "p.svg")

    def test_recall_vs_gap_plot(self, tmp_path):
        m = matrix_2019_2022()
        write_recall_vs_gap_plot({"continual": m, "new": m},
                                 tmp_path / "r.svg")
        root = ET.parse(tmp_path / "r.svg").getroot()
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_matches_golden(self, tmp_path):
        m = matrix_2019_2022()
        write_recall_vs_gap_plot({"continual": m, "new": m},
                                 tmp_path / "r.svg")
        golden = Path(__file__).parent / "golden" / "recall_vs_gap.svg"
        assert (tmp_path / "r.svg").read_bytes() == golden.read_bytes()
