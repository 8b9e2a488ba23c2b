"""End-to-end acceptance checks, one test per criterion.

Each test records a single ``criterion N: PASS/FAIL`` line that the
terminal-summary hook in conftest echoes after the run, alongside the
usual pytest verdicts.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from checks import bundled_results_path, check_gradients, complete
from fixtures import write_pair_dataset, write_toy_dataset
from templink import records, tape
from templink.evaluate import RECALL_NS, _gold_ranks, aggregate_gap, recall_at
from templink.graphs import AdjacencyMatrix, sym_normalize
from templink.model import (Model, ModelConfig, consistency_loss,
                            distinct_loss, total_loss)
from templink.pipeline import (RunConfig, build_tokenizer, load_corpora,
                               make_snapshots, run_experiment)
from templink.records import EntityRecord, MentionRecord
from templink.reporting import (load_results_table, printed_average_boost,
                                recompute_boost, write_aggregate_csv,
                                write_gap_matrix_csv)
from templink.textenc import Tokenizer
from templink.trainer import TrainConfig, train

GOLDEN = Path(__file__).parent / "golden"

PRINTED_AVE_BOOST = {
    ("continual", 0): 16.88, ("continual", 1): 16.24,
    ("continual", 2): 17.40, ("continual", 3): 20.93,
    ("new", 0): 10.89, ("new", 1): 12.39,
    ("new", 2): 10.16, ("new", 3): 13.89,
}


def announce(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_results_table_arithmetic():
    start = time.monotonic()
    table = load_results_table(bundled_results_path())
    cells, _ = recompute_boost(table)
    printed = table["Boost"]
    worst_cell = 0.0
    for key, recomputed in cells.items():
        worst_cell = max(worst_cell, abs(recomputed - printed[key]))
    averages = printed_average_boost(table)
    worst_ave = max(abs(averages[k] - PRINTED_AVE_BOOST[k])
                    for k in PRINTED_AVE_BOOST)
    elapsed = time.monotonic() - start
    ok = (len(cells) == 7 * 4 * 2 and worst_cell <= 0.5
          and worst_ave <= 0.01 and elapsed < 1.0)
    announce(1, ok, f"boost cells within {worst_cell:.3f} pp (<=0.5), "
                    f"ave rows within {worst_ave:.4f} pp (<=0.01), "
                    f"{elapsed:.2f}s")


def centering_matrix(n):
    """R = I - (1/n) e e^T."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def hsic_trace_oracle(z1, z2):
    n = z1.shape[0]
    r = centering_matrix(n)
    return (n - 1.0) ** -2 * np.trace(r @ (z1 @ z1.T) @ r @ (z2 @ z2.T))


def test_criterion_2_hsic_oracle():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z1 = rng.normal(size=(6, 3))
        z2 = rng.normal(size=(6, 4))
        got = float(tape.hsic(tape.const(z1), tape.const(z2)).data)
        sym = float(tape.hsic(tape.const(z2), tape.const(z1)).data)
        worst = max(worst, abs(got - hsic_trace_oracle(z1, z2)))
        ok = ok and np.isclose(got, sym) and got >= 0.0
    elapsed = time.monotonic() - start
    ok = ok and worst <= 1e-10 and elapsed < 1.0
    announce(2, ok, f"100 pairs, max |factorized - trace| = {worst:.2e} "
                    f"(<=1e-10), symmetric and non-negative, {elapsed:.2f}s")


def joint_forward_fixture():
    """Tiny end-to-end forward with float64 parameters for FD checking."""
    words = ["ant", "bee", "cow", "dog", "elk", "fox"]
    entities = [EntityRecord(f"Q{i}", w, f"{w} animal entry", 2020)
                for i, w in enumerate(words)]
    mentions = [MentionRecord("the small", w, "was seen", f"Q{i}", "new", 2020)
                for i, w in enumerate(words[:3])]
    tok = Tokenizer.build([e.title + " " + e.description for e in entities]
                          + [m.context_left + " " + m.mention + " "
                             + m.context_right for m in mentions], max_len=12)
    cfg = ModelConfig(dim=4, gcn_hidden=4, gcn_out=3, gcn_layers=2, max_len=12)
    model = Model(tok, feature_dim=3, config=cfg, seed=0)
    for p in model.params.values():
        p.data = p.data.astype(np.float64)
    s_r = sym_normalize(AdjacencyMatrix(n=6, edges=[(0, 1), (1, 2), (3, 4)]))
    s_f = sym_normalize(AdjacencyMatrix(n=6, edges=[(0, 3), (2, 5), (1, 4)]))
    x = np.zeros((6, 3))
    x[[0, 1, 2, 3, 4, 5], [0, 1, 2, 0, 1, 2]] = 1.0
    x[[0, 3], 1] = 1.0
    return model, mentions, entities, s_r, s_f, x


def test_criterion_3_gradient_suite():
    start = time.monotonic()
    model, mentions, entities, s_r, s_f, x = joint_forward_fixture()
    params = list(model.params.values())
    gold_rows = [0, 1, 2]
    m_seqs = [model.tokenizer.render_mention(m) for m in mentions]
    e_seqs = [model.tokenizer.render_entity(e) for e in entities[:3]]

    def gcn():
        return model.gcn.forward(s_f, s_r, tape.const(x))

    def loss_el():
        y_m = model.encode_mentions(m_seqs)
        y_e = model.encode_entities(e_seqs)
        z_f, z_r, z_sf, z_sr = gcn()
        fused = model.fusion.fuse(y_e, z_f, z_r, z_sf, z_sr, gold_rows)
        return tape.el_loss(tape.matmul(y_m, tape.transpose(fused)))

    def loss_s():
        _, _, z_sf, z_sr = gcn()
        return consistency_loss(z_sr, z_sf)

    def loss_dr():
        _, z_r, _, z_sr = gcn()
        return tape.hsic(z_r, z_sr)

    def loss_df():
        z_f, _, z_sf, _ = gcn()
        return tape.hsic(z_f, z_sf)

    def loss_total():
        y_m = model.encode_mentions(m_seqs)
        y_e = model.encode_entities(e_seqs)
        z_f, z_r, z_sf, z_sr = gcn()
        fused = model.fusion.fuse(y_e, z_f, z_r, z_sf, z_sr, gold_rows)
        l_e = tape.el_loss(tape.matmul(y_m, tape.transpose(fused)))
        l_s = consistency_loss(z_sr, z_sf)
        l_d = distinct_loss(z_r, z_sr, z_f, z_sf)
        defaults = TrainConfig()
        return total_loss(l_e, l_s, l_d, defaults.loss_a, defaults.loss_b)

    worst = 0.0
    ok = True
    details = []
    for name, fn in [("L_e", loss_el), ("L_s", loss_s), ("L_dr", loss_dr),
                     ("L_df", loss_df), ("total", loss_total)]:
        report = check_gradients(fn, params, eps=1e-3, tol=1e-4)
        worst = max(worst, report["max_rel_err"])
        ok = ok and report["ok"]
        if not report["ok"]:
            details.append(f"{name}: {report['failures'][:2]}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    announce(3, ok, f"5 loss terms x {len(params)} tensors, "
                    f"max relative error {worst:.2e} (<1e-4), {elapsed:.1f}s"
                    + ("; " + "; ".join(details) if details else ""))


def test_criterion_4_degenerate_identities():
    # batch of one: in-batch softmax loss is exactly zero
    single = float(tape.el_loss(tape.const(np.array([[3.7]]))).data) == 0.0

    # identical adjacencies: shared-stack outputs agree bit for bit
    model, _, _, s_r, _, x = joint_forward_fixture()
    _, _, z_sf, z_sr = model.gcn.forward(s_r, s_r, tape.const(x))
    shared = np.array_equal(z_sf.data, z_sr.data)

    # orthogonal right-rotation leaves the gram matrix unchanged
    z = np.random.default_rng(0).normal(size=(5, 3))
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))
    rotated = float(consistency_loss(tape.const(z), tape.const(z @ q)).data)

    # constant rows are annihilated by centering
    c1 = np.ones((6, 3)) * 2.5
    c2 = np.ones((6, 4)) * -7.0
    hsic_const = float(tape.hsic(tape.const(c1), tape.const(c2)).data)

    ok = single and shared and abs(rotated) < 1e-24 and abs(hsic_const) < 1e-24
    announce(4, ok, f"batch-1 loss {0.0}, shared-stack bit-equality {shared}, "
                    f"rotated consistency {rotated:.1e}, "
                    f"constant-row dependence {hsic_const:.1e}")


def test_criterion_5_graph_construction_golden(tmp_path):
    data = write_toy_dataset(tmp_path / "data", years=(2019,))
    cfg = RunConfig(data_dir=str(data), out_dir=str(tmp_path / "out"),
                    years=[2019], k=3, min_count=2, max_count=5,
                    embed_dim=16, seed=0)
    corpora = load_corpora(cfg)
    tok = build_tokenizer(cfg, corpora)
    list(make_snapshots(cfg, corpora, [2019], tok, stamp="s"))
    mismatches = []
    for name in ("structure.adj", "feature.adj", "feature.mat",
                 "feature.mat.cols"):
        got = (tmp_path / "out" / "graphs" / "2019" / name).read_bytes()
        if got != (GOLDEN / name).read_bytes():
            mismatches.append(name)
    announce(5, not mismatches,
             "toy snapshot artifacts byte-identical to independent golden "
             "files" + (f"; mismatched: {mismatches}" if mismatches else ""))


def fused_entity_table(model, snapshot) -> np.ndarray:
    """Training-time scoring table: text embedding plus projected GCN
    embeddings of every snapshot entity (same-snapshot diagnostic; no
    command scores through it)."""
    snapshot.prepare()
    y_e = model.encode_entities([model.tokenizer.render_entity(e)
                                 for e in snapshot.entities])
    z_f, z_r, z_sf, z_sr = model.gcn.forward(snapshot.s_f, snapshot.s_r,
                                             snapshot.x)
    rows = list(range(len(snapshot.entities)))
    return model.fusion.fuse(y_e, z_f, z_r, z_sf, z_sr, rows).data.copy()


def mention_ranks(model, mentions, index, table) -> list:
    """Gold ranks of the mentions whose gold qid ``index`` resolves."""
    kept = [m for m in mentions if m.gold_qid in index]
    seqs = [model.tokenizer.render_mention(m) for m in kept]
    return _gold_ranks(model.encode_mentions(seqs).data, table,
                       [index.row(m.gold_qid) for m in kept])


def test_criterion_6_disambiguation_by_structure(tmp_path):
    start = time.monotonic()
    data = write_pair_dataset(tmp_path / "data")
    cfg = RunConfig(data_dir=str(data), out_dir=str(tmp_path / "out"),
                    years=[2019], min_count=2, max_count=5, k=5,
                    model=ModelConfig(dim=32))
    corpora = load_corpora(cfg)
    tok = build_tokenizer(cfg, corpora)
    snap, = make_snapshots(cfg, corpora, [2019], tok, stamp="s")
    test_m = records.load_mentions(Path(data) / "2019" / "mentions_test.tsv",
                                   2019)
    results = {}
    for seed in (0, 1, 2):
        per_seed = {}
        for label, (a, b, frozen) in {"text": (0.0, 0.0, True),
                                      "full": (0.5, 0.01, False)}.items():
            tc = TrainConfig(learning_rate=0.05, epochs=120, batch_size=32,
                             loss_a=a, loss_b=b)
            mc = ModelConfig(dim=32)
            model = Model(tok, snap.feature_matrix.m, mc, seed)
            if frozen:  # text only: the fusion head held at zero
                model.fusion.proj.data[:] = 0
                model.fusion.proj.requires_grad = False
            train(snap, model, tc, seed)
            # text-only scoring for the frozen run; the full run is scored
            # through the training-time fused table so graph information
            # can break the twin tie (same-snapshot diagnostic)
            table = (model.entity_table(snap.entities) if frozen
                     else fused_entity_table(model, snap))
            ranks = mention_ranks(model, test_m, snap.index, table)
            per_seed[label] = recall_at(ranks, 1)
        results[seed] = per_seed
    elapsed = time.monotonic() - start
    ok = all(r["text"] <= 0.60 and r["full"] >= 0.75
             and r["full"] > r["text"] for r in results.values())
    ok = ok and elapsed < 600.0
    summary = ", ".join(
        f"seed {s}: text {r['text']:.2f} / full {r['full']:.2f}"
        for s, r in results.items())
    announce(6, ok, f"{summary} (text<=0.60, full>=0.75), {elapsed:.0f}s")


def test_criterion_7_recall_harness_oracle():
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(100):
        table = rng.normal(size=(50, 8))
        y = rng.normal(size=8)
        # every row as gold: the rank each row gets in the ranking that runs
        got = _gold_ranks(np.tile(y, (50, 1)), table, np.arange(50))
        scores = [float(row @ y) for row in table]
        want = sorted(range(50), key=lambda i: (-scores[i], i))
        exact = exact and got.tolist() == [want.index(g) + 1 for g in range(50)]
    monotone = True
    for _ in range(1000):
        ranks = rng.integers(1, 100, size=rng.integers(1, 40))
        values = [recall_at(ranks, n) for n in RECALL_NS]
        monotone = monotone and all(a <= b for a, b in
                                    zip(values, values[1:]))
    ok = exact and monotone
    announce(7, ok, "100 ranking instances match brute-force sort oracle; "
                    "recall non-decreasing in N on 1000 rank lists")


def toy_experiment_config(data_dir, out_dir):
    return RunConfig(
        data_dir=str(data_dir), out_dir=str(out_dir),
        years=[2019, 2020, 2021, 2022], k=3, min_count=2, max_count=5,
        embed_dim=16,
        model=ModelConfig(dim=8, gcn_hidden=4, gcn_out=4, gcn_layers=1,
                          max_len=32),
        train=TrainConfig(learning_rate=0.01, epochs=2, batch_size=4))


@pytest.fixture(scope="module")
def toy_experiment_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_exp")
    data = write_toy_dataset(root / "data")
    matrices = {}
    for run in ("a", "b"):
        cfg = toy_experiment_config(data, root / run)
        matrices[run] = run_experiment(cfg)
        for category, matrix in matrices[run].items():
            write_gap_matrix_csv(matrix, root / run / f"gap_matrix_{category}.csv")
            write_aggregate_csv(matrix, root / run / f"aggregate_{category}.csv")
    return root, matrices


def test_criterion_8_temporal_pipeline_shape(toy_experiment_runs):
    _, matrices = toy_experiment_runs
    years = [2019, 2020, 2021, 2022]
    ok = True
    worst = 0.0
    for matrix in matrices["a"].values():
        ok = ok and matrix.years == years and complete(matrix)
        fwd = aggregate_gap(matrix, "forward_only")
        both = aggregate_gap(matrix, "forward_and_backward")
        for n in RECALL_NS:
            lone = matrix.cell(2019, 2022).recall[n]
            worst = max(worst, abs(fwd[3][n] - lone))
            mean = 0.5 * (lone + matrix.cell(2022, 2019).recall[n])
            worst = max(worst, abs(both[3][n] - mean))
    ok = ok and worst <= 1e-12
    announce(8, ok, f"complete 4x4 grids; gap-3 aggregation identities hold "
                    f"to {worst:.1e} (<=1e-12)")


def test_criterion_9_experiment_determinism(toy_experiment_runs):
    root, _ = toy_experiment_runs
    mismatches = []
    for category in ("continual", "new"):
        for year in (2019, 2020, 2021, 2022):
            name = f"checkpoints/{category}_{year}.ckpt"
            if ((root / "a" / name).read_bytes()
                    != (root / "b" / name).read_bytes()):
                mismatches.append(name)
        for name in (f"gap_matrix_{category}.csv",
                     f"aggregate_{category}.csv"):
            if ((root / "a" / name).read_bytes()
                    != (root / "b" / name).read_bytes()):
                mismatches.append(name)
        for year in (2019, 2020, 2021, 2022):
            name = f"checkpoints/loss_curve_{category}_{year}.csv"
            if ((root / "a" / name).read_bytes()
                    != (root / "b" / name).read_bytes()):
                mismatches.append(name)
    announce(9, not mismatches,
             "two identical runs byte-identical across 8 checkpoints, "
             "8 loss curves, and 4 result CSVs"
             + (f"; differing: {mismatches}" if mismatches else ""))
