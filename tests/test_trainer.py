import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from checks import OutOfPlaceAdam
from templink import tape, trainer
from templink.checkpoint import load_checkpoint, read_meta, save_checkpoint
from templink.graphs import AdjacencyMatrix, FeatureMatrix, sym_normalize
from templink.model import Model, ModelConfig
from templink.pipeline import (RunConfig, build_tokenizer, load_corpora,
                               make_snapshots, train_year)
from templink.records import (DataError, EntityIndex, EntityRecord,
                              MentionRecord)
from templink.textenc import Tokenizer
from templink.trainer import (Adam, NumericError, Snapshot, TrainConfig,
                              load_model, make_batches, save_model, train,
                              train_step)

GOLDEN = Path(__file__).parent / "golden"
WORDS = ["apple", "orange", "banana", "pear"]


def tiny_snapshot():
    entities = [EntityRecord(f"Q{i}", w, f"{w} fruit item", 2020)
                for i, w in enumerate(WORDS)]
    mentions = [MentionRecord("a ripe", w, "on the table", f"Q{i}", "new", 2020)
                for i, w in enumerate(WORDS)] * 2
    mat = FeatureMatrix(n=4, m=3, ones=[(0, 0), (1, 1), (2, 2), (3, 0)],
                        column_tokens=[7, 8, 9])
    return Snapshot(
        year=2020, entities=entities, mentions=mentions,
        index=EntityIndex([e.qid for e in entities]),
        structure=AdjacencyMatrix(n=4, edges=[(0, 1), (2, 3)]),
        feature_graph=AdjacencyMatrix(n=4, edges=[(0, 2), (1, 3)]),
        feature_matrix=mat)


def tiny_model(snapshot, seed=0, gcn_layers=1):
    texts = [e.title + " " + e.description for e in snapshot.entities]
    texts += [m.context_left + " " + m.mention + " " + m.context_right
              for m in snapshot.mentions]
    tok = Tokenizer.build(texts, max_len=16)
    cfg = ModelConfig(dim=6, gcn_hidden=4, gcn_out=3, gcn_layers=gcn_layers,
                      max_len=16)
    return Model(tok, feature_dim=snapshot.feature_matrix.m, config=cfg,
                 seed=seed)


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.batch_size == 32 and c.grad_clip == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("field", ["loss_a", "loss_b"])
    def test_negative_loss_weight_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: -0.1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["loss_a", "loss_b"])
    def test_nonfinite_loss_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_loss_weights_and_clip_accepted(self):
        c = TrainConfig(loss_a=0.0, loss_b=0.0, grad_clip=0.0)
        assert (c.loss_a, c.loss_b, c.grad_clip) == (0.0, 0.0, 0.0)


class TestMakeBatches:
    def test_sizes(self):
        batches = make_batches(list(range(5)), 2, seed=0)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_multiset_preserved(self):
        items = list(range(17))
        batches = make_batches(items, 4, seed=3)
        assert sorted(x for b in batches for x in b) == items

    def test_deterministic(self):
        items = list(range(20))
        assert make_batches(items, 6, 5) == make_batches(items, 6, 5)

    def test_seed_changes_order(self):
        items = list(range(20))
        assert make_batches(items, 6, 5) != make_batches(items, 6, 6)

    def test_empty(self):
        assert make_batches([], 4, 0) == []


class TestAdam:
    def test_first_step_closed_form(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        p = tape.param(np.array([[1.0]], dtype=np.float32))
        p.grad = np.array([[0.5]], dtype=np.float32)
        opt = Adam(lr=0.1)
        opt.step({"p": p})
        assert np.isclose(p.data[0, 0], 1.0 - 0.1 * 0.5 / (0.5 + 1e-8),
                          atol=1e-6)
        assert opt.step_count == 1

    def test_clip_scales_moment_buffer(self):
        p = tape.param(np.zeros((1, 1), dtype=np.float32))
        p.grad = np.array([[10.0]], dtype=np.float32)
        opt = Adam(lr=0.1)
        opt.step({"p": p}, clip=1.0)
        # m accumulates the clipped gradient: 0.1 * (10 / 10)
        assert np.isclose(opt.m["p"][0, 0], 0.1, atol=1e-6)

    def test_no_grad_params_skipped(self):
        p = tape.param(np.ones((2, 2), dtype=np.float32))
        opt = Adam(lr=0.1)
        opt.step({"p": p})
        assert np.array_equal(p.data, np.ones((2, 2)))
        assert "p" not in opt.m

    def test_in_place_equals_out_of_place(self):
        # 6 steps, the first 3 clipped; "c" never has a gradient
        rng = np.random.default_rng(3)
        init = {"a": rng.normal(size=(50, 8)), "b": rng.normal(size=(8, 3)),
                "c": rng.normal(size=(2, 2))}
        sides = []
        for opt in (Adam(lr=0.01), OutOfPlaceAdam(lr=0.01)):
            sides.append((opt, {n: tape.param(v.astype(np.float32))
                                for n, v in init.items()}))
        arrays = {n: p.data for n, p in sides[0][1].items()}
        for step in range(6):
            scale = 10.0 if step < 3 else 1e-3
            grads = {n: (scale * rng.normal(size=init[n].shape)).astype(
                np.float32) for n in ("a", "b")}
            grads["a"][0] = np.float32(-0.0)
            norm = np.sqrt(sum((g.astype(np.float64) ** 2).sum()
                               for g in grads.values()))
            assert (norm > 1.0) == (step < 3)
            for opt, params in sides:
                for name, p in params.items():
                    p.grad = grads[name].copy() if name in grads else None
                opt.step(params, clip=1.0)
            (opt, params), (ref, ref_params) = sides
            for name, p in params.items():
                assert p.data is arrays[name] and p.data.dtype == np.float32
                assert p.data.tobytes() == ref_params[name].data.tobytes()
            for name in ("a", "b"):
                assert opt.m[name].tobytes() == ref.m[name].tobytes()
                assert opt.v[name].tobytes() == ref.v[name].tobytes()
            assert "c" not in opt.m
        assert sides[0][1]["c"].data.tobytes() == init["c"].astype(
            np.float32).tobytes()

    def test_row_grads_equal_dense_out_of_place(self):
        # "a" (50 x 8) gets RowGrads, "b" dense ones, and "c" (30 x 4)
        # RowGrads but a dense gradient at step 4; the reference gets every
        # gradient densely. Steps 0-2 are clipped. Rows 40-44 of "a" have a
        # gradient at step 0 only, rows 45-49 never; row 49 holds -0.0.
        # "a" and "c" keep moments for live rows only, in the order the rows
        # went live ("c" with every row live from step 4), so they are
        # scattered into full arrays to compare with the reference's; "b"
        # keeps them in row order from its first step.
        rng = np.random.default_rng(4)
        init = {"a": rng.normal(size=(50, 8)).astype(np.float32),
                "b": rng.normal(size=(8, 3)).astype(np.float32),
                "c": rng.normal(size=(30, 4)).astype(np.float32)}
        init["a"][49, 2] = np.float32(-0.0)
        sides = []
        for opt in (Adam(lr=0.01), OutOfPlaceAdam(lr=0.01)):
            sides.append((opt, {n: tape.param(v.copy()) for n, v in init.items()}))
        (opt, params), (ref, ref_params) = sides
        clipped = []
        ever = {n: np.zeros(len(v), dtype=bool) for n, v in init.items()}
        first_seen = {n: [] for n in init}
        for step in range(8):
            scale = 10.0 if step < 3 else 1e-3
            rows = np.sort(rng.choice(40, size=12, replace=False))
            if step == 0:
                rows = np.concatenate([rows[:7], np.arange(40, 45)])
            values = (scale * rng.normal(size=(12, 8))).astype(np.float32)
            values[0, 0] = np.float32(-0.0)
            b = (scale * rng.normal(size=(8, 3))).astype(np.float32)
            c_rows = np.sort(rng.choice(30, size=5, replace=False))
            c = tape.RowGrad(c_rows, (scale * rng.normal(size=(5, 4))).astype(
                np.float32))
            if step == 4:  # rows of "c" not yet live enter densely
                assert 0 < ever["c"].sum() < 30
                c = c.dense(30)
            grads = {"a": tape.RowGrad(rows, values), "b": b, "c": c}
            clipped.append(np.sqrt(sum(
                (getattr(g, "values", g).astype(np.float64) ** 2).sum()
                for g in grads.values())) > 1.0)
            for name, g in grads.items():
                dense = isinstance(g, np.ndarray)
                first_seen[name] += [r for r in (range(len(init[name])) if dense
                                                 else g.rows)
                                     if not ever[name][r]]
                ever[name][slice(None) if dense else g.rows] = True
                ref_params[name].grad = g.copy() if dense else g.dense(
                    len(init[name]))
                params[name].grad = g
            opt.step(params, clip=1.0)
            ref.step(ref_params, clip=1.0)
            for name in ("a", "b", "c"):
                assert params[name].data.dtype == np.float32
                assert (params[name].data.tobytes()
                        == ref_params[name].data.tobytes()), (step, name)
                live = opt.live.get(name)
                assert (live is None) == (name == "b"), (step, name)
                if live is None:  # dense from the first step: row order
                    held = {"m": opt.m[name], "v": opt.v[name]}
                else:
                    rows = live.order[:live.n]
                    assert rows.tolist() == first_seen[name], (step, name)
                    slots = np.full(len(init[name]), -1)
                    slots[rows] = np.arange(live.n)
                    assert live.slot.tolist() == slots.tolist()
                    held = {}
                    for key in ("m", "v"):
                        assert not getattr(live, key)[live.n:].any()
                        held[key] = np.zeros_like(init[name])
                        held[key][rows] = getattr(live, key)[:live.n]
                for key, ref_moments in (("m", ref.m), ("v", ref.v)):
                    assert (held[key].tobytes()
                            == ref_moments[name].tobytes()), (step, name)
        assert clipped == [True] * 3 + [False] * 5
        assert params["a"].data[45:].tobytes() == init["a"][45:].tobytes()
        assert ever["a"][40:45].all() and 10 < ever["a"].sum() < 45
        assert "a" in opt.live and "a" not in opt.m
        assert ever["c"].all() and opt.live["c"].n == 30 and "c" not in opt.m
        assert (params["a"].data[40:45] != init["a"][40:45]).all()

    def test_no_new_row_keeps_the_moment_buffers(self):
        # rows enter at steps 0, 1 and 3; the buffers grow by doubling, so
        # step 3's two new rows fit, and step 2 admits none
        p = tape.param(np.ones((20, 3), dtype=np.float32))
        opt = Adam(lr=0.1)
        held = []
        for rows in ([4, 7, 9, 12, 15], [1, 7], [4, 9], [0, 2, 9]):
            rows = np.array(rows)
            p.grad = tape.RowGrad(rows, np.full((len(rows), 3), 0.5,
                                                dtype=np.float32))
            opt.step({"p": p})
            live = opt.live["p"]
            held.append((live.n, live.order, live.m, live.v))
        assert [n for n, *_ in held] == [5, 6, 6, 8]
        assert [len(order) for _, order, *_ in held] == [5, 10, 10, 10]
        # steps 2 and 3 keep the arrays step 1 grew
        for later in held[2:]:
            assert all(a is b for a, b in zip(later[1:], held[1][1:]))
        assert all(a is not b for a, b in zip(held[1][1:], held[0][1:]))
        assert held[3][1][:8].tolist() == [4, 7, 9, 12, 15, 1, 0, 2]


class DensifyingAdam(Adam):
    """``Adam`` fed every ``tape.RowGrad`` gradient as its dense array;
    ``seen`` counts the RowGrads it densified."""

    seen = 0

    def step(self, params, clip=0.0):
        for p in params.values():
            if isinstance(p.grad, tape.RowGrad):
                DensifyingAdam.seen += 1
                p.grad = p.grad.dense(len(p.data))
        return super().step(params, clip)


def sparse_snapshot():
    """Twelve entities over disjoint words, so a batch of three touches a
    few embedding rows; the tokenizer's vocabulary holds words that no
    training text uses."""
    words = [f"w{i}" for i in range(36)]
    entities = [EntityRecord(f"Q{i}", words[3 * i],
                             f"{words[3 * i + 1]} {words[3 * i + 2]}", 2020)
                for i in range(12)]
    mentions = [MentionRecord(f"near {words[3 * i + 1]}", words[3 * i],
                              "", f"Q{i}", "new", 2020) for i in range(12)]
    ones = [(i, i % 5) for i in range(12)]
    snap = Snapshot(
        year=2020, entities=entities, mentions=mentions,
        index=EntityIndex([e.qid for e in entities]),
        structure=AdjacencyMatrix(n=12, edges=[(i, i + 1) for i in range(11)]),
        feature_graph=AdjacencyMatrix(n=12, edges=[(i, (i + 3) % 12)
                                                  for i in range(12)]),
        feature_matrix=FeatureMatrix(n=12, m=5, ones=ones,
                                     column_tokens=list(range(7, 12))))
    texts = [e.title + " " + e.description for e in entities]
    texts += [m.context_left + " " + m.mention for m in mentions]
    tok = Tokenizer.build(texts + ["unused words only here"], max_len=16)
    cfg = ModelConfig(dim=6, gcn_hidden=4, gcn_out=3, gcn_layers=2, max_len=16)
    return snap, tok, cfg


class TestRowSparseTraining:
    def test_train_equals_densified_gradients(self, monkeypatch):
        # batches of 3 over disjoint words: rows go live batch by batch
        # over the first epoch; clipping fires from the fifth step on
        snap, tok, model_cfg = sparse_snapshot()
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=3,
                          grad_clip=0.01)
        monkeypatch.setattr(DensifyingAdam, "seen", 0)
        runs = []
        for optimizer in (Adam, DensifyingAdam):
            monkeypatch.setattr(trainer, "Adam", optimizer)
            model = Model(tok, snap.feature_matrix.m, model_cfg, seed=3)
            runs.append((train(snap, model, cfg, seed=1),
                         {n: p.data.tobytes() for n, p in model.params.items()}))
        assert DensifyingAdam.seen == 2 * len(runs[0][0]) == 24
        assert runs[0] == runs[1]
        fresh = Model(tok, snap.feature_matrix.m, model_cfg, seed=3).params
        unused = [tok.vocab[w] for w in ("unused", "words", "only", "here")]
        for name in ("m_enc.emb", "e_enc.emb"):
            emb = np.frombuffer(runs[0][1][name], dtype=np.float32).reshape(
                fresh[name].shape)
            assert emb[unused].tobytes() == fresh[name].data[unused].tobytes()
            assert (emb[tok.vocab["w0"]] != fresh[name].data[tok.vocab["w0"]]).all()


def random_snapshot(n, m, seed):
    """Snapshot over seeded random graphs and a random 0/1 feature matrix."""
    rng = np.random.default_rng(seed)

    def graph(degree):
        return AdjacencyMatrix(n=n, edges=[
            (i, j) for i, j in rng.integers(n, size=(n * degree, 2)) if i != j])

    ones = np.argwhere(rng.random((n, m)) < 0.05)
    return Snapshot(year=2020, entities=[], mentions=[], index=None,
                    structure=graph(3), feature_graph=graph(5),
                    feature_matrix=FeatureMatrix(n=n, m=m, ones=ones,
                                                 column_tokens=list(range(m))))


class TestSnapshotPrepare:
    @pytest.mark.parametrize("n,m,seed", [(40, 25, 0), (300, 120, 1),
                                          (1200, 850, 2)])
    def test_products_equal_dense_spmm(self, n, m, seed):
        # prepare caches the CSR X and the normalized graphs, and no dense
        # n x m product of them
        snap = random_snapshot(n, m, seed).prepare()
        x = snap.feature_matrix.to_csr()
        assert snap.x.format == "csr" and snap.x.dtype == x.dtype
        assert snap.x.shape == (n, m) and (snap.x != x).nnz == 0
        assert not any(isinstance(v, (np.ndarray, tape.Tensor))
                       for v in vars(snap).values())
        assert (snap.s_f != sym_normalize(snap.feature_graph)).nnz == 0


class TestTrainStep:
    def test_breakdown_keys_and_total(self):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        cfg = TrainConfig(learning_rate=1e-3, loss_a=0.5, loss_b=0.01)
        out = train_step(snap.mentions[:3], snap, model, Adam(cfg.learning_rate),
                         cfg)
        assert set(out) == {"L_e", "L_s", "L_d", "L_total"}
        assert np.isclose(out["L_total"],
                          out["L_e"] + 0.5 * out["L_s"] + 0.01 * out["L_d"],
                          rtol=1e-5)

    def test_single_mention_el_term_zero(self):
        # after a 4-mention step the encoders and the fusion head have Adam
        # moments; a 1-mention step gives them no gradient, so they stay put
        # while the GCN's graph losses still move its weights
        snap = tiny_snapshot()
        model = tiny_model(snap)
        cfg = TrainConfig(learning_rate=1e-3)
        adam = Adam(cfg.learning_rate)
        train_step(snap.mentions[:4], snap, model, adam, cfg)
        before = {n: p.data.copy() for n, p in model.params.items()}
        out = train_step(snap.mentions[:1], snap, model, adam, cfg)
        assert out["L_e"] == 0.0
        moved = {n for n, p in model.params.items()
                 if p.data.tobytes() != before[n].tobytes()}
        assert moved == {"gcn.wf.l0", "gcn.wr.l0", "gcn.ws.l0"}

    def test_zero_weights_total_equals_el(self):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        cfg = TrainConfig(learning_rate=1e-3, loss_a=0.0, loss_b=0.0)
        out = train_step(snap.mentions[:4], snap, model, Adam(cfg.learning_rate),
                         cfg)
        assert out["L_total"] == out["L_e"]

    def test_initial_el_is_near_uniform(self):
        # fresh small-weight encoders give near-zero scores, so the
        # in-batch softmax loss starts at roughly ln(batch)
        snap = tiny_snapshot()
        model = tiny_model(snap)
        cfg = TrainConfig(learning_rate=1e-6)
        out = train_step(snap.mentions[:4], snap, model, Adam(cfg.learning_rate),
                         cfg)
        assert abs(out["L_e"] - np.log(4.0)) < 0.1

    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_spmm_only_above_layer_0(self, monkeypatch, gcn_layers):
        # a step multiplies X·W0 and then its graph at layer 0, and its
        # graph then W at every layer above, by spmm: 4 + 4·layers spmm
        # calls, and no matmul operand as wide as the feature matrix (m = 7)
        snap = replace(tiny_snapshot(), feature_matrix=FeatureMatrix(
            n=4, m=7, ones=[(0, 0), (1, 6), (2, 3), (3, 0), (3, 5)],
            column_tokens=list(range(7)))).prepare()
        model = tiny_model(snap, gcn_layers=gcn_layers)
        calls, widths = [], []
        spmm, matmul = tape.spmm, tape.matmul
        monkeypatch.setattr(tape, "spmm",
                            lambda s, z: calls.append(s) or spmm(s, z))
        monkeypatch.setattr(tape, "matmul", lambda a, b: widths.extend(
            (a.shape[-1], b.shape[-1])) or matmul(a, b))
        cfg = TrainConfig(learning_rate=1e-3)
        train_step(snap.mentions[:4], snap, model, Adam(cfg.learning_rate),
                   cfg)
        assert len(calls) == 4 + 4 * gcn_layers
        assert widths and 7 not in widths

    def test_backward_keeps_only_leaf_gradients(self, monkeypatch):
        # once a step's backward has run, no intermediate node holds a
        # gradient and every trainable parameter still holds its own
        snap = tiny_snapshot()
        model = tiny_model(snap)
        roots = []
        backward = tape.Tensor.backward
        monkeypatch.setattr(tape.Tensor, "backward",
                            lambda t, grad=None: roots.append(t) or
                            backward(t, grad))
        cfg = TrainConfig(learning_rate=1e-3)
        train_step(snap.mentions[:4], snap, model, Adam(cfg.learning_rate),
                   cfg)
        nodes = []
        tape._post_order(roots[0], set(), nodes)
        inner = [t for t in nodes if t._backward is not None]
        assert len(inner) > 20
        assert all(t.grad is None for t in inner)
        params = [p for p in model.params.values() if p.requires_grad]
        assert {id(p) for p in params} <= {id(t) for t in nodes}
        assert all(p.grad is not None for p in params)

    def test_nonfinite_raises(self):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        model.params["m_enc.emb"].data[:] = np.float32("nan")
        cfg = TrainConfig(learning_rate=1e-3)
        with pytest.raises(NumericError):
            train_step(snap.mentions[:4], snap, model, Adam(cfg.learning_rate),
                       cfg)


class TestTrain:
    def test_zero_epochs_no_change(self):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        before = {n: p.data.copy() for n, p in model.params.items()}
        assert train(snap, model, TrainConfig(epochs=0)) == []
        for n, p in model.params.items():
            assert np.array_equal(p.data, before[n])

    def test_step_count_and_curve_length(self):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=3)
        curve = train(snap, model, cfg)
        # 8 mentions / batch 3 -> 3 batches per epoch
        assert len(curve) == 6
        assert [row[0] for row in curve] == list(range(1, 7))

    def test_objective_decreases(self):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        cfg = TrainConfig(learning_rate=0.05, epochs=25, batch_size=4)
        curve = train(snap, model, cfg)
        first = np.mean([r[1] for r in curve[:4]])
        last = np.mean([r[1] for r in curve[-4:]])
        assert last < 0.25 * first

    def test_200_steps_cut_linking_loss_90_percent(self, pair_data, tmp_path):
        # 200-entity twin fixture: ~200 steps must drop L_e to under 10%
        # of its first-step value
        cfg = RunConfig(data_dir=str(pair_data), out_dir=str(tmp_path / "out"),
                        years=[2019], min_count=2, max_count=5, k=5,
                        model=ModelConfig(dim=32))
        corpora = load_corpora(cfg)
        tok = build_tokenizer(cfg, corpora)
        snap, = make_snapshots(cfg, corpora, [2019], tok, stamp="s")
        model = Model(tok, snap.feature_matrix.m, cfg.model)
        tc = TrainConfig(learning_rate=0.05, epochs=13, batch_size=32)
        curve = train(snap, model, tc, 0)   # 16 batches/epoch -> 208 steps
        initial = curve[0][1]
        final = np.mean([r[1] for r in curve[-16:]])
        assert final < 0.1 * initial

    def test_runs_byte_identical(self, tmp_path, toy_data):
        ckpts = [train_toy_checkpoint(tmp_path / run, toy_data)[3]
                 for run in ("a", "b")]
        curves = [p.with_name("loss_curve_new_2019.csv") for p in ckpts]
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()
        assert curves[0].read_bytes() == curves[1].read_bytes()

    def test_curve_csv_format(self, tmp_path, toy_data):
        path = train_toy_checkpoint(tmp_path, toy_data)[3]
        lines = path.with_name("loss_curve_new_2019.csv").read_text(
            ).splitlines()
        assert lines[0] == "step,L_e,L_s,L_d,L_total"
        fields = lines[1].split(",")
        assert fields[0] == "1"
        # repr round-trips exactly
        assert repr(float(fields[1])) == fields[1]


def train_toy_checkpoint(tmp_path, toy_data):
    """(config, tokenizer, snapshot, checkpoint path) of the 2019 ``new``
    checkpoint ``train_year`` writes on the toy data at seed 3."""
    cfg = RunConfig(data_dir=str(toy_data), out_dir=str(tmp_path / "out"),
                    years=[2019], seed=3, k=3, min_count=2, max_count=5,
                    embed_dim=16, model=ModelConfig(
                        dim=8, gcn_hidden=4, gcn_out=4, gcn_layers=1,
                        max_len=32),
                    train=TrainConfig(learning_rate=0.01, batch_size=4))
    corpora = load_corpora(cfg)
    tok = build_tokenizer(cfg, corpora)
    snap, = make_snapshots(cfg, corpora, [2019], tok, stamp="s")
    return cfg, tok, snap, train_year(cfg, snap, "new", tok, stamp="s")


class TestCheckpointRoundTrip:
    def test_params_restored(self, tmp_path):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4)
        train(snap, model, cfg, seed=2)
        path = tmp_path / "m.ckpt"
        save_model(path, model, cfg, extra={"year": 2020})

        # the run's own tokenizer, equal to the one trained with
        tok = tiny_model(snap).tokenizer
        assert tok is not model.tokenizer and tok.vocab == model.tokenizer.vocab
        loaded = load_model(path, tok)
        assert isinstance(loaded, Model)
        assert loaded.tokenizer is tok
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == np.float32
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
        _, meta = load_checkpoint(path)
        assert TrainConfig(**meta["train_config"]) == cfg
        assert meta["year"] == 2020

    def test_tensors_are_own_float32_arrays(self, tmp_path):
        tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "b": np.zeros((0, 4), dtype=np.float32),
                   "c": np.array([[-0.0], [1.5], [np.inf]], dtype=np.float32)}
        save_checkpoint(tmp_path / "t.ckpt", tensors, {"year": 2020})
        loaded, meta = load_checkpoint(tmp_path / "t.ckpt")
        assert meta == {"year": 2020} and list(loaded) == ["a", "b", "c"]
        for name, arr in loaded.items():
            assert arr.dtype == np.float32 and arr.shape == tensors[name].shape
            assert arr.flags.owndata and arr.flags.writeable
            assert arr.tobytes() == tensors[name].tobytes()

    @pytest.mark.parametrize("cut, tensor", [(4, "c (3 x 1)"),
                                             (12, "c (3 x 1)"),
                                             (13, "a (2 x 3)")])
    def test_short_payload_names_the_tensor(self, tmp_path, cut, tensor):
        # 12 bytes cut leave "c" without a byte; 13 end inside "a"
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"a": np.ones((2, 3), dtype=np.float32),
                               "b": np.ones((0, 4), dtype=np.float32),
                               "c": np.ones((3, 1), dtype=np.float32)}, {})
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: checkpoint ends inside tensor "
                                  f"{tensor}")

    @pytest.mark.parametrize("extra", [1, 4, 70000])
    def test_trailing_bytes_fail(self, tmp_path, extra):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"a": np.ones((2, 3), dtype=np.float32)}, {})
        path.write_bytes(path.read_bytes() + b"\x00" * extra)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: trailing bytes in checkpoint"

    def test_manifest_names_exactly_the_params(self, tmp_path):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        train(snap, model, TrainConfig(learning_rate=1e-3, batch_size=4))
        path = tmp_path / "m.ckpt"
        save_model(path, model, TrainConfig())
        header = json.loads(path.read_bytes().split(b"\x00", 1)[0])
        assert [name for name, _, _ in header["manifest"]] == sorted(model.params)
        assert "step" not in header

    def test_header_holds_no_tokenizer(self, tmp_path):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        path = tmp_path / "m.ckpt"
        save_model(path, model, TrainConfig())
        header = json.loads(path.read_bytes().split(b"\x00", 1)[0])
        assert not {"tokenizer_vocab", "tokenizer_max_len"} & set(header)

    def test_header_holds_the_run_seed(self, tmp_path, toy_data):
        # the run's one seed draws the parameters and orders the batches
        cfg, tok, snap, path = train_toy_checkpoint(tmp_path, toy_data)
        meta = load_checkpoint(path)[1]
        assert (meta["seed"], meta["year"], meta["category"]) == (3, 2019, "new")
        assert "seed" not in meta["model_config"]
        assert "seed" not in meta["train_config"]
        model = Model(tok, snap.feature_matrix.m, cfg.model, seed=3)
        train(replace(snap, mentions=[m for m in snap.mentions
                                      if m.category == "new"]),
              model, cfg.train, seed=3)
        loaded = load_model(path, tok)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def test_format_matches_golden_digest(self, tmp_path, toy_data):
        # checkpoint_format.json maps each CHECKPOINT_FORMAT to the SHA-256
        # of this checkpoint; the map only grows
        path = train_toy_checkpoint(tmp_path, toy_data)[3]
        assert read_meta(path)["format"] == trainer.CHECKPOINT_FORMAT
        golden = json.loads((GOLDEN / "checkpoint_format.json").read_text())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert golden.get(str(trainer.CHECKPOINT_FORMAT)) == digest, (
            f"the toy checkpoint's SHA-256 is {digest}, not the one recorded "
            f"for CHECKPOINT_FORMAT = {trainer.CHECKPOINT_FORMAT}: if the "
            "change moves checkpoint bytes on purpose, bump CHECKPOINT_FORMAT "
            "in trainer.py and add its entry to "
            "tests/golden/checkpoint_format.json")

    def test_other_format_is_data_error(self, tmp_path, toy_data):
        # an older checkpoint: its format and a retired model_config key
        _, tok, _, path = train_toy_checkpoint(tmp_path, toy_data)
        head, payload = path.read_bytes().split(b"\x00", 1)
        header = json.loads(head)
        header["format"] = "ckpt-v1"
        header["model_config"]["encoder_mode"] = "mean"
        path.write_bytes(json.dumps(header, sort_keys=True).encode()
                         + b"\x00" + payload)
        with pytest.raises(DataError) as err:
            load_model(path, tok)
        assert str(err.value) == (
            f"{path}: checkpoint format 'ckpt-v1', but this version reads "
            f"format {trainer.CHECKPOINT_FORMAT!r}")

    def test_other_vocabulary_size_fails(self, tmp_path):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        path = tmp_path / "m.ckpt"
        save_model(path, model, TrainConfig())
        tok = Tokenizer.build(["apple pear"], max_len=16)
        rows = model.tokenizer.vocab_size
        with pytest.raises(DataError) as err:
            load_model(path, tok)
        assert str(err.value) == (
            f"{path}: the checkpoint's embedding tables have {rows} rows, "
            f"but the run's tokenizer has vocab_size {tok.vocab_size}")

    def test_draws_nothing(self, tmp_path, monkeypatch):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        path = tmp_path / "m.ckpt"
        save_model(path, model, TrainConfig())

        def draw(*args):
            raise AssertionError("load_model seeded a generator")

        monkeypatch.setattr(np.random, "PCG64", draw)
        loaded = load_model(path, model.tokenizer)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("name", ["e_enc.emb", "fusion.proj", "gcn.ws.l0"])
    def test_misshapen_tensor_is_data_error(self, tmp_path, name):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        path = tmp_path / "m.ckpt"
        save_model(path, model, TrainConfig())
        tensors, meta = load_checkpoint(path)
        rows, cols = tensors[name].shape
        tensors[name] = tensors[name][1:]
        save_checkpoint(path, tensors, meta)
        with pytest.raises(DataError) as err:
            load_model(path, model.tokenizer)
        assert str(err.value) == (
            f"{path}: tensor {name} is {rows - 1} x {cols}, but the config "
            f"makes it {rows} x {cols}")

    def test_missing_tensor_is_data_error(self, tmp_path):
        snap = tiny_snapshot()
        model = tiny_model(snap)
        path = tmp_path / "m.ckpt"
        save_model(path, model, TrainConfig())
        tensors, meta = load_checkpoint(path)
        del tensors["fusion.proj"]
        save_checkpoint(path, tensors, meta)
        with pytest.raises(DataError, match="no tensor fusion.proj"):
            load_model(path, model.tokenizer)
