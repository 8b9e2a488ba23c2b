import numpy as np
import pytest

from checks import check_gradients
from templink import tape
from templink.graphs import AdjacencyMatrix, FeatureMatrix, sym_normalize
from templink.model import (FusionHead, GcnStack, Model, ModelConfig,
                            consistency_loss, distinct_loss, total_loss)
from templink.records import EntityIndex, EntityRecord, MentionRecord
from templink.textenc import Tokenizer
from templink.trainer import Adam, Snapshot, TrainConfig, train_step


def rnd(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def norm_csr(n, edges):
    return sym_normalize(AdjacencyMatrix(n=n, edges=edges))


class TestGcnStack:
    def make(self, n_layers=2, seed=0, input_dim=5):
        return GcnStack(input_dim, hidden=4, out=3, n_layers=n_layers, seed=seed)

    def test_shapes(self):
        gcn = self.make()
        s = norm_csr(6, [(0, 1), (2, 3)])
        x = tape.const(rnd((6, 5), 0))
        for z in gcn.forward(s, s, x):
            assert z.data.shape == (6, 3)

    def test_shared_stack_equal_graphs(self):
        # with S_f == S_r the shared stack cannot tell the graphs apart
        gcn = self.make(seed=1)
        s = norm_csr(5, [(0, 1), (1, 2), (3, 4)])
        x = tape.const(rnd((5, 5), 1))
        _, _, z_sf, z_sr = gcn.forward(s, s, x)
        assert np.array_equal(z_sf.data, z_sr.data)

    def test_distinct_stacks_differ(self):
        gcn = self.make(seed=2)
        s = norm_csr(5, [(0, 1), (1, 2)])
        x = tape.const(np.abs(rnd((5, 5), 2)))
        z_f, z_r, _, _ = gcn.forward(s, s, x)
        assert not np.array_equal(z_f.data, z_r.data)

    def test_zero_features_collapse(self):
        gcn = self.make()
        s = norm_csr(4, [(0, 1)])
        x = tape.const(np.zeros((4, 5)))
        for z in gcn.forward(s, s, x):
            assert not z.data.any()

    def test_edgeless_graph_is_pointwise(self):
        # no edges: propagation reduces to the same MLP on every row, so
        # identical feature rows get identical embeddings
        gcn = self.make(seed=3)
        s = norm_csr(3, [])
        x = rnd((1, 5), 3).repeat(3, axis=0)
        z_f, _, _, _ = gcn.forward(s, s, tape.const(x))
        assert np.array_equal(z_f.data[0], z_f.data[1])
        assert np.array_equal(z_f.data[0], z_f.data[2])

    def test_row_count_mismatch(self):
        gcn = self.make()
        x = FeatureMatrix(n=4, m=5, ones=[(0, 1), (3, 4)],
                          column_tokens=list(range(5))).to_csr()
        for features in (tape.const(np.zeros((4, 5))), x):
            with pytest.raises(ValueError, match="spmm shape mismatch"):
                gcn.forward(norm_csr(3, []), norm_csr(3, []), features)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_pair_equals_features(self, n_layers):
        # forward on the CSR feature matrix X gives the bits, values and
        # parameter gradients, of a reference written per stack with tape
        # ops, relu(S·(X·W0)) then relu((S·Z)·W) over its own graph; a
        # const tensor of the dense X gives the same values
        rng = np.random.default_rng(n_layers)
        s_f = norm_csr(8, [(0, 1), (1, 2), (3, 4), (5, 7)])
        s_r = norm_csr(8, [(0, 7), (2, 6), (4, 5)])
        mat = FeatureMatrix(n=8, m=5,
                            ones=np.argwhere(rng.random((8, 5)) < 0.4),
                            column_tokens=list(range(5)))
        x = mat.to_csr()

        def per_stack(gcn, s_f, s_r, x):
            def stack(s, name):
                w0 = gcn.params[f"gcn.{name}.l0"]
                z = tape.relu(tape.spmm(s, tape.spmm(x, w0)))
                for layer in range(1, n_layers):
                    w = gcn.params[f"gcn.{name}.l{layer}"]
                    z = tape.relu(tape.matmul(tape.spmm(s, z), w))
                return z
            return (stack(s_f, "wf"), stack(s_r, "wr"), stack(s_f, "ws"),
                    stack(s_r, "ws"))

        stacks, outs = [], []
        for forward in (per_stack, GcnStack.forward):
            gcn = self.make(n_layers, seed=6)
            zs = forward(gcn, s_f, s_r, x)
            tape.add(tape.add(tape.sum_squares(zs[0]), tape.sum_squares(zs[1])),
                     tape.add(tape.sum_squares(zs[2]),
                              tape.sum_squares(zs[3]))).backward()
            stacks.append(gcn)
            outs.append(zs)
        assert all(z.data.any() for z in outs[0])  # no stack relu-dead
        for a, b in zip(outs[0], outs[1]):
            assert a.data.tobytes() == b.data.tobytes()
        for name, p in stacks[0].params.items():
            assert p.grad.tobytes() == stacks[1].params[name].grad.tobytes()
        dense = stacks[1].forward(s_f, s_r, tape.const(mat.to_dense(np.float64)))
        for a, b in zip(outs[1], dense):
            assert a.data.tobytes() == b.data.tobytes()

    def test_single_layer_oracle(self):
        # 1 layer, hand-computed: Z = relu(S X W)
        gcn = GcnStack(2, hidden=9, out=2, n_layers=1, seed=4)
        s = norm_csr(2, [(0, 1)])
        x = rnd((2, 2), 4)
        z_f = gcn.forward(s, s, tape.const(x))[0]
        w = gcn.params["gcn.wf.l0"].data
        expect = np.maximum(s.toarray() @ x @ w, 0.0)
        assert np.allclose(z_f.data, expect, atol=1e-6)


class TestConsistencyLoss:
    def test_identical_inputs(self):
        z = tape.const(rnd((4, 3), 5))
        assert float(consistency_loss(z, z).data) == 0.0

    def test_symmetric(self):
        a, b = rnd((40, 3), 13), rnd((40, 5), 14)
        x = float(consistency_loss(tape.const(a), tape.const(b)).data)
        y = float(consistency_loss(tape.const(b), tape.const(a)).data)
        assert x > 0 and np.isclose(x, y, rtol=1e-12, atol=0)

    def test_matches_literal_above_old_sample_size(self):
        # every one of 2,100 rows counts; the loss once sampled 2,048
        a = np.maximum(rnd((2100, 32), 15), 0)
        b = np.maximum(rnd((2100, 32), 16), 0)
        want = np.sum((a @ a.T - b @ b.T) ** 2)
        got = float(consistency_loss(tape.const(a), tape.const(b)).data)
        assert abs(got - want) <= 1e-9 * want

    def test_rotation_invariance(self):
        z = rnd((5, 3), 6)
        q, _ = np.linalg.qr(rnd((3, 3), 7))
        v = float(consistency_loss(tape.const(z), tape.const(z @ q)).data)
        assert abs(v) < 1e-18

    def test_scaling_sensitivity(self):
        z = rnd((4, 3), 8)
        v = float(consistency_loss(tape.const(z), tape.const(2.0 * z)).data)
        assert np.isclose(v, 9.0 * np.sum((z @ z.T) ** 2))


class TestDistinctLoss:
    def test_sum_of_pairs(self):
        z_r, z_sr = rnd((6, 3), 9), rnd((6, 3), 10)
        z_f, z_sf = rnd((6, 3), 11), rnd((6, 3), 12)
        got = float(distinct_loss(tape.const(z_r), tape.const(z_sr),
                                  tape.const(z_f), tape.const(z_sf)).data)
        want = (float(tape.hsic(tape.const(z_r), tape.const(z_sr)).data)
                + float(tape.hsic(tape.const(z_f), tape.const(z_sf)).data))
        assert np.isclose(got, want)


class TestTotalLoss:
    def test_arithmetic(self):
        v = float(total_loss(tape.const(np.array(1.0)),
                             tape.const(np.array(2.0)),
                             tape.const(np.array(3.0)), 0.5, 0.01).data)
        assert np.isclose(v, 1.0 + 0.5 * 2.0 + 0.01 * 3.0)

    def test_zero_weights_drop_terms(self):
        v = float(total_loss(tape.const(np.array(1.5)),
                             tape.const(np.array(99.0)),
                             tape.const(np.array(99.0)), 0.0, 0.0).data)
        assert v == 1.5


class TestLossWeights:
    def test_defaults(self):
        # the paper's loss weights (a, b) are TrainConfig's defaults
        c = TrainConfig()
        assert (c.loss_a, c.loss_b) == (0.5, 0.01)


class TestFusionHead:
    def test_frozen_zero_is_identity(self):
        # the text-only arm: a zeroed, frozen projection adds nothing to y_e
        head = FusionHead(gcn_out=3, dim=4, seed=0)
        head.proj.data[:] = 0
        head.proj.requires_grad = False
        y_e = tape.const(rnd((2, 4), 13))
        zs = [tape.const(rnd((5, 3), 14 + i)) for i in range(4)]
        fused = head.fuse(y_e, *zs, rows=[0, 2])
        assert np.array_equal(fused.data, y_e.data)

    def test_additive_shift(self):
        head = FusionHead(gcn_out=3, dim=4, seed=1)
        y_e = rnd((2, 4), 18)
        zs = [rnd((5, 3), 19 + i) for i in range(4)]
        rows = [1, 4]
        fused = head.fuse(tape.const(y_e), *[tape.const(z) for z in zs], rows=rows)
        # arguments are (z_f, z_r, z_sf, z_sr) but the projection input is
        # ordered (z_r, z_f, z_sr, z_sf)
        z_cat = np.concatenate([zs[1][rows], zs[0][rows],
                                zs[3][rows], zs[2][rows]], axis=1)
        assert np.allclose(fused.data, y_e + z_cat @ head.proj.data, atol=1e-6)

    def test_gradient(self):
        head = FusionHead(gcn_out=2, dim=3, seed=2)
        head.proj.data = head.proj.data.astype(np.float64)
        y_e = tape.const(rnd((2, 3), 23))
        zs = [tape.const(rnd((4, 2), 24 + i)) for i in range(4)]

        def loss():
            return tape.sum_squares(head.fuse(y_e, *zs, rows=[0, 3]))

        report = check_gradients(loss, [head.proj])
        assert report["ok"], report["failures"][:3]


def tiny_model():
    tok = Tokenizer.build(["apple pie", "orange tree", "green fruit"], max_len=16)
    cfg = ModelConfig(dim=6, gcn_hidden=4, gcn_out=3, gcn_layers=1,
                      max_len=16)
    return Model(tok, feature_dim=5, config=cfg, seed=0), tok


def tiny_snapshot():
    """Three entities over tiny_model's vocabulary and feature_dim."""
    entities = [EntityRecord(f"Q{i}", t, d, 2020) for i, (t, d) in
                enumerate((("apple", "pie"), ("orange", "tree"),
                           ("green", "fruit")))]
    mentions = [MentionRecord("green", e.title, "", e.qid, "new", 2020)
                for e in entities]
    return Snapshot(year=2020, entities=entities, mentions=mentions,
                    index=EntityIndex([e.qid for e in entities]),
                    structure=AdjacencyMatrix(n=3, edges=[(0, 1)]),
                    feature_graph=AdjacencyMatrix(n=3, edges=[(1, 2)]),
                    feature_matrix=FeatureMatrix(
                        n=3, m=5, ones=[(0, 0), (1, 2), (2, 4)],
                        column_tokens=list(range(5))))


class TestModel:
    def test_param_names_disjoint_and_complete(self):
        model, _ = tiny_model()
        names = set(model.params)
        assert any(n.startswith("m_enc.") for n in names)
        assert any(n.startswith("e_enc.") for n in names)
        assert {f"gcn.{s}.l0" for s in ("wf", "wr", "ws")} <= names
        assert "fusion.proj" in names
        total = (len(model.mention_encoder.params)
                 + len(model.entity_encoder.params)
                 + len(model.gcn.params) + 1)
        assert len(names) == total

    def test_frozen_fusion_excluded_from_training(self):
        # with requires_grad off the projection gets no gradient, so Adam
        # never moves it
        model, _ = tiny_model()
        proj = model.fusion.proj
        proj.data[:] = 0
        proj.requires_grad = False
        snap = tiny_snapshot()
        before = {n: p.data.copy() for n, p in model.params.items()}
        opt = Adam(lr=0.01)
        train_step(snap.mentions, snap, model, opt,
                   TrainConfig(learning_rate=0.01))
        assert proj.grad is None and "fusion.proj" not in opt.m
        assert proj.data.tobytes() == before["fusion.proj"].tobytes()
        assert "fusion.proj" in model.params
        moved = {n for n, p in model.params.items()
                 if not np.array_equal(p.data, before[n])}
        assert moved == set(model.params) - {"fusion.proj"}

    def test_encoder_seeds_differ(self):
        model, _ = tiny_model()
        assert not np.array_equal(model.mention_encoder.params["m_enc.emb"].data,
                                  model.entity_encoder.params["e_enc.emb"].data)

    def test_entity_table_shape_and_empty(self):
        model, _ = tiny_model()
        ents = [EntityRecord("Q1", "apple", "pie", 2020),
                EntityRecord("Q2", "orange", "tree", 2020)]
        table = model.entity_table(ents)
        assert table.shape == (2, 6)
        assert model.entity_table([]).shape == (0, 6)

    def test_entity_table_matches_encoder(self):
        model, tok = tiny_model()
        e = EntityRecord("Q1", "apple", "pie", 2020)
        table = model.entity_table([e])
        direct = model.entity_encoder.encode_ids(tok.render_entity(e))
        assert np.array_equal(table[0], direct)

    def test_inference_ignores_graph_branch(self):
        # scoring through entity_table must not move when GCN or fusion
        # parameters are perturbed
        model, tok = tiny_model()
        ents = [EntityRecord("Q1", "apple", "pie", 2020)]
        ms = [tok.render_mention(
            MentionRecord("green", "apple", "fruit", "Q1", "new", 2020))]
        before_e = model.entity_table(ents)
        before_m = model.encode_mentions(ms).data.copy()
        for name in list(model.gcn.params) + ["fusion.proj"]:
            model.params[name].data += 10.0
        assert np.array_equal(model.entity_table(ents), before_e)
        assert np.array_equal(model.encode_mentions(ms).data, before_m)

    def test_encode_mentions_stacks_rows(self):
        model, tok = tiny_model()
        ms = [tok.render_mention(MentionRecord("", w, "", q, "new", 2020))
              for w, q in (("apple", "Q1"), ("orange", "Q2"))]
        batch = model.encode_mentions(ms).data
        single = model.encode_mentions([ms[1]]).data
        assert batch.shape == (2, 6)
        assert np.array_equal(batch[1], single[0])
