import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templink import graphs
from templink.graphs import (AdjacencyMatrix, FeatureMatrix, VocabFilter,
                             build_feature_matrix, build_knn_graph,
                             build_structure_graph, embed_descriptions,
                             save_adjacency, save_feature_matrix,
                             sym_normalize)
from templink.records import EntityIndex, EntityRecord
from templink.textenc import Tokenizer, split_text


def triple(h, t, r="P1"):
    return (h, r, t)


class TestStructureGraph:
    def test_unmatched_endpoint_skipped(self):
        idx = EntityIndex(["Q1", "Q2", "Q3"])
        adj = build_structure_graph([triple("Q1", "Q2"), triple("Q2", "Q9")], idx)
        assert adj.edges.tolist() == [[0, 1]]
        assert adj.n == 3

    def test_symmetrize_and_dedup(self):
        idx = EntityIndex(["Q1", "Q2"])
        adj = build_structure_graph(
            [triple("Q1", "Q2"), triple("Q2", "Q1", "P2")], idx)
        assert adj.edges.tolist() == [[0, 1]]

    def test_no_triples(self):
        adj = build_structure_graph([], EntityIndex(["Q1", "Q2"]))
        assert adj.edges.tolist() == [] and adj.n == 2

    def test_order_and_direction_invariance(self):
        idx = EntityIndex([f"Q{i}" for i in range(6)])
        ts = [triple("Q0", "Q3"), triple("Q2", "Q5"), triple("Q1", "Q4")]
        fwd = build_structure_graph(ts, idx)
        rev = build_structure_graph(
            [triple(t, h) for h, _, t in reversed(ts)], idx)
        assert fwd.edges.tolist() == rev.edges.tolist()

    def test_self_loop_dropped(self):
        idx = EntityIndex(["Q1"])
        assert build_structure_graph([triple("Q1", "Q1")], idx).edges.tolist() == []


class TestKnnGraph:
    def test_three_point_example(self):
        # brute-force cosine: p2's best neighbor is p1 (0.1/||p1|| > 0)
        emb = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        adj = build_knn_graph(emb, k=1)
        assert adj.edges.tolist() == [[0, 1], [1, 2]]

    def test_identical_rows_tie_rule(self):
        emb = np.ones((4, 3))
        adj = build_knn_graph(emb, k=1)
        # everyone picks the lowest other index: a star on node 0
        assert adj.edges.tolist() == [[0, 1], [0, 2], [0, 3]]

    def test_two_nodes(self):
        adj = build_knn_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), k=1)
        assert adj.edges.tolist() == [[0, 1]]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            build_knn_graph(np.eye(3), k=3)

    def test_zero_norm_row(self):
        emb = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row 1"):
            build_knn_graph(emb, k=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row(self, bad):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="non-finite norm at row 2"):
            build_knn_graph(emb, k=1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(8, 4))
        scaled = emb.copy()
        scaled[3] *= 17.0
        assert (build_knn_graph(emb, 2).edges.tolist()
                == build_knn_graph(scaled, 2).edges.tolist())

    def test_union_monotone_in_k(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(10, 5))
        e1 = set(map(tuple, build_knn_graph(emb, 1).edges.tolist()))
        e3 = set(map(tuple, build_knn_graph(emb, 3).edges.tolist()))
        assert e1 <= e3

    def test_degree_bound(self):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(9, 4))
        adj = build_knn_graph(emb, 2)
        assert (adj.degrees() >= 1).all()


def knn_oracle(emb, k):
    """The per-row ``sorted`` build that ``build_knn_graph`` replaced."""
    x = emb.astype(np.float64)
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    sim = unit @ unit.T
    edges = set()
    for i in range(len(x)):
        row = sim[i].copy()
        row[i] = -np.inf
        for j in sorted(range(len(x)), key=lambda j: (-row[j], j))[:k]:
            edges.add((min(i, j), max(i, j)))
    return [list(e) for e in sorted(edges)]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_knn_matches_per_row_sort(data):
    n = data.draw(st.integers(2, 300))
    k = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    base = rng.normal(size=(data.draw(st.integers(1, n)), data.draw(st.integers(1, 6))))
    if data.draw(st.booleans()):   # rounded rows: exact ties between distinct rows
        base = np.round(base)
        base[~base.any(axis=1)] = 1.0
    emb = base[rng.integers(len(base), size=n)]   # duplicated rows tie too
    if k + 2 <= n and data.draw(st.booleans()):
        # more than k + 1 copies of one row: each copy's top k is cut from
        # k + 1 or more ties, so the ties straddle position k
        copies = rng.choice(n, size=data.draw(st.integers(k + 2, n)),
                            replace=False)
        emb[copies] = emb[copies[0]]
    block = data.draw(st.sampled_from([1, 7, graphs.KNN_BLOCK]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "KNN_BLOCK", block)
        got = build_knn_graph(emb, k).edges.tolist()
    assert got == knn_oracle(emb, k)


def test_knn_peak_memory_is_the_product_and_one_block():
    # no block's sort state outlives the block: the traced peak stays
    # below 1.6 x the n x n float64 product
    n = 1500
    emb = np.random.default_rng(0).normal(size=(n, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        build_knn_graph(emb, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * n * n * 8


class TestIndexArrays:
    def test_empty_pairs_shape(self):
        assert AdjacencyMatrix(n=3, edges=[]).edges.shape == (0, 2)
        assert FeatureMatrix(n=2, m=1, ones=[], column_tokens=[7]).ones.shape == (0, 2)
        assert build_structure_graph([], EntityIndex(["Q1"])).edges.shape == (0, 2)

    def test_canonical_sorted_unique(self):
        adj = AdjacencyMatrix(n=4, edges=[(3, 1), (1, 3), (0, 2)])
        assert adj.edges.dtype == np.int64
        assert adj.edges.tolist() == [[0, 2], [1, 3]]
        mat = FeatureMatrix(n=2, m=2, ones=[(1, 0), (0, 1), (1, 0)],
                            column_tokens=[4, 5])
        assert mat.ones.tolist() == [[0, 1], [1, 0]]

    def test_first_bad_pair_in_input_order(self):
        with pytest.raises(ValueError, match=r"^self-loop on node 2$"):
            AdjacencyMatrix(n=3, edges=[(0, 1), (2, 2), (0, 5)])
        with pytest.raises(ValueError,
                           match=r"^edge \(0,5\) out of range for n=3$"):
            AdjacencyMatrix(n=3, edges=[(0, 1), (0, 5), (2, 2)])
        with pytest.raises(ValueError, match=r"^edge \(-1,1\) out of range"):
            AdjacencyMatrix(n=3, edges=[(-1, 1)])
        with pytest.raises(ValueError, match=r"^entry \(2,0\) out of range$"):
            FeatureMatrix(n=2, m=2, ones=[(0, 1), (2, 0), (0, -1)],
                          column_tokens=[4, 5])

    def test_csr_degrees_dense_agree(self):
        adj = AdjacencyMatrix(n=5, edges=[(0, 1), (3, 1), (4, 2)])
        dense = adj.to_csr().toarray()
        assert (dense == dense.T).all() and dense.sum() == 6 and dense[1, 3] == 1
        assert adj.degrees().tolist() == dense.sum(axis=1).astype(int).tolist()
        mat = FeatureMatrix(n=2, m=3, ones=[(1, 2), (0, 0)], column_tokens=[1, 2, 3])
        assert mat.to_dense().tolist() == [[1, 0, 0], [0, 0, 1]]
        csr = mat.to_csr()
        assert csr.dtype == np.float64 and csr.has_canonical_format
        assert np.array_equal(csr.toarray(), mat.to_dense(np.float64))
        assert FeatureMatrix(n=2, m=1, column_tokens=[1]).to_csr().nnz == 0


def toy_tokenizer(entities):
    return Tokenizer.build([e.title + " " + e.description for e in entities])


class TestFeatureMatrix:
    def make_entities(self, descs):
        return [EntityRecord(f"Q{i}", "t", d, 2020) for i, d in enumerate(descs)]

    def test_inclusive_band(self):
        # words appearing 1, 2, 3 times against band [2, 2]
        ents = self.make_entities(["solo twice thrice", "twice thrice", "thrice"])
        tok = toy_tokenizer(ents)
        mat = build_feature_matrix(ents, tok, VocabFilter(2, 2))
        assert mat.column_tokens == [tok.vocab["twice"]]
        mat3 = build_feature_matrix(ents, tok, VocabFilter(2, 3))
        assert mat3.column_tokens == sorted(
            [tok.vocab["twice"], tok.vocab["thrice"]])

    def test_membership_rows(self):
        ents = self.make_entities(["apple pie", "apple tart", "plain bread"])
        tok = toy_tokenizer(ents)
        mat = build_feature_matrix(ents, tok, VocabFilter(2, 10))
        j = mat.column_tokens.index(tok.vocab["apple"])
        dense = mat.to_dense()
        assert dense[0, j] == 1 and dense[1, j] == 1 and dense[2, j] == 0

    def test_all_zero_row_permitted(self):
        ents = self.make_entities(["apple apple", "unique words only"])
        tok = toy_tokenizer(ents)
        mat = build_feature_matrix(ents, tok, VocabFilter(2, 10))
        assert not mat.to_dense()[1].any()

    def test_no_retained_tokens_error(self):
        ents = self.make_entities(["one of each", "all words differ"])
        tok = toy_tokenizer(ents)
        with pytest.raises(ValueError, match="threshold"):
            build_feature_matrix(ents, tok, VocabFilter(5, 10))

    def test_row_ones_bounded(self):
        ents = self.make_entities(["a b c a b", "b c d", "c d e"])
        tok = toy_tokenizer(ents)
        mat = build_feature_matrix(ents, tok, VocabFilter(1, 100))
        dense = mat.to_dense()
        for i, e in enumerate(ents):
            assert dense[i].sum() <= len(set(e.description.split()))
        assert mat.m == len(mat.column_tokens)


def tokenizer_of(entities) -> Tokenizer:
    """A tokenizer whose vocabulary holds every title and description token."""
    return Tokenizer.build([t for e in entities
                            for t in (e.title, e.description)])


class TestEmbedDescriptions:
    def test_identical_entities_identical_rows(self):
        ents = [EntityRecord("Q1", "apple", "fruit", 2020),
                EntityRecord("Q2", "apple", "fruit", 2020)]
        emb = embed_descriptions(ents, tokenizer_of(ents), dim=8, seed=0)
        assert np.array_equal(emb[0], emb[1])

    def test_empty_corpus(self):
        emb = embed_descriptions([], tokenizer_of([]), dim=8, seed=0)
        assert emb.shape == (0, 8)

    def test_matches_per_occurrence_formula(self):
        ents = [EntityRecord("Q1", "apple", "sweet apple, sweet fruit", 2020),
                EntityRecord("Q2", "", "", 2020),
                EntityRecord("Q3", "Pear", "fruit apple pear", 2020)]
        mix = 7 * 0x9E3779B1 & 0xFFFFFFFF
        want = np.zeros((3, 16), dtype=np.float32)
        for i, e in enumerate(ents):
            tokens = split_text(e.title + " " + e.description)
            acc = np.zeros(16, dtype=np.float64)
            for tok in tokens:   # one fresh draw per occurrence
                key = zlib.crc32(tok.encode("utf-8")) ^ mix
                acc += np.random.Generator(np.random.PCG64(key)).standard_normal(16)
            if tokens:
                want[i] = (acc / len(tokens)).astype(np.float32)
        got = embed_descriptions(ents, tokenizer_of(ents), dim=16, seed=7)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert not got[1].any()

    def test_seed_words_equal_numpy_seed_sequence(self):
        # a numpy release that changes SeedSequence fails here, not as
        # vectors that no longer equal PCG64(key)'s
        keys = np.concatenate([[0, 1, 2**31, 2**32 - 1], np.random.default_rng(
            0).integers(0, 2**32, 10_000)]).astype(np.uint32)
        want = np.array([np.random.SeedSequence(k).generate_state(4, np.uint64)
                         for k in keys.tolist()])
        got = graphs._seed_words(keys)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    def test_deterministic_across_calls(self):
        ents = [EntityRecord("Q1", "apple", "sweet fruit", 2020)]
        a = embed_descriptions(ents, tokenizer_of(ents), dim=16, seed=3)
        b = embed_descriptions(ents, tokenizer_of(ents), dim=16, seed=3)
        assert a.tobytes() == b.tobytes()
        c = embed_descriptions(ents, tokenizer_of(ents), dim=16, seed=4)
        assert a.tobytes() != c.tobytes()

    def test_one_call_over_years_equals_per_year_calls(self):
        # "sweet" is in both years; Q3 has no tokens
        years = ([EntityRecord("Q1", "apple", "sweet fruit", 2020),
                  EntityRecord("Q3", "", "", 2020)],
                 [EntityRecord("Q2", "pear", "sweet apple", 2021)])
        tok = tokenizer_of([e for ents in years for e in ents])
        both = embed_descriptions(years[0] + years[1], tok, dim=16, seed=3)
        alone = np.concatenate([embed_descriptions(ents, tok, dim=16, seed=3)
                                for ents in years])
        assert both.tobytes() == alone.tobytes()
        assert not both[1].any()


class TestSymNormalize:
    def test_single_edge(self):
        s = sym_normalize(AdjacencyMatrix(n=2, edges=[(0, 1)]))
        assert np.allclose(s.toarray(), 0.5)

    def test_isolated_node(self):
        s = sym_normalize(AdjacencyMatrix(n=1, edges=[]))
        assert np.allclose(s.toarray(), [[1.0]])

    def test_path_graph(self):
        s = sym_normalize(AdjacencyMatrix(n=3, edges=[(0, 1), (1, 2)])).toarray()
        assert np.isclose(s[0, 1], 1.0 / np.sqrt(6.0))
        assert np.allclose(s, s.T)

    def test_regular_graph_entries(self):
        # 4-cycle is 2-regular: every stored off-diagonal entry is 1/(2+1)
        s = sym_normalize(AdjacencyMatrix(
            n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])).toarray()
        off = s[s != 0]
        assert np.allclose(off, 1.0 / 3.0)


class TestSparseIO:
    def test_empty_graph_bytes(self, tmp_path):
        save_adjacency(AdjacencyMatrix(n=5, edges=[]), tmp_path / "e.adj")
        assert (tmp_path / "e.adj").read_bytes() == b"SPARSE v1\t5\t5\t0\t00000000\n"

    def test_adjacency_bytes(self, tmp_path):
        emb = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        save_adjacency(build_knn_graph(emb, k=1), tmp_path / "a.adj")
        body = b"0\t1\n1\t2\n"
        assert format(zlib.crc32(body), "08x") == "ba021c4a"
        assert ((tmp_path / "a.adj").read_bytes()
                == b"SPARSE v1\t3\t3\t2\tba021c4a\n" + body)

    def test_feature_matrix_bytes(self, tmp_path):
        mat = FeatureMatrix(n=3, m=2, ones=[(2, 1), (0, 0)],
                            column_tokens=[9, 11])
        save_feature_matrix(mat, tmp_path / "f.mat")
        assert ((tmp_path / "f.mat").read_bytes()
                == b"SPARSE v1\t3\t2\t2\t48c633c2\n0\t0\n2\t1\n")
        assert (tmp_path / "f.mat.cols").read_bytes() == b"9\n11\n"

    def test_save_is_byte_stable(self, tmp_path):
        adj = AdjacencyMatrix(n=3, edges=[(1, 2), (0, 1)])
        save_adjacency(adj, tmp_path / "a.adj")
        save_adjacency(adj, tmp_path / "b.adj")
        assert (tmp_path / "a.adj").read_bytes() == (tmp_path / "b.adj").read_bytes()


@given(st.integers(2, 12), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_knn_deterministic(n, seed):
    emb = np.random.default_rng(seed).normal(size=(n, 3))
    k = min(2, n - 1)
    assert build_knn_graph(emb, k).edges.tolist() == build_knn_graph(emb, k).edges.tolist()
