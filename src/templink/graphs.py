"""Snapshot graph construction: structure graph, kNN feature graph,
binary feature matrix, and the sparse text format they are written in.

File format (text, tab-separated): header ``SPARSE v1 \\t n \\t m \\t nnz
\\t checksum`` followed by one ``i \\t j`` pair per line in lexicographic
order. Adjacency files use m = n and store each undirected edge once with
i < j. The checksum is the CRC32 of the body bytes, in hex. The files are
outputs for inspection; nothing reads them back.

Only the CSR forms training multiplies by (``to_csr``, ``sym_normalize``)
import scipy, so building and writing graphs runs on numpy alone.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress

import numpy as np

from . import tape
from .checkpoint import atomic_open

log = logging.getLogger(__name__)

KNN_BLOCK = 256  # similarity rows whose top k build_knn_graph selects at once


def _unique_pairs(pairs, width):
    """The sorted unique rows of an (nnz, 2) int64 array whose second
    column lies in [0, width), found as the unique keys row * width + col."""
    return np.column_stack(np.divmod(
        np.unique(pairs[:, 0] * width + pairs[:, 1]), width))


@dataclass
class AdjacencyMatrix:
    """Undirected simple graph on n nodes; edges are the sorted unique rows
    (i, j), i < j, of an (nnz, 2) int64 array."""

    n: int
    edges: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero((e[:, 0] == e[:, 1])
                             | ((e < 0) | (e >= self.n)).any(axis=1))
        if bad.size:
            i, j = e[bad[0]].tolist()
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
        self.edges = _unique_pairs(np.sort(e, axis=1), self.n)

    @property
    def nnz(self):
        return len(self.edges)

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def to_csr(self):
        """Symmetric 0/1 CSR matrix (both directions materialized)."""
        import scipy.sparse as sp

        rows, cols = np.concatenate([self.edges, self.edges[:, ::-1]]).T
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                             shape=(self.n, self.n))


@dataclass
class FeatureMatrix:
    """Binary n x m entity-by-token matrix; ones are the sorted unique rows
    (row, col) of an (nnz, 2) int64 array."""

    n: int
    m: int
    ones: np.ndarray = field(default_factory=list)
    column_tokens: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.column_tokens) != self.m:
            raise ValueError("column_tokens length must equal m")
        o = np.asarray(self.ones, dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero(((o < 0) | (o >= (self.n, self.m))).any(axis=1))
        if bad.size:
            i, j = o[bad[0]].tolist()
            raise ValueError(f"entry ({i},{j}) out of range")
        self.ones = _unique_pairs(o, self.m)

    def to_dense(self, dtype=np.float32):
        x = np.zeros((self.n, self.m), dtype=dtype)
        x[self.ones[:, 0], self.ones[:, 1]] = 1
        return x

    def to_csr(self):
        """n x m 0/1 CSR matrix (float64)."""
        import scipy.sparse as sp

        rows, cols = self.ones.T
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                             shape=(self.n, self.m))


@dataclass
class VocabFilter:
    """Retains token ids whose corpus frequency lies in [min_count, max_count]."""

    min_count: int = 46
    max_count: int = 200

    def __post_init__(self):
        if self.min_count > self.max_count:
            raise ValueError("min_count must be <= max_count")

    def retained(self, counts: dict) -> list:
        return sorted(t for t, c in counts.items()
                      if self.min_count <= c <= self.max_count)


def build_structure_graph(triples, index) -> AdjacencyMatrix:
    """Edge (i, j) iff some triple connects two indexed qids.

    Direction and relation id are discarded; duplicate triples collapse.
    Triples with an endpoint outside the index are skipped (count logged).
    """
    row = index.qid_to_row
    pairs = np.array([(i, j) for head, _, tail in triples
                      if (i := row.get(head)) is not None
                      and (j := row.get(tail)) is not None],
                     dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    skipped = len(triples) - len(pairs)
    if skipped:
        log.info("structure graph: skipped %d unmatched/self triples", skipped)
    return AdjacencyMatrix(n=len(index), edges=pairs)


def _seed_words(keys) -> np.ndarray:
    """Row r is ``np.random.SeedSequence(keys[r]).generate_state(4,
    np.uint64)`` for an array of uint32 keys, the state PCG64(key) seeds
    from. A key below 2**32 is one entropy word, and numpy's seeding of one
    word is a fixed run of wrapping uint32 hash-and-mix steps, the same for
    every key, so each step runs once over all keys. The constants are
    those of numpy's ``bit_generator.pyx`` (pool of 4 words)."""

    def hasher(hash_const, mult):
        def hashmix(value):
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * mult & 0xFFFFFFFF
            value = value * hash_const
            return value ^ value >> 16
        return hashmix

    pool = np.zeros((4, len(keys)), dtype=np.uint32)
    pool[0] = keys
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.column_stack([lo | hi << 32
                            for lo, hi in zip(state[::2], state[1::2])])


def embed_descriptions(entities, tokenizer, dim: int = 64,
                       seed: int = 0) -> np.ndarray:
    """n x d seeded feature-hashing embedding of each entity's title and
    description, over the tokenizer's ids of the two texts.

    A row is the ``tape.mean_bags`` mean, in float64, of the gaussian
    vectors of its token occurrences; a row without tokens is zero. A
    token's vector is drawn from a PCG64 generator seeded with CRC32(token)
    mixed with the global seed, so embeddings are stable across processes
    and runs, and each row depends on its own entity alone. Each distinct
    token is drawn once per call, into a float64 table the call drops:
    numpy's own PCG64 seeds from the token's ``_seed_words`` row, the state
    ``PCG64(key)`` would derive. Every token of the texts must be in the
    tokenizer's vocabulary.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    seqs = [tokenizer.token_ids(e.title) + tokenizer.token_ids(e.description)
            for e in entities]
    ids, rows = np.unique(np.fromiter(chain.from_iterable(seqs), np.intp),
                          return_inverse=True)
    vocab = tokenizer.vocab
    vocab_ids = np.fromiter(vocab.values(), np.intp, len(vocab))
    hit = np.isin(vocab_ids, ids)
    token_of = dict(zip(vocab_ids[hit].tolist(), compress(vocab, hit.tolist())))
    mix = seed * 0x9E3779B1 & 0xFFFFFFFF
    keys = np.fromiter((zlib.crc32(token_of[i].encode("utf-8"))
                        for i in ids.tolist()), np.uint32, len(ids)) ^ mix
    words = iter(_seed_words(keys))

    class NextWords(ISeedSequence):  # hands each PCG64 its token's state
        def generate_state(self, n_words, dtype=np.uint32):
            return next(words)

    seed_seq = NextWords()
    vectors = np.empty((len(ids), dim))
    for vector in vectors:
        Generator(PCG64(seed_seq)).standard_normal(out=vector)
    flat = rows.tolist()
    starts = [0, *accumulate(map(len, seqs))]
    has = [i for i, seq in enumerate(seqs) if seq]
    out = np.zeros((len(entities), dim), dtype=np.float32)
    out[has] = tape.mean_bags(vectors, tape.Bags(
        [flat[starts[i]:starts[i + 1]] for i in has])).data
    return out


def build_knn_graph(embeddings: np.ndarray, k: int) -> AdjacencyMatrix:
    """Union-symmetrized cosine kNN graph; ties broken by lower row index.
    Similarity is one n x n product (a row-blocked product differs in the
    last bit). ``KNN_BLOCK`` rows at a time, ``np.partition`` finds each
    row's k-th largest similarity; only the columns at or above it (ties
    at the boundary included) are sorted by (-similarity, column), and the
    first k of each row kept."""
    n = embeddings.shape[0]
    if n < 2:
        raise ValueError("kNN graph needs at least 2 nodes")
    if k < 1 or k >= n:
        raise ValueError(f"k must satisfy 1 <= k < n (k={k}, n={n})")
    x = embeddings.astype(np.float64)
    norms = np.linalg.norm(x, axis=1)
    zero = np.where(norms == 0)[0]
    if zero.size:
        raise ValueError(f"zero-norm embedding at row {int(zero[0])}")
    if not np.isfinite(norms).all():  # a NaN would not rank
        raise ValueError("embedding with a non-finite norm at row "
                         f"{int(np.flatnonzero(~np.isfinite(norms))[0])}")
    unit = x / norms[:, None]
    sim = unit @ unit.T
    np.fill_diagonal(sim, -np.inf)
    nbrs = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, KNN_BLOCK):
        block = sim[lo:lo + KNN_BLOCK]
        kth = np.partition(block, n - k, axis=1)[:, n - k]
        at = np.flatnonzero(block >= kth[:, None])  # cols ascend per row
        rows, cols = np.divmod(at, n)
        order = np.lexsort((-block.ravel()[at], rows))  # stable: ties by col
        count = np.bincount(rows, minlength=len(block))
        start = np.cumsum(count) - count
        nbrs[lo:lo + len(block)] = cols[order][start[:, None] + np.arange(k)]
    return AdjacencyMatrix(n=n, edges=np.column_stack(
        [np.repeat(np.arange(n), k), nbrs.ravel()]))


def build_feature_matrix(entities, tokenizer, vocab_filter: VocabFilter) -> FeatureMatrix:
    """Binary entity-by-token matrix over frequency-filtered description tokens.

    Frequencies count total token occurrences across all descriptions.
    Columns are retained token ids in ascending order.
    """
    per_entity = [tokenizer.token_ids(e.description) for e in entities]
    tokens = np.array([t for ids in per_entity for t in ids], dtype=np.int64)
    ids, freq = np.unique(tokens, return_counts=True)
    retained = vocab_filter.retained(dict(zip(ids.tolist(), freq.tolist())))
    if not retained:
        raise ValueError(
            "no tokens fall inside the frequency band "
            f"[{vocab_filter.min_count}, {vocab_filter.max_count}]; "
            "adjust min/max count thresholds")
    rows = np.repeat(np.arange(len(entities)), [len(ids) for ids in per_entity])
    keep = np.isin(tokens, retained)
    ones = np.column_stack([rows[keep], np.searchsorted(retained, tokens[keep])])
    return FeatureMatrix(n=len(entities), m=len(retained), ones=ones,
                         column_tokens=retained)


def _write_sparse(path, n, m, pairs):
    body = "%d\t%d\n" * len(pairs) % tuple(pairs.ravel().tolist())
    checksum = format(zlib.crc32(body.encode("utf-8")), "08x")
    with atomic_open(path) as fh:
        fh.write(f"SPARSE v1\t{n}\t{m}\t{len(pairs)}\t{checksum}\n{body}"
                 .encode("utf-8"))


def save_adjacency(adj: AdjacencyMatrix, path):
    _write_sparse(path, adj.n, adj.n, adj.edges)


def save_feature_matrix(mat: FeatureMatrix, path):
    _write_sparse(path, mat.n, mat.m, mat.ones)
    with atomic_open(f"{path}.cols") as fh:
        fh.write("".join(f"{t}\n" for t in mat.column_tokens).encode("utf-8"))


def sym_normalize(adj: AdjacencyMatrix):
    """S = D̃^{-1/2} (A + I) D̃^{-1/2} as a scipy.sparse CSR matrix, with
    degrees taken from A + I.

    Isolated nodes get S[i, i] = 1 through the added self-loop.
    """
    import scipy.sparse as sp

    a_tilde = adj.to_csr() + sp.identity(adj.n, format="csr", dtype=np.float64)
    d = sp.diags(1.0 / np.sqrt(adj.degrees() + 1.0))
    return (d @ a_tilde @ d).tocsr()
