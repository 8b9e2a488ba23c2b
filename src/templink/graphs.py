"""Snapshot graph construction: structure graph, kNN feature graph,
binary feature matrix, and their on-disk sparse format.

File format (text, tab-separated): header ``SPARSE v1 \\t n \\t m \\t nnz
\\t checksum`` followed by one ``i \\t j`` pair per line in lexicographic
order. Adjacency files use m = n and store each undirected edge once with
i < j. The checksum is the CRC32 of the body bytes, in hex.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)


class MatrixFormatError(Exception):
    pass


@dataclass
class AdjacencyMatrix:
    """Undirected simple graph on n nodes; each edge stored once as (i, j), i < j."""

    n: int
    edges: list = field(default_factory=list)

    def __post_init__(self):
        canon = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            canon.add((min(i, j), max(i, j)))
        self.edges = sorted(canon)

    @property
    def nnz(self):
        return len(self.edges)

    def degrees(self):
        deg = np.zeros(self.n, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def to_csr(self):
        """Symmetric 0/1 CSR matrix (both directions materialized)."""
        if not self.edges:
            return sp.csr_matrix((self.n, self.n), dtype=np.float64)
        rows, cols = [], []
        for i, j in self.edges:
            rows += [i, j]
            cols += [j, i]
        data = np.ones(len(rows), dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


@dataclass
class FeatureMatrix:
    """Binary n x m entity-by-token matrix; ones stored as sorted (row, col)."""

    n: int
    m: int
    ones: list = field(default_factory=list)
    column_tokens: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.column_tokens) != self.m:
            raise ValueError("column_tokens length must equal m")
        for i, j in self.ones:
            if not (0 <= i < self.n and 0 <= j < self.m):
                raise ValueError(f"entry ({i},{j}) out of range")
        self.ones = sorted(set(self.ones))

    def to_dense(self, dtype=np.float32):
        x = np.zeros((self.n, self.m), dtype=dtype)
        for i, j in self.ones:
            x[i, j] = 1
        return x


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
    edges = set()
    skipped = 0
    for t in triples:
        if t.head_qid in index and t.tail_qid in index:
            a, b = index.row(t.head_qid), index.row(t.tail_qid)
            if a == b:
                skipped += 1
                continue
            edges.add((min(a, b), max(a, b)))
        else:
            skipped += 1
    if skipped:
        log.info("structure graph: skipped %d unmatched/self triples", skipped)
    return AdjacencyMatrix(n=len(index), edges=sorted(edges))


def embed_descriptions(entities, dim: int = 64, seed: int = 0) -> np.ndarray:
    """n x d seeded feature-hashing embedding of each entity's title and
    description, over whitespace/punctuation tokens.

    A row is the mean of per-token gaussian vectors, summed per occurrence
    in float64 in token order; a row without tokens is zero. A token's
    vector is drawn from a PCG64 generator seeded with CRC32(token) mixed
    with the global seed, so embeddings are stable across processes and
    runs, and it is drawn once per call.
    """
    from .textenc import split_text
    mix = seed * 0x9E3779B1 & 0xFFFFFFFF
    drawn = {}
    out = np.zeros((len(entities), dim), dtype=np.float32)
    for i, e in enumerate(entities):
        tokens = split_text(e.title + " " + e.description)
        acc = np.zeros(dim, dtype=np.float64)
        for tok in tokens:
            if tok not in drawn:
                key = zlib.crc32(tok.encode("utf-8")) ^ mix
                drawn[tok] = np.random.Generator(
                    np.random.PCG64(key)).standard_normal(dim)
            acc += drawn[tok]
        if tokens:
            out[i] = acc / len(tokens)
    return out


def build_knn_graph(embeddings: np.ndarray, k: int) -> AdjacencyMatrix:
    """Union-symmetrized cosine kNN graph; ties broken by lower row index."""
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
    unit = x / norms[:, None]
    sim = unit @ unit.T
    edges = set()
    order = np.arange(n)
    for i in range(n):
        row = sim[i].copy()
        row[i] = -np.inf
        # sort by (-similarity, index): stable tie-break toward lower index
        nbrs = sorted(order, key=lambda j: (-row[j], j))[:k]
        for j in nbrs:
            edges.add((min(i, j), max(i, j)))
    return AdjacencyMatrix(n=n, edges=sorted(edges))


def build_feature_matrix(entities, tokenizer, vocab_filter: VocabFilter) -> FeatureMatrix:
    """Binary entity-by-token matrix over frequency-filtered description tokens.

    Frequencies count total token occurrences across all descriptions.
    Columns are retained token ids in ascending order.
    """
    per_entity = [tokenizer.token_ids(e.description) for e in entities]
    counts: dict = {}
    for ids in per_entity:
        for t in ids:
            counts[t] = counts.get(t, 0) + 1
    retained = vocab_filter.retained(counts)
    if not retained:
        raise ValueError(
            "no tokens fall inside the frequency band "
            f"[{vocab_filter.min_count}, {vocab_filter.max_count}]; "
            "adjust min/max count thresholds")
    col = {t: j for j, t in enumerate(retained)}
    ones = set()
    for i, ids in enumerate(per_entity):
        for t in ids:
            j = col.get(t)
            if j is not None:
                ones.add((i, j))
    return FeatureMatrix(n=len(entities), m=len(retained),
                         ones=sorted(ones), column_tokens=retained)


def _write_sparse(path, n, m, pairs):
    body = "".join(f"{i}\t{j}\n" for i, j in pairs)
    checksum = format(zlib.crc32(body.encode("utf-8")), "08x")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"SPARSE v1\t{n}\t{m}\t{len(pairs)}\t{checksum}\n")
        fh.write(body)


def _read_sparse(path):
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 5 or header[0] != "SPARSE v1":
            raise MatrixFormatError(f"{path}: bad sparse header")
        n, m, nnz, checksum = int(header[1]), int(header[2]), int(header[3]), header[4]
        body = fh.read()
    if format(zlib.crc32(body.encode("utf-8")), "08x") != checksum:
        raise MatrixFormatError(f"{path}: checksum mismatch")
    pairs = []
    for line in body.splitlines():
        i, j = line.split("\t")
        pairs.append((int(i), int(j)))
    if len(pairs) != nnz:
        raise MatrixFormatError(f"{path}: nnz mismatch")
    return n, m, pairs


def save_adjacency(adj: AdjacencyMatrix, path):
    _write_sparse(path, adj.n, adj.n, adj.edges)


def load_adjacency(path) -> AdjacencyMatrix:
    n, m, pairs = _read_sparse(path)
    if n != m:
        raise MatrixFormatError(f"{path}: adjacency must be square")
    return AdjacencyMatrix(n=n, edges=pairs)


def save_feature_matrix(mat: FeatureMatrix, path, cols_path=None):
    _write_sparse(path, mat.n, mat.m, mat.ones)
    cols_path = Path(cols_path) if cols_path else Path(str(path) + ".cols")
    with cols_path.open("w", encoding="utf-8", newline="") as fh:
        for t in mat.column_tokens:
            fh.write(f"{t}\n")


def load_feature_matrix(path, cols_path=None) -> FeatureMatrix:
    n, m, pairs = _read_sparse(path)
    cols_path = Path(cols_path) if cols_path else Path(str(path) + ".cols")
    with cols_path.open("r", encoding="utf-8") as fh:
        tokens = [int(line.strip()) for line in fh if line.strip()]
    if len(tokens) != m:
        raise MatrixFormatError(f"{cols_path}: expected {m} column tokens")
    return FeatureMatrix(n=n, m=m, ones=pairs, column_tokens=tokens)


def sym_normalize(adj: AdjacencyMatrix) -> sp.csr_matrix:
    """S = D̃^{-1/2} (A + I) D̃^{-1/2} with degrees taken from A + I.

    Isolated nodes get S[i, i] = 1 through the added self-loop.
    """
    a_tilde = adj.to_csr() + sp.identity(adj.n, format="csr", dtype=np.float64)
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(d_inv_sqrt)
    return (d @ a_tilde @ d).tocsr()
