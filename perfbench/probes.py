"""Scaling probes: public templink functions called directly at sizes the
workloads do not reach (8k entities, a 100k vocabulary), each timed alone."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


def _timed(fn, reps: int) -> float:
    """Median wall seconds of `reps` calls."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _random_graph(n: int, degree: int, rng):
    from templink.graphs import AdjacencyMatrix
    src = np.repeat(np.arange(n), degree)
    dst = rng.integers(n, size=n * degree)
    keep = src != dst
    return AdjacencyMatrix(n=n, edges=list(zip(src[keep].tolist(),
                                               dst[keep].tolist())))


def graph_step_ms(n=8000, m=2000, sample=2048) -> float:
    """One graph-branch forward and backward: three GCN stacks over two
    graphs, the sampled consistency loss and the HSIC distinct loss."""
    from templink import tape
    from templink.graphs import sym_normalize
    from templink.model import GcnStack, consistency_loss, distinct_loss

    rng = np.random.Generator(np.random.PCG64(0))
    s_f = sym_normalize(_random_graph(n, 5, rng))
    s_r = sym_normalize(_random_graph(n, 3, rng))
    x = tape.const((rng.random((n, m)) < 0.01).astype(np.float32))
    gcn = GcnStack(m, 32, 32, 2, seed=0)
    rows = np.sort(rng.choice(n, size=sample, replace=False))

    def step():
        for p in gcn.params.values():
            p.zero_grad()
        z_f, z_r, z_sf, z_sr = gcn.forward(s_f, s_r, x)
        pick = [tape.gather_rows(z, rows) for z in (z_f, z_r, z_sf, z_sr)]
        l_s = consistency_loss(pick[3], pick[2])
        l_d = distinct_loss(pick[1], pick[3], pick[0], pick[2])
        tape.add(tape.scale(l_s, 0.5), tape.scale(l_d, 0.01)).backward()

    return 1e3 * _timed(step, 2)


def encoder_ms(vocab: int, mode="mean", batch=64, length=32, dim=64) -> float:
    """Text-encoder forward and backward for one batch of sequences."""
    from templink import tape
    from templink.textenc import TextEncoder

    rng = np.random.Generator(np.random.PCG64(vocab))
    enc = TextEncoder(vocab, dim=dim, mode=mode, seed=0)
    seqs = [rng.integers(7, vocab, size=length).tolist() for _ in range(batch)]

    def step():
        for p in enc.params.values():
            p.zero_grad()
        out = tape.concat_rows([enc.encode_tensor(s) for s in seqs])
        tape.sum_squares(out).backward()

    return 1e3 * _timed(step, 3)


def knn_s(n: int, k=10, dim=64) -> float:
    from templink.graphs import build_knn_graph
    emb = np.random.Generator(np.random.PCG64(n)).standard_normal((n, dim))
    return _timed(lambda: build_knn_graph(emb.astype(np.float32), k), 1)


def gold_rank_ms(n=100_000, dim=64, mentions=20) -> float:
    """Per-mention ranking of the gold entity against n entities."""
    from templink.evaluate import gold_rank
    rng = np.random.Generator(np.random.PCG64(1))
    table = rng.standard_normal((n, dim)).astype(np.float32)
    ys = rng.standard_normal((mentions, dim)).astype(np.float32)
    golds = rng.integers(n, size=mentions)
    times = []
    for y, g in zip(ys, golds):
        t0 = perf_counter()
        gold_rank(y, table, int(g))
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_all() -> dict:
    """Per-layer probe metrics, in the units their names carry."""
    out = {"probe.graph_step_n8000_ms": graph_step_ms()}
    for label, vocab in (("1k", 1_000), ("30k", 30_000), ("100k", 100_000)):
        out[f"probe.mean_enc_v{label}_ms"] = encoder_ms(vocab)
    # The self-attention path (softmax_rows, per-sequence matmuls) is probed
    # here only: trained end to end at benchmark sizes, its recall varies too
    # much from seed to seed to serve as a bounded metric.
    out["probe.attn_enc_v30k_ms"] = encoder_ms(30_000, mode="attn")
    for label, n in (("1k", 1000), ("2k", 2000), ("4k", 4000)):
        out[f"probe.knn_n{label}_s"] = knn_s(n)
    out["probe.gold_rank_n100k_ms"] = gold_rank_ms()
    return out
