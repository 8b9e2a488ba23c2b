"""Per-layer metrics derived from a traced cold run and a traced resume.

Every metric comes from the cold phase unless its name starts with
``resume.``. Times are span totals (a span includes its children);
``trace.*`` metrics describe the trace itself.
"""

from __future__ import annotations

import numpy as np

TAPE_OPS = ("spmm", "matmul", "gather_rows", "gram", "hsic", "el_loss",
            "concat_rows", "mean_rows")


class Phase:
    """Span totals and call counts of one traced phase, with its wall time
    and the counters it added."""

    def __init__(self, tracer, arrays, lo, hi, wall, counters):
        self.tracer = tracer
        self.wall, self.counters = wall, counters
        ids, start, end, parent, self_ns = arrays
        self.lo, self.hi = lo, hi
        self.ids, self.start, self.end, self.parent = ids, start, end, parent
        sl = slice(lo, hi)
        n = len(tracer.names)
        dur = (end[sl] - start[sl]).astype(np.float64)
        self.calls_by_id = np.bincount(ids[sl], minlength=n)
        self.ns_by_id = np.bincount(ids[sl], weights=dur, minlength=n)
        self.self_ns_by_id = np.bincount(ids[sl], weights=self_ns[sl], minlength=n)

    def self_time(self, top: int) -> list:
        """[(span name, calls, total s, self s)] for the `top` largest self
        times; self time is a span's duration minus its children's."""
        order = np.argsort(-self.self_ns_by_id)[:top]
        return [(self.tracer.names[i], int(self.calls_by_id[i]),
                 self.ns_by_id[i] / 1e9, self.self_ns_by_id[i] / 1e9)
                for i in order if self.calls_by_id[i]]

    def _id(self, name):
        return self.tracer.name_index.get(name)

    def calls(self, *names) -> int:
        return int(sum(self.calls_by_id[i] for i in map(self._id, names)
                       if i is not None))

    def s(self, *names) -> float:
        return float(sum(self.ns_by_id[i] for i in map(self._id, names)
                         if i is not None)) / 1e9

    def ms(self, *names) -> float:
        return 1e3 * self.s(*names)

    def durations_ms(self, name) -> np.ndarray:
        nid = self._id(name)
        if nid is None:
            return np.zeros(0)
        sel = np.flatnonzero(self.ids[self.lo:self.hi] == nid) + self.lo
        return (self.end[sel] - self.start[sel]) / 1e6

    def per_mention_ms(self) -> np.ndarray:
        """Gap between consecutive gold_rank ends inside one
        evaluate_mentions call: encoding plus ranking of one mention."""
        rank_id = self._id("evaluate.gold_rank")
        if rank_id is None:
            return np.zeros(0)
        sel = np.flatnonzero(self.ids[self.lo:self.hi] == rank_id) + self.lo
        out = []
        for p in np.unique(self.parent[sel]):
            ends = self.end[sel[self.parent[sel] == p]]
            out.append(np.diff(np.concatenate(([self.start[p]], ends))))
        return np.concatenate(out) / 1e6 if out else np.zeros(0)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(cold: Phase, resume: Phase, n_years: int,
                  untraced_wall: float, startup: float) -> dict:
    """name -> (value, unit, samples)."""
    counters = cold.counters
    m = {}

    stages = {"tokenizer": "pipeline.build_tokenizer",
              "graphs": "pipeline.build_year_graphs",
              "train": "pipeline.train_year",
              "eval": "pipeline.evaluate_category"}
    for label, span in stages.items():
        m[f"pipeline.{label}_s"] = (cold.s(span), "s", cold.calls(span))
    loads = cold.calls("pipeline.load_year_corpus")
    m["pipeline.corpus_loads"] = (loads, "count", 1)
    m["pipeline.corpus_load_ratio"] = (n_years / loads if loads else 0.0,
                                       "ratio", loads)
    readers = ("records.load_entities", "records.load_mentions",
               "records.load_triples")
    m["records.load_s"] = (cold.s(*readers), "s", cold.calls(*readers))
    m["records.rows_read"] = (counters.get("records.rows_read", 0), "count", 1)

    for label, span in (("embed", "embed_descriptions"), ("knn", "build_knn_graph"),
                        ("structure", "build_structure_graph"),
                        ("feature_matrix", "build_feature_matrix")):
        m[f"graphs.{label}_s"] = (cold.s(f"graphs.{span}"), "s",
                                  cold.calls(f"graphs.{span}"))
    for name in ("knn_sim_bytes", "knn_edges", "feature_cols"):
        unit = "bytes" if name.endswith("bytes") else "count"
        m[f"graphs.{name}"] = (counters.get(f"graphs.{name}", 0), unit, 1)
    writes = ("graphs.save_adjacency", "graphs.save_feature_matrix",
              "records.EntityIndex.save")
    reads = ("graphs.load_adjacency", "graphs.load_feature_matrix")
    m["graphs.write_s"] = (cold.s(*writes), "s", cold.calls(*writes))
    m["graphs.read_s"] = (cold.s(*reads), "s", cold.calls(*reads))
    m["graphs.bytes_written"] = (counters.get("graphs.bytes_written", 0), "bytes", 1)
    m["checkpoint.save_ms"] = (cold.ms("checkpoint.save_checkpoint"), "ms",
                               cold.calls("checkpoint.save_checkpoint"))
    m["checkpoint.load_ms"] = (cold.ms("checkpoint.load_checkpoint"), "ms",
                               cold.calls("checkpoint.load_checkpoint"))
    m["checkpoint.bytes"] = (counters.get("checkpoint.bytes", 0), "bytes", 1)

    for op in TAPE_OPS:
        calls = cold.calls(f"tape.{op}")
        m[f"tape.{op}.calls"] = (calls, "count", 1)
        m[f"tape.{op}.fwd_ms"] = (cold.ms(f"tape.{op}"), "ms", calls)
        m[f"tape.{op}.bwd_ms"] = (cold.ms(f"tape.{op}.bwd"), "ms",
                                  cold.calls(f"tape.{op}.bwd"))
    m["tape.backward_ms"] = (cold.ms("tape.Tensor.backward"), "ms",
                             cold.calls("tape.Tensor.backward"))
    m["tape.spmm.flops"] = (counters.get("tape.spmm.flops", 0), "flop", 1)
    m["tape.gather_rows.bwd_bytes"] = (
        counters.get("tape.gather_rows.bwd_bytes", 0), "bytes", 1)

    for label, span in (("encode_mentions", "model.Model.encode_mentions"),
                        ("encode_entities", "model.Model.encode_entities"),
                        ("gcn_forward", "model.GcnStack.forward"),
                        ("fuse", "model.FusionHead.fuse"),
                        ("consistency", "model.consistency_loss"),
                        ("distinct", "model.distinct_loss")):
        m[f"model.{label}_ms"] = (cold.ms(span), "ms", cold.calls(span))

    steps = cold.durations_ms("trainer.train_step")
    m["trainer.steps"] = (len(steps), "count", 1)
    m["trainer.step_ms_p50"] = (_pct(steps, 50), "ms", len(steps))
    m["trainer.step_ms_p90"] = (_pct(steps, 90), "ms", len(steps))
    m["trainer.prepare_ms"] = (cold.ms("trainer.Snapshot.prepare"), "ms",
                               cold.calls("trainer.Snapshot.prepare"))
    m["trainer.adam_ms"] = (cold.ms("trainer.Adam.step"), "ms",
                            cold.calls("trainer.Adam.step"))

    per_mention = cold.per_mention_ms()
    m["evaluate.cells"] = (cold.calls("evaluate.recall_report"), "count", 1)
    m["evaluate.mentions_ranked"] = (cold.calls("evaluate.gold_rank"), "count", 1)
    m["evaluate.entity_table_ms"] = (cold.ms("evaluate.text_entity_table"), "ms",
                                     cold.calls("evaluate.text_entity_table"))
    m["evaluate.mention_ms_p50"] = (_pct(per_mention, 50), "ms", len(per_mention))
    m["evaluate.mention_ms_p99"] = (_pct(per_mention, 99), "ms", len(per_mention))
    m["evaluate.rank_ms"] = (cold.ms("evaluate.gold_rank"), "ms",
                             cold.calls("evaluate.gold_rank"))

    writers = ("reporting.write_gap_matrix_csv", "reporting.write_aggregate_csv",
               "reporting.write_recall_vs_gap_plot", "reporting.write_boost_csv")
    m["reporting.write_ms"] = (cold.ms(*writers), "ms", cold.calls(*writers))
    stage_sum = sum(cold.s(span) for span in stages.values())
    m["cli.overhead_s"] = (cold.s("cli.main") - stage_sum, "s", 1)
    m["cli.startup_s"] = (startup, "s", 1)

    m["resume.wall_s"] = (resume.wall, "s", 1)
    m["resume.records_load_s"] = (resume.s(*readers), "s", resume.calls(*readers))
    m["resume.checkpoint_load_ms"] = (resume.ms("checkpoint.load_checkpoint"), "ms",
                                      resume.calls("checkpoint.load_checkpoint"))
    m["resume.corpus_loads"] = (resume.calls("pipeline.load_year_corpus"), "count", 1)

    hot_graph = (cold.s("graphs.build_knn_graph")
                 + sum(cold.s(f"tape.{op}", f"tape.{op}.bwd")
                       for op in ("spmm", "gram", "hsic")))
    hot_text = cold.s("tape.gather_rows.bwd", "trainer.Adam.step")
    train_s = cold.s(stages["train"])
    m["trace.knn_graph_ops_share"] = (hot_graph / untraced_wall, "fraction", 1)
    m["trace.gather_bwd_adam_share"] = (hot_text / train_s if train_s else 0.0,
                                        "fraction", 1)
    m["trace.resume_eval_share"] = (resume.s(stages["eval"]) / resume.wall,
                                    "fraction", 1)
    m["trace.overhead_s"] = (cold.wall - untraced_wall, "s", 1)
    m["trace.spans"] = (len(cold.tracer.starts), "count", 1)
    return m
