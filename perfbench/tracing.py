"""Outside-in tracing of templink: spans recorded around the package's
public functions, without changing a line of the package.

Each public function is wrapped at every name through which a caller looks
it up (``pipeline`` binds ``build_knn_graph`` at import time, so
``templink.pipeline.build_knn_graph`` is patched as well as
``templink.graphs.build_knn_graph``). Methods are wrapped on their classes.
A tape op records one forward span, and the ``_backward`` closures of the
tensors it created record ``<op>.bwd`` spans when ``Tensor.backward`` runs
them. Ops called by another tape op (``matmul`` inside ``hsic``) are
attributed to the outer op, so op spans never nest.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out by ``save``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("cli", "pipeline", "records", "textenc", "graphs", "tape", "model",
           "trainer", "evaluate", "checkpoint", "reporting")

METHODS = {
    "tape": {"Tensor": ("backward",)},
    "records": {"EntityIndex": ("save",)},
    "textenc": {"Tokenizer": ("build", "token_ids", "render_mention",
                              "render_entity"),
                "TextEncoder": ("encode_tensor", "encode_ids")},
    "graphs": {"AdjacencyMatrix": ("to_csr", "degrees"),
               "FeatureMatrix": ("to_dense",),
               "VocabFilter": ("retained",)},
    "model": {"GcnStack": ("forward",), "FusionHead": ("fuse",),
              "Model": ("encode_mentions", "encode_entities", "entity_table")},
    "trainer": {"Snapshot": ("prepare",), "Adam": ("step",)},
}

# tape functions that build no graph node
NOT_OPS = {"param", "const", "check_gradients", "centering_matrix"}


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p and os.path.exists(p))


class Tracer:
    """Installs span-recording wrappers into the loaded templink modules."""

    def __init__(self):
        self.names = []
        self.name_index = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counters = {}
        self._stack = []
        self._in_op = False
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_index.get(name)
        if nid is None:
            nid = self.name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def _wrap_op(self, name, fn, tensor_cls):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._in_op:
                return fn(*args, **kwargs)
            tracer._in_op = True
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._in_op = False
            hook = OP_HOOKS.get(name)
            extra = hook(tracer, args, out) if hook else 0
            tracer._wrap_backward(name + ".bwd", out, (*args, *kwargs.values()),
                                  tensor_cls, extra)
            return out

        return traced

    def _wrap_backward(self, name, out, inputs, tensor_cls, extra_bytes):
        """Wrap the backward closure of every node the op created."""
        stop = set()
        for a in inputs:
            if isinstance(a, tensor_cls):
                stop.add(id(a))
            elif isinstance(a, (list, tuple)):
                stop.update(id(t) for t in a if isinstance(t, tensor_cls))
        todo = [out] if isinstance(out, tensor_cls) else []
        seen = set()
        tracer = self
        while todo:
            t = todo.pop()
            if id(t) in stop or id(t) in seen:
                continue
            seen.add(id(t))
            todo.extend(t._parents)
            if t._backward is None:
                continue

            def traced_bwd(g, _fn=t._backward, _extra=extra_bytes):
                idx = tracer._open(name)
                try:
                    _fn(g)
                finally:
                    tracer._close(idx)
                if _extra:
                    tracer.count(name + "_bytes", _extra)

            t._backward = traced_bwd
            extra_bytes = 0   # count an op's bytes once

    def _patch(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"templink.{m}") for m in MODULES}
        tensor_cls = mods["tape"].Tensor
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if short == "tape" and attr not in NOT_OPS:
                    wrapped = self._wrap_op(name, fn, tensor_cls)
                else:
                    wrapped = self._wrap(name, fn, AFTER.get(name))
                for other in mods.values():
                    for a, v in list(vars(other).items()):
                        if v is fn:
                            self._patch(other, a, wrapped)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw, AFTER.get(name))
                    self._patch(cls, meth, wrapped)
        return self

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results ---------------------------------------------------------

    def arrays(self):
        """(name ids, start ns, end ns, parent index, self ns) as numpy arrays."""
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        start = np.frombuffer(self.starts, dtype=np.int64)
        end = np.frombuffer(self.ends, dtype=np.int64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return names, start, end, parent, dur - child

    def save(self, path):
        names, start, end, parent, self_ns = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=names, start_ns=start,
                 end_ns=end, parent=parent, self_ns=self_ns)


# -- per-call counters, computed from arguments and results ---------------

def _knn(tracer, args, kwargs, out):
    n = args[0].shape[0]
    tracer.count("graphs.knn_sim_bytes", n * n * 8)
    tracer.count("graphs.knn_edges", out.nnz)


def _feature_matrix(tracer, args, kwargs, out):
    tracer.count("graphs.feature_cols", out.m)


def _graph_file(tracer, args, kwargs, out):
    path = str(args[1])
    tracer.count("graphs.bytes_written", _file_bytes(path, path + ".cols"))


def _index_file(tracer, args, kwargs, out):
    tracer.count("graphs.bytes_written", _file_bytes(args[1]))


def _checkpoint_file(tracer, args, kwargs, out):
    tracer.count("checkpoint.bytes", _file_bytes(args[0]))


def _rows(tracer, args, kwargs, out):
    tracer.count("records.rows_read", len(out))


AFTER = {
    "graphs.build_knn_graph": _knn,
    "graphs.build_feature_matrix": _feature_matrix,
    "graphs.save_adjacency": _graph_file,
    "graphs.save_feature_matrix": _graph_file,
    "records.EntityIndex.save": _index_file,
    "checkpoint.save_checkpoint": _checkpoint_file,
    "records.load_entities": _rows,
    "records.load_mentions": _rows,
    "records.load_triples": _rows,
}


def _spmm_flops(tracer, args, out):
    tracer.count("tape.spmm.flops", 2 * args[0].nnz * out.data.shape[1])
    return 0


def _gather_bwd_bytes(tracer, args, out):
    table = args[0]
    if getattr(table, "requires_grad", False):
        return table.data.shape[0] * table.data.shape[1] * 4
    return 0


OP_HOOKS = {"tape.spmm": _spmm_flops, "tape.gather_rows": _gather_bwd_bytes}
