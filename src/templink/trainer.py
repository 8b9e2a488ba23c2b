"""Deterministic training loop: batching with in-batch negatives, joint
forward over text and graph branches, Adam updates, checkpointing of the
model (a checkpoint holds no optimizer state)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import tape
from .checkpoint import load_checkpoint, save_checkpoint
from .graphs import sym_normalize
from .model import (Model, ModelConfig, consistency_loss, distinct_loss,
                    total_loss)
from .records import DataError
from .textenc import Tokenizer

log = logging.getLogger(__name__)

# bump whenever a change moves a checkpoint's bytes
CHECKPOINT_FORMAT = 3
# the loss breakdown of a train step, in loss-curve column order
LOSS_TERMS = ("L_e", "L_s", "L_d", "L_total")


class NumericError(Exception):
    """A loss term went non-finite during training."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    epochs: int = 1
    batch_size: int = 32
    loss_a: float = 0.5
    loss_b: float = 0.01
    grad_clip: float = 1.0

    def __post_init__(self):
        if (not 0 < self.learning_rate < np.inf or self.batch_size <= 0
                or self.epochs < 0):
            raise ValueError("invalid train config")
        for name in ("loss_a", "loss_b", "grad_clip"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class Snapshot:
    """One year's worth of training state: corpus plus prebuilt graphs."""

    year: int
    entities: list
    mentions: list
    index: object
    structure: object        # AdjacencyMatrix
    feature_graph: object    # AdjacencyMatrix
    feature_matrix: object   # FeatureMatrix
    s_r: object = None       # normalized CSR, built lazily
    s_f: object = None
    x: object = None         # feature matrix as CSR, built lazily

    def prepare(self):
        """Cache what no training step changes: the normalized graphs S_f
        and S_r and the feature matrix X as CSR, the three sparse matrices
        ``GcnStack.forward`` multiplies by."""
        if self.s_r is None:
            self.s_r = sym_normalize(self.structure)
            self.s_f = sym_normalize(self.feature_graph)
            self.x = self.feature_matrix.to_csr()
        return self


class _LiveRows:
    """Adam moments of the rows of one table that have had a gradient (the
    live rows), in the order they first had one: live row ``order[i]`` has
    moments ``m[i]`` and ``v[i]``, and ``slot[r]`` is i, or -1 while row r
    is not live. The arrays grow by doubling; their first ``n`` entries are
    in use, and m and v are zero past them."""

    __slots__ = ("slot", "order", "m", "v", "n")

    def __init__(self, data):
        self.slot = np.full(len(data), -1, dtype=np.intp)
        self.order = np.empty(0, dtype=np.intp)
        self.m = np.zeros((0,) + data.shape[1:], data.dtype)
        self.v = np.zeros_like(self.m)
        self.n = 0

    def admit(self, rows):
        """Append those of the distinct ``rows`` not yet live, each with
        m = v = 0."""
        new = rows[self.slot[rows] < 0]
        n, end = self.n, self.n + len(new)
        if end > len(self.order):
            cap = min(max(2 * len(self.order), end), len(self.slot))
            for name in ("order", "m", "v"):
                held = getattr(self, name)
                grown = np.zeros((cap,) + held.shape[1:], held.dtype)
                grown[:n] = held[:n]
                setattr(self, name, grown)
        self.order[n:end] = new
        self.slot[new] = np.arange(n, end)
        self.n = end


class Adam:
    """Adaptive-moment optimizer, beta=(0.9, 0.999), eps=1e-8, no decay.
    ``step`` updates each parameter's ``data`` in place, so a reference to
    a parameter array sees every update. When clipping fires it scales each
    gradient's stored values in place too (``train_step`` zeroes every
    gradient before the next backward).

    A parameter's first gradient fixes its moment layout for good. After
    a dense one, ``m[name]`` and ``v[name]`` are float32 arrays of the
    parameter's shape, and a later ``tape.RowGrad`` is made dense. After a
    RowGrad, ``live[name]`` (a ``_LiveRows``) holds the moments of the rows
    that have had a gradient (the live rows) in the order they went live,
    and a later dense gradient counts as a RowGrad over every row. A row
    enters with m = v = 0; a gradient updates every live row, with g = 0 on
    those it leaves out. A row never live has m = v = g = 0, which the
    dense update maps to m = v = 0 and p - 0 = p (-0.0 included), so
    skipping it is exact."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.m = {}
        self.v = {}
        self.live = {}
        self.step_count = 0

    def step(self, params: dict, clip: float = 0.0):
        grads = {n: p.grad for n, p in params.items() if p.grad is not None}
        stored = [g.values if isinstance(g, tape.RowGrad) else g
                  for g in grads.values()]
        if clip > 0 and grads:
            total = np.sqrt(np.float64(
                sum(np.square(g, dtype=np.float64).sum() for g in stored)))
            if total > clip:
                factor = np.float32(clip / total)
                for g in stored:
                    g *= factor
        self.step_count += 1
        t = self.step_count
        bias1 = np.float32(1.0 - self.BETA1 ** t)
        bias2 = np.float32(1.0 - self.BETA2 ** t)
        for name, g in sorted(grads.items()):
            p = params[name]
            sparse = isinstance(g, tape.RowGrad)
            live = self.live.get(name)
            if live is None and name not in self.m:  # the first gradient
                if sparse:
                    live = self.live[name] = _LiveRows(p.data)
                else:
                    self.m[name] = np.zeros(p.data.shape, p.data.dtype)
                    self.v[name] = np.zeros(p.data.shape, p.data.dtype)
            if live is None:
                self._update(p.data, self.m[name], self.v[name],
                             g.dense(len(p.data)) if sparse else g,
                             bias1, bias2)
                continue
            rows, values = ((g.rows, g.values) if sparse
                            else (np.arange(len(p.data)), g))
            live.admit(rows)
            n = live.n
            order = live.order[:n]
            g_live = np.zeros((n,) + values.shape[1:], values.dtype)
            g_live[live.slot[rows]] = values
            p_live = p.data[order]
            self._update(p_live, live.m[:n], live.v[:n], g_live, bias1, bias2)
            p.data[order] = p_live

    def _update(self, p, m, v, g, bias1, bias2):
        """One float32 Adam update of the arrays ``p``, ``m`` and ``v`` in
        place, from the gradient ``g``."""
        update = (1 - self.BETA1) * g
        m *= self.BETA1
        m += update
        denom = (1 - self.BETA2) * g
        denom *= g
        v *= self.BETA2
        v += denom
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += np.float32(self.EPS)
        np.divide(m, bias1, out=update)
        update *= np.float32(self.lr)
        update /= denom
        p -= update


def make_batches(mentions, batch_size: int, seed: int):
    """Seeded shuffle, then fixed-size chunks (last batch may be short)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(mentions))
    shuffled = [mentions[i] for i in order]
    return [shuffled[i:i + batch_size]
            for i in range(0, len(shuffled), batch_size)]


def train_step(batch, snapshot: Snapshot, model: Model, optimizer: Adam,
               config: TrainConfig):
    """One joint forward/backward/update; returns the loss breakdown.
    A parameter whose ``requires_grad`` is False gets no gradient, so Adam
    leaves it as is."""
    snapshot.prepare()
    params = model.params
    for p in params.values():
        p.zero_grad()

    tok = model.tokenizer
    gold_rows = [snapshot.index.row(m.gold_qid) for m in batch]
    y_m = model.encode_mentions([tok.render_mention(m) for m in batch])
    y_e = model.encode_entities([tok.render_entity(snapshot.entities[r])
                                 for r in gold_rows])

    z_f, z_r, z_sf, z_sr = model.gcn.forward(snapshot.s_f, snapshot.s_r,
                                             snapshot.x)
    y_e_fused = model.fusion.fuse(y_e, z_f, z_r, z_sf, z_sr, gold_rows)

    scores = tape.matmul(y_m, tape.transpose(y_e_fused))
    if len(batch) > 1:
        l_e = tape.el_loss(scores)
    else:
        # one pair has no in-batch negative, so the loss is 0 exactly; a
        # constant keeps the encoders and the fusion head out of the loss,
        # where a zero gradient would still step their Adam moments
        l_e = tape.const(np.float32(0.0))

    l_s = consistency_loss(z_sr, z_sf)
    l_d = distinct_loss(z_r, z_sr, z_f, z_sf)
    loss = total_loss(l_e, l_s, l_d, config.loss_a, config.loss_b)

    breakdown = {name: float(t.data)
                 for name, t in zip(LOSS_TERMS, (l_e, l_s, l_d, loss))}
    for name, value in breakdown.items():
        if not np.isfinite(value):
            raise NumericError(f"non-finite {name} in train step: {breakdown}")

    loss.backward()
    optimizer.step(params, clip=config.grad_clip)
    return breakdown


def save_model(path, model: Model, config: TrainConfig, extra: dict = None):
    """Write the model's parameters and the config that rebuilds it over the
    run's tokenizer (which the checkpoint does not hold)."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "model_config": asdict(model.config),
        "train_config": asdict(config),
        "feature_dim": model.gcn.params["gcn.wf.l0"].data.shape[0],
        **(extra or {}),
    }
    save_checkpoint(path, {name: p.data for name, p in model.params.items()},
                    meta)


def load_model(path, tokenizer: Tokenizer) -> Model:
    """Rebuild a Model over ``tokenizer`` from a checkpoint file, each
    parameter the checkpoint's tensor of its name. A checkpoint of another
    ``format`` than ``CHECKPOINT_FORMAT``, whose embedding tables do not
    have ``tokenizer.vocab_size`` rows, or whose tensors are missing or
    misshapen for its config, is a ``DataError``."""
    tensors, meta = load_checkpoint(path)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise DataError(
            f"{path}: checkpoint format {meta.get('format')!r}, but this "
            f"version reads format {CHECKPOINT_FORMAT!r}")
    emb = tensors.get("m_enc.emb")  # a missing one fails as Model builds
    if emb is not None and len(emb) != tokenizer.vocab_size:
        raise DataError(
            f"{path}: the checkpoint's embedding tables have {len(emb)} "
            f"rows, but the run's tokenizer has vocab_size "
            f"{tokenizer.vocab_size}")
    try:
        return Model(tokenizer, meta["feature_dim"],
                     ModelConfig(**meta["model_config"]), tensors=tensors)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def train(snapshot: Snapshot, model: Model, config: TrainConfig,
          seed: int = 0):
    """Full training run, updating ``model`` in place, batches shuffled from
    ``seed``; returns the loss curve rows (step, *``LOSS_TERMS``)."""
    snapshot.prepare()
    optimizer = Adam(config.learning_rate)
    curve = []
    step = 0
    for epoch in range(config.epochs):
        batches = make_batches(snapshot.mentions, config.batch_size,
                               seed + 7919 * epoch)
        for batch in batches:
            breakdown = train_step(batch, snapshot, model, optimizer, config)
            step += 1
            curve.append((step, *breakdown.values()))
    return curve
