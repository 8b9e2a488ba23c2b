"""Joint text/graph model: bi-encoder, three-stack GCN, fusion head, losses.

Training couples the text and graph branches by adding a learned
projection of an entity's four GCN embeddings to its text embedding
before scoring. Inference scoring reads the text branch only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .textenc import TextEncoder, Tokenizer, _initializer


@dataclass
class ModelConfig:
    dim: int = 64              # text embedding dim d
    gcn_hidden: int = 32       # h
    gcn_out: int = 32          # g
    gcn_layers: int = 2
    max_len: int = 128

    def __post_init__(self):
        if min(self.dim, self.gcn_hidden, self.gcn_out, self.gcn_layers) < 1:
            raise ValueError("dim, gcn_hidden, gcn_out, gcn_layers must be >= 1")
        if self.max_len < 5:  # the mention template's 4 markers and 1 token
            raise ValueError("max_len must be >= 5")


class GcnStack:
    """Distinct stacks W_f, W_r plus one shared stack W_s applied to both graphs."""

    def __init__(self, input_dim: int, hidden: int, out: int, n_layers: int,
                 seed: int, tensors: dict = None):
        init = _initializer(seed, tensors)
        dims = [input_dim] + [hidden] * (n_layers - 1) + [out]
        self.n_layers = n_layers
        self.params = {}
        for stack in ("wf", "wr", "ws"):
            for layer in range(n_layers):
                name = f"gcn.{stack}.l{layer}"
                self.params[name] = init(name, dims[layer], dims[layer + 1])

    def _propagate(self, s_csr, x, stack: str) -> tape.Tensor:
        """The stack over one graph: relu(S·(X·W0)) at layer 0, then
        relu((S·Z)·W) at every layer above it."""
        w0 = self.params[f"gcn.{stack}.l0"]
        z = tape.relu(tape.spmm(s_csr, tape.spmm(x, w0)))
        for layer in range(1, self.n_layers):
            w = self.params[f"gcn.{stack}.l{layer}"]
            z = tape.relu(tape.matmul(tape.spmm(s_csr, z), w))
        return z

    def forward(self, s_f, s_r, x):
        """Returns (Z_f, Z_r, Z_sf, Z_sr), each n x out, ReLU after every layer.

        ``x`` is the n x m feature matrix X as a CSR matrix (what
        ``Snapshot.prepare`` holds), or a dense array or const tensor. Every
        stack multiplies its graph at every layer; ``spmm`` raises on a
        row-count mismatch.
        """
        x = x.data if isinstance(x, tape.Tensor) else x
        return (self._propagate(s_f, x, "wf"), self._propagate(s_r, x, "wr"),
                self._propagate(s_f, x, "ws"), self._propagate(s_r, x, "ws"))


class FusionHead:
    """Training-time projection P: (4 g) x d added onto entity text embeddings."""

    def __init__(self, gcn_out: int, dim: int, seed: int, tensors: dict = None):
        self.proj = _initializer(seed, tensors)("fusion.proj", 4 * gcn_out, dim)

    def fuse(self, y_e: tape.Tensor, z_f, z_r, z_sf, z_sr, rows) -> tape.Tensor:
        """y_e + P-projection of concat(z_r, z_f, z_sr, z_sf) for the given rows."""
        z_cat = tape.gather_rows(tape.concat_cols([z_r, z_f, z_sr, z_sf]), rows)
        return tape.add(y_e, tape.matmul(z_cat, self.proj))


def consistency_loss(z_sr: tape.Tensor, z_sf: tape.Tensor) -> tape.Tensor:
    """||Z_sr Z_sr^T - Z_sf Z_sf^T||_F^2 over the given rows."""
    return tape.gram_diff_sq(z_sr, z_sf)


def distinct_loss(z_r, z_sr, z_f, z_sf) -> tape.Tensor:
    """HSIC(Z_r, Z_sr) + HSIC(Z_f, Z_sf)."""
    return tape.add(tape.hsic(z_r, z_sr), tape.hsic(z_f, z_sf))


def total_loss(l_e, l_s, l_d, a: float, b: float) -> tape.Tensor:
    """L_e + a·L_s + b·L_d."""
    return tape.add(l_e, tape.add(tape.scale(l_s, a), tape.scale(l_d, b)))


class Model:
    """Owns the two text encoders, the GCN stacks, the fusion head, and config."""

    def __init__(self, tokenizer: Tokenizer, feature_dim: int,
                 config: ModelConfig = None, seed: int = 0,
                 tensors: dict = None):
        """Parameters drawn from four streams derived from ``seed``, or with
        ``tensors`` (a checkpoint's arrays by name) taken from them; a missing
        or misshapen one is a ``ValueError`` naming it."""
        self.config = config or ModelConfig()
        c = self.config
        self.tokenizer = tokenizer
        self.mention_encoder = TextEncoder(
            tokenizer.vocab_size, dim=c.dim, max_len=c.max_len,
            seed=seed * 4 + 1, prefix="m_enc", tensors=tensors)
        self.entity_encoder = TextEncoder(
            tokenizer.vocab_size, dim=c.dim, max_len=c.max_len,
            seed=seed * 4 + 2, prefix="e_enc", tensors=tensors)
        self.gcn = GcnStack(feature_dim, c.gcn_hidden, c.gcn_out,
                            c.gcn_layers, seed=seed * 4 + 3, tensors=tensors)
        self.fusion = FusionHead(c.gcn_out, c.dim, seed=seed * 4 + 4,
                                 tensors=tensors)
        self.params = {**self.mention_encoder.params,
                       **self.entity_encoder.params, **self.gcn.params,
                       "fusion.proj": self.fusion.proj}

    def encode_mentions(self, seqs) -> tape.Tensor:
        """Mention encodings of ``Tokenizer.render_mention`` sequences."""
        return self.mention_encoder.encode(tape.Bags(seqs))

    def encode_entities(self, seqs) -> tape.Tensor:
        """Entity text encodings of ``Tokenizer.render_entity`` sequences."""
        return self.entity_encoder.encode(tape.Bags(seqs))

    def entity_table(self, entities) -> np.ndarray:
        """Inference-side entity embedding table; text branch only."""
        return self.encode_entities(
            [self.tokenizer.render_entity(e) for e in entities]).data
