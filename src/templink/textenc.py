"""Tokenizer, mention/entity templates, and the pluggable text encoder.

The tokenizer splits on whitespace and punctuation over a corpus-built
vocabulary with an UNK fallback; subword modeling is deliberately out of
scope. Templates:

    mention: [CLS] ctxt_l [M_s] mention [M_e] ctxt_r [SEP]
    entity:  [CLS] title [ENT] description [SEP]

The mention template truncates the two contexts outward-in, balanced
within one token; the entity template truncates the description tail.
"""

from __future__ import annotations

import re

import numpy as np

from . import tape

PAD, UNK, CLS, SEP, M_START, M_END, ENT = range(7)
N_SPECIAL = 7
ENCODER_MODES = ("mean", "attn")
INIT_BLOCK = 1024  # parameter rows _initializer draws at once

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def split_text(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


class Tokenizer:
    """Corpus-built vocabulary with reserved special-token ids 0..6. It keeps
    the ids of every text it splits, so it splits each distinct text once."""

    def __init__(self, vocab: dict, max_len: int = 128):
        self.vocab = dict(vocab)
        self.max_len = max_len
        self._ids = {}  # text -> its token ids

    @classmethod
    def build(cls, texts, max_len: int = 128):
        """Vocabulary of the sorted tokens of ``texts``, each distinct text
        split once. Equal tokens share the string first split, so the
        splits held until every text is split cost a pointer per token."""
        texts = list(dict.fromkeys(texts))
        first = {}  # token -> the string first split
        splits = [list(map(first.setdefault, tokens, tokens))
                  for tokens in map(split_text, texts)]
        vocab = {tok: N_SPECIAL + i for i, tok in enumerate(sorted(first))}
        tokenizer = cls(vocab, max_len=max_len)
        tokenizer._ids = {t: list(map(vocab.__getitem__, tokens))
                          for t, tokens in zip(texts, splits)}
        return tokenizer

    @property
    def vocab_size(self):
        return N_SPECIAL + len(self.vocab)

    def token_ids(self, text: str) -> list:
        """The stored ids of ``text``'s tokens, UNK outside the vocabulary;
        no caller may mutate the list."""
        ids = self._ids.get(text)
        if ids is None:
            ids = self._ids[text] = [self.vocab.get(t, UNK)
                                     for t in split_text(text)]
        return ids

    def render_mention(self, mention_record) -> list:
        left = self.token_ids(mention_record.context_left)
        budget = self.max_len - 4
        span = self.token_ids(mention_record.mention)[:budget]
        right = self.token_ids(mention_record.context_right)
        ctx = budget - len(span)
        # half the context budget goes right, more when the left is short
        n_right = min(len(right), max(ctx - len(left), ctx // 2))
        n_left = min(len(left), ctx - n_right)
        return ([CLS] + left[len(left) - n_left:] + [M_START] + span + [M_END]
                + right[:n_right] + [SEP])

    def render_entity(self, entity_record) -> list:
        title = self.token_ids(entity_record.title)
        desc = self.token_ids(entity_record.description)
        seq = [CLS] + title + [ENT] + desc + [SEP]
        if len(seq) > self.max_len:
            seq = seq[:self.max_len - 1] + [SEP]
        return seq


def _initializer(seed: int, tensors: dict = None):
    """``init(name, rows, cols)``: a new float32 parameter. With
    ``tensors`` its value is the array named ``name``, which must be
    rows x cols (else ``ValueError``); without, each call draws uniformly
    in +-1/sqrt(rows) from one PCG64 generator seeded with ``seed``,
    ``INIT_BLOCK`` rows at a time into the float32 table: the same stream,
    in the same C order, as one rows x cols draw, without its float64
    copy."""
    if tensors is not None:
        def given(name, rows, cols):
            arr = tensors.get(name)
            if arr is None:
                raise ValueError(f"no tensor {name}")
            if arr.shape != (rows, cols):
                raise ValueError(f"tensor {name} is {arr.shape[0]} x "
                                 f"{arr.shape[1]}, but the config makes it "
                                 f"{rows} x {cols}")
            return tape.param(arr)
        return given
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(name, rows, cols):
        bound = 1.0 / np.sqrt(rows)
        out = np.empty((rows, cols), dtype=np.float32)
        for lo in range(0, rows, INIT_BLOCK):
            out[lo:lo + INIT_BLOCK] = rng.uniform(
                -bound, bound, size=(min(INIT_BLOCK, rows - lo), cols))
        return tape.param(out)
    return draw


class TextEncoder:
    """Small sequence encoder producing one d-vector per token sequence.

    mode "mean": average of token embeddings.
    mode "attn": token + positional embeddings through ``n_layers``
    single-head self-attention blocks; output is the position-0 vector.
    """

    def __init__(self, vocab_size: int, dim: int = 64, max_len: int = 128,
                 mode: str = "mean", n_layers: int = 2, seed: int = 0,
                 prefix: str = "enc", tensors: dict = None):
        """Parameters drawn from ``seed``, or taken from ``tensors``
        (see ``_initializer``)."""
        if mode not in ENCODER_MODES:
            raise ValueError(f"unknown encoder mode {mode!r}")
        self.dim = dim
        self.mode = mode
        self.max_len = max_len
        self.n_layers = n_layers
        init = _initializer(seed, tensors)
        names = [(f"{prefix}.emb", vocab_size)]
        if mode == "attn":
            names.append((f"{prefix}.pos", max_len))
            names += [(f"{prefix}.l{layer}.{w}", dim) for layer in range(n_layers)
                      for w in ("wq", "wk", "wv", "wo")]
        self.params = {name: init(name, rows, dim) for name, rows in names}
        self.prefix = prefix

    def encode(self, bags: tape.Bags) -> tape.Tensor:
        """Differentiable n x d encoding of the bags of n token-id sequences,
        none longer than ``max_len``; row i depends on bag i alone."""
        if bags.lens.max(initial=0) > self.max_len:
            raise ValueError(f"a bag is longer than max_len {self.max_len}")
        emb = self.params[f"{self.prefix}.emb"]
        if self.mode == "mean" or not bags:  # no bags: an empty 0 x d result
            return tape.mean_bags(emb, bags)
        return tape.concat_rows([self._attend(emb, ids) for ids in bags.lists])

    def _attend(self, emb, ids) -> tape.Tensor:
        h = tape.gather_rows(emb, ids)
        pos = tape.gather_rows(self.params[f"{self.prefix}.pos"], range(len(ids)))
        h = tape.add(h, pos)
        inv_sqrt_d = 1.0 / np.sqrt(self.dim)
        for layer in range(self.n_layers):
            q = tape.matmul(h, self.params[f"{self.prefix}.l{layer}.wq"])
            k = tape.matmul(h, self.params[f"{self.prefix}.l{layer}.wk"])
            v = tape.matmul(h, self.params[f"{self.prefix}.l{layer}.wv"])
            attn = tape.softmax_rows(tape.scale(tape.matmul(q, tape.transpose(k)),
                                                inv_sqrt_d))
            mixed = tape.matmul(tape.matmul(attn, v),
                                self.params[f"{self.prefix}.l{layer}.wo"])
            h = tape.add(h, tape.relu(mixed))
        return tape.gather_rows(h, [0])

    def encode_tensor(self, ids) -> tape.Tensor:
        """Differentiable encoding of one token-id sequence to a 1 x d tensor."""
        return self.encode(tape.Bags([ids]))

    def encode_ids(self, ids) -> np.ndarray:
        """Non-differentiable convenience wrapper: flat d-vector."""
        return self.encode_tensor(ids).data.reshape(-1)
