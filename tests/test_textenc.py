import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from checks import check_gradients
from templink import tape, textenc
from templink.records import EntityRecord, MentionRecord
from templink.textenc import (CLS, ENT, M_END, M_START, SEP, N_SPECIAL, UNK,
                              TextEncoder, Tokenizer, split_text)


def mention(left="", span="apple", right=""):
    return MentionRecord(left, span, right, "Q1", "new", 2020)


@pytest.fixture
def tok():
    words = " ".join(f"w{i}" for i in range(300))
    return Tokenizer.build([words + " apple orange banana pear"], max_len=16)


class TestSplit:
    def test_lowercase_and_punct(self):
        assert split_text("Apple, Inc.") == ["apple", ",", "inc", "."]

    def test_empty(self):
        assert split_text("") == []

    # The description embedding bags token_ids(title) + token_ids(description),
    # which is the split of the joined text only if this holds.
    @given(st.text(), st.text())
    def test_joined_text_splits_as_its_parts(self, a, b):
        assert split_text(a + " " + b) == split_text(a) + split_text(b)

    @pytest.mark.parametrize("a, b", [
        ("ΟΔΟΣ", "ΣΟΦΙΑ"),        # capital sigma lowers to ς at a word end
        ("ΑΣ", "Σ"), ("Σ", "ΑΣ"), ("ΑΣ'", "'Σ"), ("ΑΣ\u0301", "\u0301Σ"),
        ("cafe\u0301", "\u0301e"),  # combining marks
        ("don't", "'quoted'"), ("snake_case_", "_x_"),
        ("", ""), ("", "ΑΣ"), ("ΑΣ", ""),
    ])
    def test_joined_text_splits_as_its_parts_at_edges(self, a, b):
        assert split_text(a + " " + b) == split_text(a) + split_text(b)


def four_way_render(left, span, right, max_len):
    """The mention template as a four-way rule on the context lengths: the
    oracle ``render_mention`` must equal."""
    budget = max_len - 4
    if len(span) > budget:
        span = span[:budget]
    ctx_budget = budget - len(span)
    if len(left) + len(right) > ctx_budget:
        want_l = ctx_budget - ctx_budget // 2
        want_r = ctx_budget // 2
        if len(left) < want_l:
            want_r = ctx_budget - len(left)
            want_l = len(left)
        elif len(right) < want_r:
            want_l = ctx_budget - len(right)
            want_r = len(right)
        left = left[len(left) - want_l:] if want_l else []
        right = right[:want_r]
    return [CLS] + left + [M_START] + span + [M_END] + right + [SEP]


class TestRenderMention:
    def test_equals_four_way_rule_on_every_small_case(self):
        vocab = {f"w{i}": N_SPECIAL + i for i in range(36)}

        def words(lo, n):
            return " ".join(f"w{lo + i}" for i in range(n))
        for max_len in range(5, 21):
            tok = Tokenizer(vocab, max_len=max_len)
            for nl, ns, nr in itertools.product(range(13), repeat=3):
                m = mention(words(0, nl), words(12, ns), words(24, nr))
                want = four_way_render(*map(tok.token_ids, (
                    m.context_left, m.mention, m.context_right)), max_len)
                assert tok.render_mention(m) == want, (nl, ns, nr, max_len)

    def test_empty_contexts(self, tok):
        seq = tok.render_mention(mention())
        assert seq == [CLS, M_START, tok.vocab["apple"], M_END, SEP]

    def test_short_sequence_unmodified(self, tok):
        seq = tok.render_mention(mention("orange", "apple", "banana pear"))
        assert seq == [CLS, tok.vocab["orange"], M_START, tok.vocab["apple"],
                       M_END, tok.vocab["banana"], tok.vocab["pear"], SEP]

    def test_balanced_truncation(self, tok):
        left = " ".join(f"w{i}" for i in range(40))
        right = " ".join(f"w{i}" for i in range(40, 80))
        seq = tok.render_mention(mention(left, "apple", right))
        assert len(seq) == tok.max_len
        ms, me = seq.index(M_START), seq.index(M_END)
        kept_left = ms - 1
        kept_right = len(seq) - me - 2
        assert abs(kept_left - kept_right) <= 1
        # outward-in: the innermost context tokens survive
        assert seq[ms - 1] == tok.vocab["w39"]
        assert seq[me + 1] == tok.vocab["w40"]

    def test_mention_never_truncated_when_it_fits(self, tok):
        span = " ".join(f"w{i}" for i in range(10))
        seq = tok.render_mention(mention("w20 w21", span, "w22"))
        assert seq.index(M_END) - seq.index(M_START) == 11

    def test_oversized_mention_clipped(self, tok):
        span = " ".join(f"w{i}" for i in range(30))
        seq = tok.render_mention(mention("", span, ""))
        assert len(seq) <= tok.max_len


class TestRenderEntity:
    def entity(self, title="apple", desc=""):
        return EntityRecord("Q1", title, desc, 2020)

    def test_empty_description(self, tok):
        seq = tok.render_entity(self.entity())
        assert seq == [CLS, tok.vocab["apple"], ENT, SEP]

    def test_tail_truncation(self, tok):
        desc = " ".join(f"w{i}" for i in range(50))
        seq = tok.render_entity(self.entity(desc=desc))
        assert len(seq) == tok.max_len
        assert seq[-1] == SEP
        assert seq[:3] == [CLS, tok.vocab["apple"], ENT]

    def test_deterministic(self, tok):
        e = self.entity(desc="orange banana")
        assert tok.render_entity(e) == tok.render_entity(e)

    def test_unknown_words_map_to_unk(self, tok):
        seq = tok.render_entity(self.entity(title="zzzunseen"))
        assert seq[1] == 1  # UNK


class TestTokenizerVocab:
    def test_special_ids_reserved(self, tok):
        assert min(tok.vocab.values()) >= N_SPECIAL

    def test_stored_ids_are_vocabulary_lookups(self):
        texts = ["pear, apple", "zebra apple", "", "pear, apple", "Apple b"]
        tok = Tokenizer.build(texts)
        assert sorted(tok.vocab) == [",", "apple", "b", "pear", "zebra"]
        for t in texts + ["apple unseen"]:
            assert tok.token_ids(t) == [tok.vocab.get(w, UNK)
                                        for w in split_text(t)]

    def test_rendering_twice_mutates_no_stored_ids(self):
        long = " ".join(f"w{i}" for i in range(40))
        mentions = [mention(long, "apple", long), mention("", long, ""),
                    mention("w1", "apple", "w2 w3")]
        entities = [EntityRecord("Q1", "apple", long, 2020),
                    EntityRecord("Q2", long, "pear", 2020)]
        texts = [t for m in mentions
                 for t in (m.context_left, m.mention, m.context_right)]
        texts += [t for e in entities for t in (e.title, e.description)]
        tok = Tokenizer.build(texts, max_len=16)
        stored = {t: list(tok.token_ids(t)) for t in texts}

        def render():
            return ([tok.render_mention(m) for m in mentions]
                    + [tok.render_entity(e) for e in entities])

        first = render()
        assert render() == first
        assert {t: tok.token_ids(t) for t in texts} == stored

    def test_build_deterministic(self):
        a = Tokenizer.build(["b a c", "a d"])
        b = Tokenizer.build(["a d", "b a c"])
        assert a.vocab == b.vocab


class TestEncoder:
    @pytest.mark.parametrize("mode", ["mean", "attn"])
    def test_identical_sequences_identical_vectors(self, mode):
        enc = TextEncoder(50, dim=8, max_len=16, mode=mode, seed=1)
        a = enc.encode_ids([CLS, 10, 11, SEP])
        b = enc.encode_ids([CLS, 10, 11, SEP])
        assert np.array_equal(a, b)

    def test_seed_changes_weights(self):
        a = TextEncoder(50, dim=8, seed=1).encode_ids([CLS, 10])
        b = TextEncoder(50, dim=8, seed=2).encode_ids([CLS, 10])
        assert not np.array_equal(a, b)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            TextEncoder(50, dim=8, mode="rnn")

    @pytest.mark.parametrize("mode", ["mean", "attn"])
    def test_blocked_draw_equals_one_draw(self, mode, monkeypatch):
        # 3-row blocks: every table, the 11-row one too, holds the bits of
        # one rows x cols draw per table from the same generator
        monkeypatch.setattr(textenc, "INIT_BLOCK", 3)
        enc = TextEncoder(11, dim=4, max_len=5, mode=mode, seed=7)
        rng = np.random.Generator(np.random.PCG64(7))
        for name, p in enc.params.items():
            rows, cols = p.data.shape
            bound = 1.0 / np.sqrt(rows)
            want = rng.uniform(-bound, bound, size=(rows, cols))
            assert p.data.tobytes() == want.astype(np.float32).tobytes(), name

    @pytest.mark.parametrize("mode", ["mean", "attn"])
    def test_gradient_check(self, mode):
        enc = TextEncoder(12, dim=4, max_len=6, mode=mode, n_layers=1, seed=3)
        params = list(enc.params.values())
        for p in params:
            p.data = p.data.astype(np.float64)

        def loss():
            return tape.sum_squares(enc.encode_tensor([CLS, 8, 9, 10, SEP]))

        report = check_gradients(loss, params, eps=1e-4, tol=1e-4)
        assert report["ok"], report["failures"][:3]

    def test_batch_gradient_check(self):
        enc = TextEncoder(12, dim=3, max_len=6, seed=4)
        emb = enc.params["enc.emb"]
        emb.data = emb.data.astype(np.float64)
        batch = [[CLS, 8, 8, 9, SEP], [CLS, 10, 8, SEP], [CLS],
                 [CLS, 9, 9, 9, 10, 11], [CLS, 11, SEP]]
        weights = np.random.default_rng(0).normal(size=(len(batch), 3))
        bags = tape.Bags(batch)

        def loss():
            return tape.sum_squares(tape.add(enc.encode(bags), -weights))

        report = check_gradients(loss, [emb], eps=1e-4, tol=1e-4)
        assert report["ok"], report["failures"][:3]

    @pytest.mark.parametrize("mode", ["mean", "attn"])
    def test_batch_rows_match_single_sequences(self, mode):
        enc = TextEncoder(40, dim=8, max_len=6, mode=mode, n_layers=1, seed=5)
        rng = np.random.default_rng(1)
        seqs = [rng.integers(1, 40, size=rng.integers(1, 7)).tolist()
                for _ in range(20)]
        rows = enc.encode(tape.Bags(seqs)).data
        for seq, row in zip(seqs, rows):
            assert row.tobytes() == enc.encode_ids(seq).tobytes()

    def test_bags_packed_for_a_longer_max_len_rejected(self):
        enc = TextEncoder(12, dim=4, max_len=6, seed=3)
        seqs = [[CLS, 8, 9, SEP], list(range(7, 12)) * 2]
        with pytest.raises(ValueError, match="longer than max_len 6"):
            enc.encode(tape.Bags(seqs))
        assert enc.encode(tape.Bags([s[:6] for s in seqs])).shape == (2, 4)
