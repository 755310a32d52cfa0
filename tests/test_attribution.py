import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontograft.attribution import (
    AttributionError,
    HeadTokenShare,
    TokenAttribution,
    head_token_share,
    render_report,
    token_importance,
    write_attribution_csv,
)
from ontograft.model import AttentionSummary
from ontograft.tokenizer import BOS_ID, EOS_ID, N_SPECIALS, TokenSequence, train_bpe


@pytest.fixture
def tok():
    return train_bpe(["CNOS"], target_vocab=16)


def summary_from(weights):
    w = np.asarray(weights, dtype=float)
    return AttentionSummary(weights=w, seq_len=w.shape[-1])


def seq_for(tok, text):
    return tok.encode(text)


def uniform_summary(n_layers, n_heads, seq_len, padded_to=None):
    total = padded_to or seq_len
    w = np.zeros((n_layers, n_heads, total, total))
    w[:, :, :seq_len, :seq_len] = 1.0 / seq_len
    return AttentionSummary(weights=w, seq_len=seq_len)


class TestTokenImportance:
    def test_single_real_token(self, tok):
        seq = seq_for(tok, "C")  # BOS C EOS
        att = uniform_summary(1, 2, 3)
        out = token_importance(att, seq, tok)
        assert out.tokens == ["C"]
        npt.assert_allclose(out.scores, [1.0])

    def test_uniform_attention_gives_uniform_scores(self, tok):
        seq = seq_for(tok, "CNOS")
        att = uniform_summary(2, 2, 6)
        out = token_importance(att, seq, tok)
        assert out.tokens == ["C", "N", "O", "S"]
        npt.assert_allclose(out.scores, 0.25)

    def test_two_heads_hand_average(self, tok):
        seq = seq_for(tok, "CN")  # positions: BOS C N EOS
        w = np.zeros((1, 2, 4, 4))
        w[0, 0, :, 1] = 1.0  # head 1 attends only to C
        w[0, 1, :, 2] = 1.0  # head 2 attends only to N
        out = token_importance(summary_from(w), seq, tok)
        npt.assert_allclose(out.scores, [0.5, 0.5])

    def test_scores_sum_to_one(self, tok):
        rng = np.random.default_rng(0)
        seq = seq_for(tok, "CNOS")
        w = rng.random((2, 3, 6, 6))
        w /= w.sum(axis=-1, keepdims=True)
        out = token_importance(summary_from(w), seq, tok)
        assert abs(out.scores.sum() - 1.0) < 1e-6
        assert (out.scores >= 0).all()

    def test_padding_does_not_change_result(self, tok):
        seq = seq_for(tok, "CNO")
        att = uniform_summary(1, 2, 5)
        att_padded = uniform_summary(1, 2, 5, padded_to=9)
        a = token_importance(att, seq, tok)
        b = token_importance(att_padded, seq, tok)
        npt.assert_allclose(a.scores, b.scores)

    def test_requires_capture(self, tok):
        with pytest.raises(AttributionError):
            token_importance(None, seq_for(tok, "C"), tok)

    def test_layer_out_of_range(self, tok):
        att = uniform_summary(2, 2, 3)
        with pytest.raises(AttributionError):
            token_importance(att, seq_for(tok, "C"), tok, layer=5)


class TestHeadTokenShare:
    def test_all_attention_on_one_position(self, tok):
        seq = seq_for(tok, "CNO")  # BOS C N O EOS; position 3 is "O"
        w = np.zeros((1, 2, 5, 5))
        w[:, :, :, 3] = 1.0
        shares = head_token_share(summary_from(w), seq, tok)
        assert shares.tokens == ["C", "N", "O"]
        npt.assert_allclose(shares.matrix[:, 2], 100.0)
        npt.assert_allclose(shares.matrix[:, :2], 0.0)

    def test_uniform_head_shares_equally(self, tok):
        seq = seq_for(tok, "CNOS")
        shares = head_token_share(uniform_summary(2, 3, 6), seq, tok)
        npt.assert_allclose(shares.matrix, 100.0 / 4)

    def test_rows_sum_to_100(self, tok):
        rng = np.random.default_rng(1)
        seq = seq_for(tok, "CNOS")
        w = rng.random((3, 4, 6, 6))
        w /= w.sum(axis=-1, keepdims=True)
        shares = head_token_share(summary_from(w), seq, tok)
        npt.assert_allclose(shares.matrix.sum(axis=1), 100.0, atol=0.01)
        assert shares.row_labels[0] == "L1H1"
        assert shares.row_labels[-1] == "L3H4"

    def test_padding_invariance(self, tok):
        seq = seq_for(tok, "CN")
        a = head_token_share(uniform_summary(1, 2, 4), seq, tok)
        b = head_token_share(uniform_summary(1, 2, 4, padded_to=8), seq, tok)
        npt.assert_allclose(a.matrix, b.matrix)


def head_token_share_loop(att, seq, tokenizer):
    """The per-head loop ``head_token_share`` replaced: the reference for its
    bits."""
    content = [p for p in range(len(seq)) if seq.ids[p] >= N_SPECIALS]
    rows = []
    for layer in range(att.weights.shape[0]):
        for head in range(att.weights.shape[1]):
            w = att.weights[layer, head, : att.seq_len, :][:, content]
            total = w.sum()
            rows.append(100.0 * w.sum(axis=0) / total if total > 0 else np.zeros(len(content)))
    return np.stack(rows)


class TestHeadTokenShareAgainstLoop:
    tok = train_bpe(["CNOS"], target_vocab=16)  # ids 0-8: five specials, C, N, O, S

    @settings(max_examples=150, deadline=None)
    @given(
        n_layers=st.integers(1, 6),
        n_heads=st.integers(1, 12),
        ids=st.lists(st.integers(0, 8), min_size=1, max_size=130).filter(
            lambda ids: max(ids) >= N_SPECIALS),
        padding=st.integers(0, 4),
        dtype=st.sampled_from([np.float64, np.float32]),
        zero_head=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_of_the_per_head_loop(self, n_layers, n_heads, ids, padding, dtype, zero_head,
                                       seed):
        tok = self.tok
        n = len(ids) + padding
        weights = np.random.default_rng(seed).random((n_layers, n_heads, n, n)).astype(dtype)
        if zero_head:  # a head whose attention mass on real tokens is zero
            weights[-1, 0] = 0.0
        att = AttentionSummary(weights=weights, seq_len=len(ids))
        seq = TokenSequence(tuple(ids))
        got = head_token_share(att, seq, tok)
        assert got.matrix.dtype == dtype
        npt.assert_array_equal(got.matrix, head_token_share_loop(att, seq, tok))
        assert got.row_labels == [f"L{l + 1}H{h + 1}" for l in range(n_layers) for h in range(n_heads)]
        if zero_head:
            npt.assert_array_equal(got.matrix[(n_layers - 1) * n_heads], 0.0)


class TestRenderReport:
    def sample(self):
        attribution = TokenAttribution(
            tokens=["C", "C", "Br", "N", "O"],
            scores=np.array([0.1, 0.1, 0.5, 0.2, 0.1]),
        )
        shares = HeadTokenShare(
            tokens=["C", "C", "Br", "N", "O"],
            row_labels=["L1H1", "L1H2"],
            matrix=np.array([[10.0, 10, 50, 20, 10], [20.0, 20, 20, 20, 20]]),
        )
        return attribution, shares

    def test_deterministic(self):
        attribution, shares = self.sample()
        a = render_report("CC(Br)NO", attribution, shares, [("CHEBI:1", 0.93)])
        b = render_report("CC(Br)NO", attribution, shares, [("CHEBI:1", 0.93)])
        assert a == b

    def test_span_per_token(self):
        attribution, shares = self.sample()
        html = render_report("CC(Br)NO", attribution, shares, [])
        assert html.count('<span class="tok"') == 5

    def test_empty_predictions_banner(self):
        attribution, shares = self.sample()
        html = render_report("CC(Br)NO", attribution, shares, [], threshold=0.5)
        assert "no class above threshold 0.5" in html

    def test_predictions_table(self):
        attribution, shares = self.sample()
        html = render_report("CC(Br)NO", attribution, shares, [("CHEBI:9", 0.7341)])
        assert "CHEBI:9" in html and "0.7341" in html

    def test_csv_dump(self, tmp_path):
        attribution, shares = self.sample()
        path = tmp_path / "attr.csv"
        write_attribution_csv(attribution, shares, path)
        text = path.read_text()
        assert text.startswith("token_index,token,score")
        assert "Br" in text


class TestEndToEnd:
    def test_model_attention_feeds_attribution(self, tiny_config, tiny_store):
        from ontograft.model import forward

        seq = TokenSequence((BOS_ID, 5, 6, 7, EOS_ID))
        tok = train_bpe(["CNOSPABCDEFGHIJ"], target_vocab=tiny_config.vocab_size)
        out = forward(tiny_store, tiny_config, [seq], capture_attention=True)[0]
        attribution = token_importance(out.attention, seq, tok)
        assert len(attribution.tokens) == 3
        assert abs(attribution.scores.sum() - 1.0) < 1e-6
        shares = head_token_share(out.attention, seq, tok)
        npt.assert_allclose(shares.matrix.sum(axis=1), 100.0, atol=0.01)
