import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.special

from ontograft import model as model_module
from ontograft.attribution import token_importance
from ontograft.model import (
    LN_EPS,
    ModelConfig,
    ModelError,
    NumericError,
    _attention,
    _attention_backward,
    _forward_core,
    _gather_mlm,
    _layer_norm,
    _ERF_BLOCK,
    _layer_norm_backward,
    _mlm_head_forward,
    _mlm_objective,
    _pack,
    erf,
    expit,
    forward,
    inference_chunks,
    init_model,
    load_model,
    loss_and_grad,
    mlm_loss_value,
    multilabel_loss_value,
    predict_logits,
    save_model,
)
from ontograft.tokenizer import BOS_ID, EOS_ID, PAD_ID, TokenSequence, train_bpe
from ontograft.training import OptimizerState

import attention_oracle
import padded_oracle
from conftest import WholeGradient, with_config_keys


def seq(*content_ids):
    return TokenSequence((BOS_ID,) + tuple(content_ids) + (EOS_ID,))


def straight_line_forward(store, config, ids):
    """Independent oracle: one unpadded sequence, plain loops and matrices."""
    p = store.params
    T = len(ids)
    d = config.hidden_dim
    dh = config.head_dim
    x = np.array([p["tok_emb"][t] + p["pos_emb"][i] for i, t in enumerate(ids)])

    def layer_norm(v, g, b):
        out = np.zeros_like(v)
        for i in range(v.shape[0]):
            mu = v[i].mean()
            var = ((v[i] - mu) ** 2).mean()
            out[i] = (v[i] - mu) / math.sqrt(var + 1e-5) * g + b
        return out

    def gelu(v):
        return np.array([0.5 * u * (1 + math.erf(u / math.sqrt(2))) for u in v.flat]).reshape(v.shape)

    for li in range(config.n_layers):
        lp = f"layers.{li}."
        h = layer_norm(x, p[lp + "ln1.g"], p[lp + "ln1.b"])
        q = h @ p[lp + "attn.wq"] + p[lp + "attn.bq"]
        k = h @ p[lp + "attn.wk"] + p[lp + "attn.bk"]
        v = h @ p[lp + "attn.wv"] + p[lp + "attn.bv"]
        ctx = np.zeros((T, d))
        for head in range(config.n_heads):
            sl = slice(head * dh, (head + 1) * dh)
            scores = np.zeros((T, T))
            for a in range(T):
                for b in range(T):
                    scores[a, b] = q[a, sl] @ k[b, sl] / math.sqrt(dh)
            for a in range(T):
                e = np.exp(scores[a] - scores[a].max())
                w = e / e.sum()
                ctx[a, sl] = sum(w[b] * v[b, sl] for b in range(T))
        x = x + ctx @ p[lp + "attn.wo"] + p[lp + "attn.bo"]
        h2 = layer_norm(x, p[lp + "ln2.g"], p[lp + "ln2.b"])
        f = gelu(h2 @ p[lp + "ffn.w1"] + p[lp + "ffn.b1"])
        x = x + f @ p[lp + "ffn.w2"] + p[lp + "ffn.b2"]
    hidden = layer_norm(x, p["final_ln.g"], p["final_ln.b"])
    logits = hidden[0] @ p["cls.w"] + p["cls.b"]
    return hidden, logits


class TestInit:
    def test_deterministic(self, tiny_config):
        a = init_model(tiny_config)
        b = init_model(tiny_config)
        for name in a.params:
            npt.assert_array_equal(a.params[name], b.params[name])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_same_bits_as_drawing_through_a_temporary(self, tiny_config, dtype):
        # reference: one rng.normal temporary per weight, assigned to its view
        config = replace(tiny_config, dtype=dtype)
        rng = np.random.default_rng(config.seed)
        ref = init_model(config)
        ref.param_arena[...] = 0.0
        for name, param in ref.params.items():  # declaration order
            if param.ndim == 2:  # embeddings and weight matrices
                param[...] = rng.normal(0.0, 0.02, size=param.shape)
            elif name.endswith(".g"):
                param[...] = 1.0
        ref.params["tok_emb"][PAD_ID, :] = 0.0
        store = init_model(config)
        assert store.param_arena.dtype == np.dtype(dtype)
        assert store.param_arena.tobytes() == ref.param_arena.tobytes()

    def test_parameter_count_matches_shape_formula(self, tiny_config, tiny_store):
        # independent closed-form sum over the declared shapes
        c = tiny_config
        d, f, V, M, K, L = (c.hidden_dim, c.ffn_dim, c.vocab_size, c.max_len,
                            c.n_labels, c.n_layers)
        per_layer = 2 * d + 4 * (d * d + d) + 2 * d + (d * f + f) + (f * d + d)
        total = (V * d + M * d + L * per_layer + 2 * d
                 + (d * d + d + 2 * d + V)  # MLM head: transform + ln + tied bias
                 + (d * K + K))
        assert tiny_store.n_parameters() == total

    def test_pad_row_zeroed(self, tiny_store):
        npt.assert_array_equal(tiny_store.params["tok_emb"][PAD_ID], 0.0)

    def test_every_parameter_has_gradient_slot(self, tiny_store):
        state = OptimizerState(tiny_store, lr=0.1, weight_decay=0.0)
        assert list(state.grads) == list(tiny_store.params)
        for name, param in tiny_store.params.items():
            assert state.grads[name].shape == param.shape

    def test_config_validation(self):
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=10, n_labels=2, hidden_dim=10, n_heads=3)
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=10, n_labels=2, attention_dropout=1.0)
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=10, n_labels=2, dtype="float16")


class TestForward:
    def test_attention_rows_sum_to_one(self):
        config = ModelConfig(vocab_size=10, n_labels=2, n_layers=1, n_heads=1,
                             hidden_dim=8, ffn_dim=16, max_len=8, seed=1)
        store = init_model(config)
        out = forward(store, config, [seq(5)], capture_attention=True)[0]
        npt.assert_allclose(out.attention.sum(axis=-1), 1.0, atol=1e-6)

    def test_attention_has_each_item_own_length(self, tiny_config, tiny_store):
        batch = [seq(5, 6, 7, 8), seq(9)]
        outs = forward(tiny_store, tiny_config, batch, capture_attention=True)
        for item, out in zip(batch, outs):
            n = len(item)
            assert out.attention.shape == (tiny_config.n_layers, tiny_config.n_heads, n, n)
            npt.assert_allclose(out.attention.sum(axis=-1), 1.0, atol=1e-6)

    def test_padding_invariance(self, tiny_config, tiny_store):
        item = seq(5, 6, 7)
        alone = forward(tiny_store, tiny_config, [item])[0]
        padded = forward(tiny_store, tiny_config, [item, seq(8, 9, 10, 11, 12, 13)])[0]
        npt.assert_allclose(alone.hidden, padded.hidden, atol=1e-5)
        npt.assert_allclose(alone.logits, padded.logits, atol=1e-5)

    def test_matches_straight_line_oracle(self, tiny_config, tiny_store):
        item = seq(5, 9, 14, 6)
        out = forward(tiny_store, tiny_config, [item])[0]
        hidden, logits = straight_line_forward(tiny_store, tiny_config, item.ids)
        npt.assert_allclose(out.hidden, hidden, atol=1e-6)
        npt.assert_allclose(out.logits, logits, atol=1e-6)

    def test_probabilities_are_sigmoid(self, tiny_config, tiny_store):
        out = forward(tiny_store, tiny_config, [seq(5, 6)])[0]
        npt.assert_allclose(out.probabilities, 1 / (1 + np.exp(-out.logits)))
        assert ((out.probabilities > 0) & (out.probabilities < 1)).all()

    def test_deterministic_in_inference_mode(self, tiny_config, tiny_store):
        a = forward(tiny_store, tiny_config, [seq(5, 6, 7)])[0]
        b = forward(tiny_store, tiny_config, [seq(5, 6, 7)])[0]
        npt.assert_array_equal(a.logits, b.logits)

    def test_every_inference_path_gives_the_same_logits(self, tiny_config, tiny_store):
        batch = [seq(5, 6, 7, 8), seq(9), seq(10, 11)]
        rows = predict_logits(tiny_store, tiny_config, batch, batch_size=len(batch))
        plain = forward(tiny_store, tiny_config, batch)
        captured = forward(tiny_store, tiny_config, batch, capture_attention=True)
        p = tiny_store.params
        # both paths apply the head to each item's BOS row alone (see TestGemmRows)
        for row, out, cap in zip(rows, plain, captured):
            npt.assert_array_equal(cap.hidden[0], out.hidden[0])
            npt.assert_array_equal(out.logits, (out.hidden[0][None] @ p["cls.w"] + p["cls.b"])[0])
            npt.assert_array_equal(cap.logits, out.logits)
            npt.assert_array_equal(row, out.logits)
        for item in batch:
            npt.assert_array_equal(predict_logits(tiny_store, tiny_config, [item])[0],
                                   forward(tiny_store, tiny_config, [item])[0].logits)

    def test_hidden_is_a_view_of_the_packed_rows(self, tiny_config, tiny_store):
        outs = forward(tiny_store, tiny_config, [seq(5, 6, 7), seq(8)])
        packed = outs[0].hidden.base
        assert packed is not None and outs[1].hidden.base is packed

    def test_empty_sequence(self, tiny_config, tiny_store):
        with pytest.raises(ModelError, match="empty sequence"):
            forward(tiny_store, tiny_config, [seq(5), TokenSequence(())])

    def test_invalid_token_id(self, tiny_config, tiny_store):
        with pytest.raises(ModelError):
            forward(tiny_store, tiny_config, [seq(99)])

    def test_too_long(self, tiny_config, tiny_store):
        with pytest.raises(ModelError):
            forward(tiny_store, tiny_config, [seq(*([5] * 20))])


class TestMlmHead:
    def test_uniform_logits_for_zero_hidden(self, tiny_config):
        store = init_model(tiny_config)
        # zero transform output bias and embeddings: logits must be constant
        store.params["mlm.w"][...] = 0.0
        store.params["mlm.b"][...] = 0.0
        store.params["mlm_ln.g"][...] = 0.0
        store.params["mlm_bias"][...] = 0.0
        rows = np.zeros((2, tiny_config.hidden_dim))
        logits, _ = _mlm_head_forward(store, rows)
        npt.assert_allclose(logits, logits[0, 0])

    def test_shapes(self, tiny_config, tiny_store):
        rows = np.ones((1, tiny_config.hidden_dim))
        assert _mlm_head_forward(tiny_store, rows)[0].shape == (
            1, tiny_config.vocab_size,
        )

    def test_argmax_matches_recomputation(self, tiny_config, tiny_store):
        item = seq(5, 9, 14, 6)
        out = forward(tiny_store, tiny_config, [item])[0]
        logits, _ = _mlm_head_forward(tiny_store, out.hidden[[1, 2]])
        p = tiny_store.params
        a = out.hidden[1] @ p["mlm.w"] + p["mlm.b"]
        g = 0.5 * a * (1 + np.vectorize(math.erf)(a / math.sqrt(2)))
        mu, var = g.mean(), g.var()
        t = (g - mu) / np.sqrt(var + 1e-5) * p["mlm_ln.g"] + p["mlm_ln.b"]
        row = t @ p["tok_emb"].T + p["mlm_bias"]
        assert np.argmax(row) == np.argmax(logits[0])


class TestLoss:
    def test_zero_logits_give_ln2(self):
        logits = np.zeros((3, 4))
        labels = np.array([[1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]], dtype=float)
        assert abs(multilabel_loss_value(logits, labels) - math.log(2)) < 1e-12

    def test_saturated_logits_give_tiny_loss(self):
        labels = np.array([[1.0, 0.0]])
        logits = np.array([[20.0, -20.0]])
        assert multilabel_loss_value(logits, labels) < 1e-8

    def test_gradients_filled_for_every_parameter(self, tiny_config, tiny_store):
        labels = np.array([[1, 0, 1]], dtype=float)
        whole = WholeGradient(tiny_store)
        loss_and_grad(tiny_store, tiny_config, [seq(5, 6)], "multilabel", labels=labels,
                      optimizer=whole)
        nonzero = [n for n, g in whole.grads.items() if np.any(g != 0)]
        # everything except untouched rows should receive gradient
        assert "cls.w" in nonzero and "tok_emb" in nonzero and "layers.0.attn.wq" in nonzero

    def test_mlm_head_params_used_only_by_mlm(self, tiny_config, tiny_store):
        labels = np.array([[1, 0, 1]], dtype=float)
        whole = WholeGradient(tiny_store)
        whole.arena.fill(1.0)  # the head's zero gradient is written, not left over
        loss_and_grad(tiny_store, tiny_config, [seq(5, 6)], "multilabel", labels=labels,
                      optimizer=whole)
        npt.assert_array_equal(whole.grads["mlm.w"], 0.0)
        loss_and_grad(
            tiny_store, tiny_config, [seq(5, 6)], "mlm", mlm_targets=[[(1, 5)]], optimizer=whole
        )
        assert np.any(whole.grads["mlm.w"] != 0)

    def test_numeric_failure_detected(self, tiny_config, tiny_store):
        tiny_store.params["cls.w"][0, 0] = np.inf
        with pytest.raises(NumericError):
            loss_and_grad(
                tiny_store, tiny_config, [seq(5)], "multilabel",
                labels=np.array([[1, 0, 0]], dtype=float), optimizer=WholeGradient(tiny_store),
            )

    @pytest.mark.parametrize("position", [-1, 4, 5])
    def test_mlm_position_outside_its_sequence(self, tiny_config, tiny_store, position):
        # packed, position 4 of the first item would be the second item's BOS
        with pytest.raises(ModelError, match="outside its sequence"):
            loss_and_grad(tiny_store, tiny_config, [seq(5, 6), seq(7, 8, 9)], "mlm",
                          mlm_targets=[[(position, 5)], []], optimizer=WholeGradient(tiny_store))

    def test_label_shape_mismatch(self, tiny_config, tiny_store):
        with pytest.raises(ModelError):
            loss_and_grad(
                tiny_store, tiny_config, [seq(5)], "multilabel",
                labels=np.array([[1.0, 0.0]]), optimizer=WholeGradient(tiny_store),
            )

    def test_gradient_check_small(self, tiny_config, tiny_store):
        """Spot-check a handful of parameters; the full sweep runs in the
        acceptance suite."""
        batch = [seq(5, 6, 7, 8), seq(9, 10)]
        labels = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
        whole, probe = WholeGradient(tiny_store), WholeGradient(tiny_store)
        loss_and_grad(tiny_store, tiny_config, batch, "multilabel", labels=labels, optimizer=whole)
        analytic = whole.grads
        rng = np.random.default_rng(0)
        eps = 1e-4
        for name in ("tok_emb", "layers.0.attn.wq", "layers.1.ffn.w2", "final_ln.g", "cls.b"):
            flat = tiny_store.params[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_and_grad(tiny_store, tiny_config, batch, "multilabel", labels=labels,
                                   optimizer=probe)
                flat[idx] = orig - eps
                down = loss_and_grad(tiny_store, tiny_config, batch, "multilabel", labels=labels,
                                     optimizer=probe)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                ana = analytic[name].reshape(-1)[idx]
                rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
                assert rel < 1e-3, f"{name}[{idx}]: {ana} vs {numeric}"


class TestDropout:
    """Attention dropout applies iff an rng is passed."""

    def test_dropout_changes_outputs(self, tiny_config, tiny_store):
        batch = [seq(5, 6, 7)]
        dropped, _ = _forward_core(tiny_store, tiny_config, batch, rng=np.random.default_rng(0))
        plain, _ = _forward_core(tiny_store, tiny_config, batch)
        assert not np.allclose(dropped, plain)
        labels = np.array([[1, 0, 1]], dtype=float)
        a = loss_and_grad(tiny_store, tiny_config, batch, "multilabel", labels=labels,
                          rng=np.random.default_rng(0), optimizer=WholeGradient(tiny_store))
        b = loss_and_grad(tiny_store, tiny_config, batch, "multilabel", labels=labels,
                          optimizer=WholeGradient(tiny_store))
        assert a != b

    def test_no_rng_is_the_inference_pass(self, tiny_config, tiny_store):
        batch = [seq(5, 6, 7), seq(8, 9)]
        labels = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
        loss = loss_and_grad(tiny_store, tiny_config, batch, "multilabel", labels=labels,
                             optimizer=WholeGradient(tiny_store))
        logits = np.stack([out.logits for out in forward(tiny_store, tiny_config, batch)])
        assert loss == multilabel_loss_value(logits, labels)

    def test_zero_rate_ignores_the_rng(self, tiny_config, tiny_store):
        config = replace(tiny_config, attention_dropout=0.0)
        batch = [seq(5, 6, 7)]
        with_rng, _ = _forward_core(tiny_store, config, batch, rng=np.random.default_rng(0))
        plain, _ = _forward_core(tiny_store, config, batch)
        npt.assert_array_equal(with_rng, plain)


def assert_mean_var_bits(x):
    """``_layer_norm`` gives the bits of the x.mean / x.var form it replaced."""
    rng = np.random.default_rng(x.size)
    g = rng.normal(1.0, 0.1, x.shape[-1]).astype(x.dtype)
    b = rng.normal(0.0, 0.1, x.shape[-1]).astype(x.dtype)
    out, (xhat, inv_std) = _layer_norm(x, g, b)
    mean = x.mean(axis=-1, keepdims=True)
    want_inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
    want_xhat = (x - mean) * want_inv_std
    for got, want in ((inv_std, want_inv_std), (xhat, want_xhat), (out, want_xhat * g + b)):
        assert got.dtype == x.dtype
        npt.assert_array_equal(got, want)


def assert_backward_mean_sum_bits(x):
    """``_layer_norm_backward`` gives the bits of the .mean / .sum form it
    replaced."""
    rng = np.random.default_rng(x.size)
    g = rng.normal(1.0, 0.1, x.shape[-1]).astype(x.dtype)
    _, (xhat, inv_std) = _layer_norm(x, g, np.zeros_like(g))
    dy = rng.normal(0.0, 1.0, x.shape).astype(x.dtype)
    got = _layer_norm_backward(dy, (xhat, inv_std), g)
    rows = tuple(range(dy.ndim - 1))
    dxhat = dy * g
    want_dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                         - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    for got_array, want in zip(got, (want_dx, (dy * xhat).sum(axis=rows), dy.sum(axis=rows))):
        assert got_array.dtype == x.dtype
        npt.assert_array_equal(got_array, want)


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(4, 48, 768), (913, 768), (8, 30, 32), (7, 1)])
    def test_model_shapes_keep_the_mean_var_bits(self, shape, dtype):
        x = np.random.default_rng(0).normal(0.5, 2.0, shape).astype(dtype)
        assert_mean_var_bits(x)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 70), min_size=1, max_size=3),
        dtype=st.sampled_from([np.float64, np.float32]),
        loc=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_shapes_keep_the_mean_var_bits(self, shape, dtype, loc, seed):
        x = np.random.default_rng(seed).normal(loc, 3.0, shape).astype(dtype)
        assert_mean_var_bits(x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(4, 48, 768), (913, 768), (8, 30, 32), (7, 1)])
    def test_model_shapes_keep_the_backward_bits(self, shape, dtype):
        x = np.random.default_rng(1).normal(0.5, 2.0, shape).astype(dtype)
        assert_backward_mean_sum_bits(x)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 70), min_size=1, max_size=3),
        dtype=st.sampled_from([np.float64, np.float32]),
        loc=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_shapes_keep_the_backward_bits(self, shape, dtype, loc, seed):
        x = np.random.default_rng(seed).normal(loc, 3.0, shape).astype(dtype)
        assert_backward_mean_sum_bits(x)


class TestGemmRows:
    """An item's outputs do not depend on its batch because each row of a
    matrix product depends on that row alone: not on how many rows the
    product has, nor on where the row sits, as for an item's rows inside a
    packed batch.  A one-row product is left out: numpy computes it as a
    matrix-vector product, which rounds differently.  The encoder's
    position-wise products have one row only for a batch of one one-token
    item; the classification head runs as one-row products, one per item,
    in every batch."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n, d, f", [(150, 32, 64), (150, 64, 32), (40, 768, 3072)])
    def test_rows_do_not_depend_on_row_count(self, n, d, f, dtype):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(n, d)).astype(dtype)
        w = rng.normal(0.0, 0.05, size=(d, f)).astype(dtype)
        full = a @ w
        for k in sorted({2, 3, 4, 5, 7, 8, 9, 16, 17, n // 2, n - 2, n - 1}):
            npt.assert_array_equal(full[:k], a[:k] @ w)
            npt.assert_array_equal(full[n - k:], a[n - k:] @ w)
            for start in sorted({1, 3, (n - k) // 2, n - k - 1}):
                if 0 < start < n - k:
                    rows = slice(start, start + k)
                    npt.assert_array_equal(full[rows], a[rows] @ w)


@functools.cache
def oracle_model():
    """A perturbed float64 model with dropout, long enough for 40 tokens."""
    config = ModelConfig(vocab_size=20, n_labels=3, n_layers=2, n_heads=2, hidden_dim=8,
                         ffn_dim=16, max_len=40, attention_dropout=0.3, seed=7)
    return config, TestDtype.perturbed(config)


def assert_close(a, b):
    npt.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


BATCHES = st.lists(st.lists(st.integers(0, 19), min_size=1, max_size=40),
                   min_size=1, max_size=8)


def run_python(script: str, *args: str) -> str:
    """Standard output of ``python -c script *args`` importing this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(model_module.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, check=True).stdout


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Units in the last place between two float arrays of one dtype, same sign."""
    ints = np.int64 if a.dtype == np.float64 else np.int32
    return np.abs(a.view(ints).astype(np.int64) - b.view(ints).astype(np.int64))


class TestErfAndExpit:
    """The numpy erf and sigmoid against scipy.special."""

    @staticmethod
    def spread(rng) -> np.ndarray:
        grid = np.linspace(-10.0, 10.0, 400_001)
        return np.concatenate([grid] + [rng.normal(0.0, s, 100_000) for s in (0.5, 1.5, 4.0)])

    def test_erf_bits_equal_scipy_within_one(self):
        x = np.linspace(-1.0, 1.0, 400_001)
        x = np.concatenate([x, np.nextafter([1.0, -1.0], 0.0), np.geomspace(1e-300, 1.0, 1000)])
        assert erf(x).tobytes() == scipy.special.erf(x).tobytes()

    def test_erf_within_one_ulp_of_scipy(self):
        x = self.spread(np.random.default_rng(0))
        assert ulp_distance(erf(x), scipy.special.erf(x)).max() <= 1

    def test_erf_float32_stays_float32_within_two_ulp(self):
        x = self.spread(np.random.default_rng(1)).astype(np.float32)
        got = erf(x)
        assert got.dtype == np.float32
        assert ulp_distance(got, scipy.special.erf(x)).max() <= 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_erf_special_values(self, dtype):
        """NaN, +-inf, +-0 and the largest finite values, without a warning;
        subnormals as scipy has them."""
        tiny, huge = np.finfo(dtype).smallest_subnormal, np.finfo(dtype).max
        x = np.array([np.nan, np.inf, -np.inf, huge, -huge, -0.0, 0.0,
                      tiny, -tiny, 1e3 * tiny], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = erf(x)
        assert np.isnan(got[0]) and list(got[1:5]) == [1.0, -1.0, 1.0, -1.0]
        assert got[5] == 0.0 and np.signbit(got[5]) and not np.signbit(got[6])
        assert got[7:].tobytes() == scipy.special.erf(x[7:]).tobytes()
        assert got[7] > 0 and got[8] < 0

    def test_erf_blocks_match_piece_by_piece(self):
        """An array of several blocks, spanning both branches, has the bits
        of erf applied to small pieces that straddle the block edges."""
        x = np.random.default_rng(2).normal(0.0, 1.5, (3 * _ERF_BLOCK // 64 + 17, 64))
        flat = x.reshape(-1)
        assert (np.abs(flat) <= 1.0).any() and (np.abs(flat) > 1.0).any()
        pieces = np.concatenate([erf(flat[i:i + 777]) for i in range(0, flat.size, 777)])
        assert erf(x).tobytes() == pieces.tobytes()
        assert erf(x.T).tobytes() == erf(x.T.copy()).tobytes()

    def test_expit_against_scipy(self):
        x = 4.0 * self.spread(np.random.default_rng(3))
        npt.assert_allclose(expit(x), scipy.special.expit(x), rtol=1e-15, atol=0)
        got = expit(x.astype(np.float32))
        assert got.dtype == np.float32
        assert ulp_distance(got, scipy.special.expit(x.astype(np.float32))).max() <= 2

    def test_expit_saturates_quietly(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = expit(np.array([-1000.0, 1000.0, -0.0]))
        assert list(got) == [0.0, 1.0, 0.5]

    def test_cli_loads_no_scipy(self):
        script = ("import ontograft.cli, sys; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_python(script).strip() == "[]"


class TestPackedAgainstPaddedOracle:
    """The packed encoder against the padded one it replaced
    (``padded_oracle``), inference and gradients to a relative 1e-12: a
    softmax sums over the sequence's own keys, not the padded block's, and
    the weight-gradient products sum over fewer rows, so the additions may
    group differently.  Padded query rows of the oracle's attention are not
    compared: they reach no output."""

    @settings(max_examples=80, deadline=None)
    @given(batch=BATCHES, dropout=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(batch=[[5], [5, 5, 5, 5], [7], [5, 9]], dropout=True, seed=0)
    @example(batch=[[5], [7], [5, 9], [6, 6], [5, 5, 5, 5]], dropout=True, seed=3)
    def test_inference_matches_the_padded_oracle(self, batch, dropout, seed):
        config, store = oracle_model()
        seqs = [TokenSequence(tuple(ids)) for ids in batch]
        lengths = [len(s) for s in seqs]
        rng = (lambda: np.random.default_rng(seed)) if dropout else (lambda: None)
        packed_layers, padded_layers = [], []
        hidden, (pk, _) = _forward_core(store, config, seqs, rng(), packed_layers.append)
        ref, _ = padded_oracle.forward_core(store, config, seqs, rng(), padded_layers.append)
        for b, n in enumerate(lengths):
            assert_close(hidden[pk.rows[b]], ref[b, :n])
        for mine, theirs in zip(packed_layers, padded_layers):
            # the layer cache holds one block per run of equal-length items
            used = [probs for _, _, run in mine["attention"] for probs in run]
            assert len(used) == len(seqs)
            for b, n in enumerate(lengths):
                assert_close(used[b], theirs["probs_used"][b, :, :n, :n])
                npt.assert_array_equal(theirs["probs"][b, :, :, n:], 0.0)
        if dropout:
            return
        ref_logits = padded_oracle.classification_logits(store, ref)[1]
        assert_close(predict_logits(store, config, seqs), ref_logits)
        outs = forward(store, config, seqs, capture_attention=True)
        for b, (out, n) in enumerate(zip(outs, lengths)):
            assert_close(out.hidden, ref[b, :n])
            assert_close(out.logits, ref_logits[b])
            assert_close(out.probabilities, scipy.special.expit(ref_logits[b]))
            att = np.stack([layer["probs"][b] for layer in padded_layers])
            assert out.attention.shape == (config.n_layers, config.n_heads, n, n)
            assert_close(out.attention, att[:, :, :n, :n])

    @settings(max_examples=80, deadline=None)
    @given(
        batch=BATCHES,
        objective=st.sampled_from(["multilabel", "mlm"]),
        dropout=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=[[5], [5, 5, 5], [9]], objective="mlm", dropout=True, seed=1)
    @example(batch=[[5], [5, 5, 5], [9]], objective="multilabel", dropout=False, seed=1)
    @example(batch=[[3] * 40, [3] * 40, [3]], objective="mlm", dropout=False, seed=2)
    def test_gradients_match_the_padded_oracle(self, batch, objective, dropout, seed):
        config, store = oracle_model()
        seqs = [TokenSequence(tuple(ids)) for ids in batch]
        rng = np.random.default_rng(seed)
        if objective == "multilabel":
            targets = dict(labels=(rng.random((len(seqs), config.n_labels)) < 0.5).astype(float))
        else:
            # positions drawn with replacement: a position may be listed twice
            mlm = [[(int(pos), int(rng.integers(config.vocab_size)))
                    for pos in rng.integers(0, len(s), rng.integers(0, 4))] for s in seqs]
            mlm[0].append((0, 6))
            targets = dict(mlm_targets=mlm)
        draws = (lambda: np.random.default_rng(seed)) if dropout else (lambda: None)
        packed = WholeGradient(store)
        loss = loss_and_grad(store, config, seqs, objective, rng=draws(), optimizer=packed,
                             **targets)
        ref, padded = padded_oracle.loss_and_grad(store, config, seqs, objective, rng=draws(),
                                                  **targets)
        assert_close(loss, ref)
        for name, want in padded.items():
            # d(loss)/d(key bias) is 0 in exact arithmetic (a shift shared by
            # every key leaves the softmax as it is): both sides hold rounding
            # noise, bounded by the size of the key weights' gradient instead
            scale = padded[name.replace(".bk", ".wk")] if name.endswith(".bk") else want
            npt.assert_allclose(packed.grads[name], want, rtol=1e-12,
                                atol=1e-12 * np.abs(scale).max(), err_msg=name)


@functools.cache
def perturbed_model(dtype):
    """``oracle_model`` in ``dtype``."""
    config = replace(oracle_model()[0], dtype=dtype)
    return config, TestDtype.perturbed(config)


class TestBatchInvariance:
    """An item's outputs do not depend on the other items of its batch:
    every output of an item has the bits the item gets alone, and every
    ``predict_logits`` chunking gives them too.  A one-token item alone
    makes every position-wise product a one-row product, which rounds
    differently (see TestGemmRows): its reference is the item beside a copy
    of itself, and a chunking that leaves it alone is not compared."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.lists(st.lists(st.integers(0, 19), min_size=2, max_size=40),
                       min_size=1, max_size=8),
        dtype=st.sampled_from(["float64", "float32"]),
    )
    @example(batch=[[2, 5, 5, 3], [2, 5, 5, 3], [2, 7, 9, 3]], dtype="float32")
    @example(batch=[[5, 6]] * 8, dtype="float64")
    @example(batch=[[5, 6], [3] * 40, [7, 8, 9], [4] * 17], dtype="float64")
    @example(batch=[[5, 6]], dtype="float64")  # the last layer's tail on two rows, one kept
    @example(batch=[[5], [9], [7], [3], [12]], dtype="float64")
    @example(batch=[[5], [9, 4, 4], [7]], dtype="float32")
    def test_items_get_the_bits_they_get_alone(self, batch, dtype):
        config, store = perturbed_model(dtype)
        seqs = [TokenSequence(tuple(ids)) for ids in batch]
        outs = forward(store, config, seqs, capture_attention=True)
        for item, out in zip(seqs, outs):
            alone = forward(store, config, [item] * (1 if len(item) > 1 else 2),
                            capture_attention=True)[0]
            for field in ("hidden", "logits", "probabilities", "attention"):
                assert getattr(out, field).dtype == np.dtype(dtype)
                npt.assert_array_equal(getattr(out, field), getattr(alone, field), err_msg=field)
            n = len(item)
            assert out.attention.shape == (config.n_layers, config.n_heads, n, n)
        want = np.stack([out.logits for out in outs])
        for batch_size in range(1, len(seqs) + 1):
            chunks = inference_chunks(seqs, config, batch_size)
            if min(sum(len(seqs[i]) for i in chunk) for chunk in chunks) > 1:
                npt.assert_array_equal(predict_logits(store, config, seqs, batch_size), want)


class TestAttentionRuns:
    """``_pack`` groups consecutive items of one length into runs, and
    ``_attention`` and ``_attention_backward`` compute each run as one
    [items, heads, L, L] block.  ``attention_oracle`` computes one item at a
    time, as the encoder did before; every output has its bits, with and
    without dropout."""

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([1, 2, 3, 5, 9]), min_size=1, max_size=10),
        n_heads=st.sampled_from([1, 2, 3]),
        dtype=st.sampled_from(["float64", "float32"]),
        dropout=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[1, 1, 3, 3, 3, 2, 9, 1, 5, 5], n_heads=2, dtype="float64", dropout=True,
             seed=0)
    @example(lengths=[9, 9, 9, 9], n_heads=3, dtype="float32", dropout=False, seed=1)
    @example(lengths=[1], n_heads=1, dtype="float64", dropout=True, seed=2)
    def test_runs_have_the_bits_of_one_item_at_a_time(self, lengths, n_heads, dtype, dropout,
                                                      seed):
        config = ModelConfig(vocab_size=20, n_labels=3, n_layers=1, n_heads=n_heads,
                             hidden_dim=12, ffn_dim=8, max_len=9, attention_dropout=0.3,
                             dtype=dtype)
        pk = _pack([TokenSequence((5,) * n) for n in lengths], config)
        assert [(items.stop - items.start, n) for items, _, n in pk.runs] == [
            (len(list(group)), n) for n, group in itertools.groupby(lengths)]
        rng = np.random.default_rng(seed)
        q, k, v, dctx = (rng.normal(0.0, 2.0, (len(pk.ids), 12)).astype(dtype)
                         for _ in range(4))
        draws = (lambda: np.random.default_rng(seed + 1)) if dropout else (lambda: None)
        ctx, runs = _attention(q, k, v, pk, config, draws())
        want_ctx, items = attention_oracle.attention(q, k, v, pk, config, draws())
        npt.assert_array_equal(ctx, want_ctx)
        # (probabilities, keep mask, probabilities used) of each item of each run
        got = [[None if part is None else part[j] for part in run]
               for run in runs for j in range(len(run[0]))]
        assert len(got) == len(items)
        for mine, theirs in zip(got, items):
            for a, b in zip(mine, theirs):
                assert (a is None) == (b is None)
                if b is not None:
                    assert a.dtype == b.dtype
                    npt.assert_array_equal(a, b)
        grads = _attention_backward(dctx, dict(q=q, k=k, v=v, attention=runs), pk, config)
        want = attention_oracle.attention_backward(
            dctx, dict(q=q, k=k, v=v, attention=items), pk, config)
        for name, a, b in zip(("dq", "dk", "dv"), grads, want):
            assert a.dtype == b.dtype
            npt.assert_array_equal(a, b, err_msg=name)


class TestInferenceChunks:
    """``predict_logits`` runs its input in ``inference_chunks``: shortest
    first, up to ``batch_size * max_len`` tokens a chunk.  Its rows come
    back in input order with the bits each item gets alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.lists(st.lists(st.integers(0, 19), min_size=2, max_size=40),
                       min_size=1, max_size=10),
        batch_size=st.integers(1, 12),
        dtype=st.sampled_from(["float64", "float32"]),
        shuffle=st.integers(0, 2**32 - 1),
    )
    @example(batch=[[5, 6]] * 3 + [[4] * 40] * 3, batch_size=1, dtype="float64", shuffle=0)
    def test_any_order_and_batch_size_give_the_same_bytes(self, batch, batch_size, dtype,
                                                          shuffle):
        config, store = perturbed_model(dtype)
        seqs = [TokenSequence(tuple(ids)) for ids in batch]
        alone = np.stack([forward(store, config, [item])[0].logits for item in seqs])
        order = np.random.default_rng(shuffle).permutation(len(seqs))
        got = predict_logits(store, config, [seqs[i] for i in order], batch_size)
        assert got.dtype == alone.dtype
        assert got.tobytes() == alone[order].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), max_size=12), batch_size=st.integers(1, 4))
    @example(lengths=[12, 12, 12, 12], batch_size=1)
    @example(lengths=[13, 2], batch_size=1)  # longer than max_len: a chunk of its own
    def test_chunks_are_length_ordered_and_within_the_budget(self, lengths, batch_size):
        config = ModelConfig(vocab_size=20, n_labels=3, max_len=12)
        seqs = [TokenSequence((5,) * n) for n in lengths]
        chunks = list(inference_chunks(seqs, config, batch_size))
        flat = [i for chunk in chunks for i in chunk]
        assert flat == sorted(range(len(seqs)), key=lambda i: lengths[i])
        for chunk in chunks:
            tokens = sum(lengths[i] for i in chunk)
            assert tokens <= batch_size * config.max_len or len(chunk) == 1
        for chunk, after in zip(chunks, chunks[1:]):  # each chunk is as full as it can be
            assert sum(lengths[i] for i in chunk + after[:1]) > batch_size * config.max_len


@pytest.fixture
def gelu_rows(monkeypatch):
    """The row count of every ``_gelu_term`` call from here on: per encoder
    layer the rows its FFN runs on, then the MLM head's rows."""
    rows = []
    term = model_module._gelu_term

    def counting(x):
        rows.append(len(x))
        return term(x)

    monkeypatch.setattr(model_module, "_gelu_term", counting)
    return rows


# 6, 3, 4 and 8 tokens
ROWS_BATCH = [seq(5, 6, 7, 8), seq(9), seq(10, 11), seq(5, 5, 5, 5, 5, 5)]


class TestLastLayerRows:
    """After the last attention, each pass runs the rest of the encoder on
    the rows it reads: ``predict_logits`` on the BOS rows, ``mlm_loss_value``
    on the masked rows, ``forward`` and ``loss_and_grad`` on every token.
    The bit tests above pass whether or not the rows are cut; these count
    them (the tiny model has two layers)."""

    @pytest.mark.parametrize("batch, batch_size, want", [
        (ROWS_BATCH, 4, [21, 4]),  # one BOS row per item
        # shortest first, up to 3 x max_len = 36 tokens a chunk: 3 + 12 + 12 tokens, then
        # a one-item chunk of 12 tokens, which runs its BOS row twice
        ([seq(*[5] * 10), seq(9), seq(*[6] * 10), seq(*[7] * 10)], 3, [27, 3, 12, 2]),
        ([TokenSequence((5,))], 1, [1, 1]),  # one token: one row already
    ])
    def test_predict_logits_runs_the_tail_on_bos_rows(self, gelu_rows, tiny_config, tiny_store,
                                                       batch, batch_size, want):
        predict_logits(tiny_store, tiny_config, batch, batch_size)
        assert gelu_rows == want

    @pytest.mark.parametrize("targets, want", [
        ([[(1, 5), (3, 8)], [], [(0, 4), (1, 4)], [(2, 7)]], [21, 5, 5]),
        ([[(1, 5), (1, 6)], [], [], []], [21, 2, 2]),  # a position listed twice runs twice
        ([[], [], [], [(4, 9)]], [21, 2, 1]),  # one masked row runs twice, the head once
    ])
    def test_mlm_loss_value_runs_the_tail_on_masked_rows(self, gelu_rows, tiny_config,
                                                          tiny_store, targets, want):
        mlm_loss_value(tiny_store, tiny_config, ROWS_BATCH, targets)
        assert gelu_rows == want

    @pytest.mark.parametrize("targets", [[[(6, 5)], [], [], []], [[], [], [], []]])
    def test_bad_mlm_target_fails_before_the_encoder(self, gelu_rows, tiny_config, tiny_store,
                                                      targets):
        with pytest.raises(ModelError):
            mlm_loss_value(tiny_store, tiny_config, ROWS_BATCH, targets)
        assert gelu_rows == []

    @settings(max_examples=60, deadline=None)
    @given(
        batch=BATCHES,
        masked=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 39), st.integers(0, 19)),
                        min_size=1, max_size=12),
        dtype=st.sampled_from(["float64", "float32"]),
    )
    @example(batch=[[5, 6, 7], [8, 9]], masked=[(1, 1, 4)], dtype="float64")  # one masked row
    @example(batch=[[5, 6, 7], [8, 9]], masked=[(0, 2, 4), (0, 2, 4)], dtype="float32")
    @example(batch=[[5, 6, 7, 8]], masked=[(0, 1, 3), (0, 3, 11)], dtype="float64")
    @example(batch=[[5, 6, 7, 8]], masked=[(0, 2, 9)], dtype="float32")
    @example(batch=[[3]], masked=[(0, 0, 0), (0, 0, 1)], dtype="float64")  # one token, kept twice
    def test_mlm_loss_value_has_the_bits_of_the_full_pass(self, batch, masked, dtype):
        """``mlm_loss_value`` against the head and objective applied to the
        gathered rows of a pass that runs every row."""
        config, store = perturbed_model(dtype)
        seqs = [TokenSequence(tuple(ids)) for ids in batch]
        targets = [[] for _ in seqs]
        for item, pos, original in masked:  # (item, position) folded into the batch
            item %= len(seqs)
            targets[item].append((pos % len(seqs[item]), original))
        hidden, (pk, _) = _forward_core(store, config, seqs)
        index, tgt = _gather_mlm(pk, targets)
        want, _ = _mlm_objective(_mlm_head_forward(store, hidden[index])[0], tgt)
        assert mlm_loss_value(store, config, seqs, targets) == want

    def test_paper_width_float32_logits_are_forward_logits(self):
        """768/3072 GEMMs, float32, at the bench's classify query lengths in
        batches of 4, and one query alone."""
        config = ModelConfig(vocab_size=1395, n_labels=500, n_layers=2, dtype="float32", seed=1)
        store = init_model(config)
        rng = np.random.default_rng(0)
        seqs = [TokenSequence(tuple(rng.integers(4, config.vocab_size, n).tolist()))
                for n in (128, 92, 200, 164, 20, 56)]
        want = [out.logits for chunk in (seqs[:4], seqs[4:], seqs[:1])
                for out in forward(store, config, chunk)]
        got = np.concatenate([predict_logits(store, config, seqs, batch_size=4),
                              predict_logits(store, config, seqs[:1])])
        npt.assert_array_equal(got, np.stack(want))

    def test_forward_and_training_run_every_row(self, gelu_rows, tiny_config, tiny_store):
        labels = np.zeros((len(ROWS_BATCH), tiny_config.n_labels))
        for call, want in (
            (lambda: forward(tiny_store, tiny_config, ROWS_BATCH), [21, 21]),
            (lambda: forward(tiny_store, tiny_config, ROWS_BATCH, capture_attention=True),
             [21, 21]),
            (lambda: loss_and_grad(tiny_store, tiny_config, ROWS_BATCH, "multilabel",
                                   labels=labels, optimizer=WholeGradient(tiny_store)),
             [21, 21]),
            (lambda: loss_and_grad(tiny_store, tiny_config, ROWS_BATCH, "mlm",
                                   mlm_targets=[[(1, 5)], [], [], []],
                                   optimizer=WholeGradient(tiny_store)),
             [21, 21, 1]),
        ):
            gelu_rows.clear()
            call()
            assert gelu_rows == want


def float_arrays(tree):
    """Every floating-point array in a nested cache of dicts, lists and tuples."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [a for item in tree for a in float_arrays(item)]
    if isinstance(tree, np.ndarray) and tree.dtype.kind == "f":
        return [tree]
    return []


def traced_peak(call):
    """``call``'s result and the peak of the memory it allocates."""
    call()  # first-call allocations stay out of the measured peak
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInferenceMemory:
    """Inference and validation hold one layer's activations at a time, not
    the backward cache of every layer, so their peak does not grow with
    depth."""

    @staticmethod
    def model(n_layers):
        config = ModelConfig(vocab_size=20, n_labels=3, n_layers=n_layers, n_heads=4,
                             hidden_dim=16, ffn_dim=32, max_len=64, seed=1)
        return config, init_model(config)

    BATCH = [seq(*([5, 6, 7] * 20)) for _ in range(4)]

    def test_peak_near_one_layer(self):
        # one layer's activations on every token are the peak of a one-layer
        # model's full encoder pass (the weights are allocated before the
        # measurement).  Six layers may add the previous layer's last arrays
        # while the next one starts (1.34x measured); keeping every layer's
        # cache reads over 3x.
        config, store = self.model(1)
        _, one_layer = traced_peak(lambda: _forward_core(store, config, self.BATCH))
        config, store = self.model(6)
        targets = [[(1, 5), (2, 6)] for _ in self.BATCH]
        for call in (lambda: predict_logits(store, config, self.BATCH),
                     lambda: mlm_loss_value(store, config, self.BATCH, targets)):
            assert traced_peak(call)[1] < 1.5 * one_layer

    def test_capture_adds_only_the_returned_attention(self):
        # keeping every layer's backward cache, as the training pass does,
        # read 0.9 MB over this bound (the attention is 0.7 MB)
        config, store = self.model(6)
        batch = [seq(*([5, 6, 7] * 20))]
        _, plain = traced_peak(lambda: forward(store, config, batch))
        outputs, capturing = traced_peak(
            lambda: forward(store, config, batch, capture_attention=True)
        )
        attention = outputs[0].attention.nbytes
        # a few hundred bytes of Python objects besides the weights
        assert capturing <= plain + attention + 4096

    def test_capture_follows_each_item_own_length(self):
        # a buffer padded to the longest item holds 4 * 62^2 values per layer
        # and head here, 3.9 times the items' own 62^2 + 3 * 7^2
        config, store = self.model(6)
        batch = [seq(*([5, 6, 7] * 20))] + [seq(5, 6, 7, 8, 9)] * 3
        _, plain = traced_peak(lambda: forward(store, config, batch))
        outputs, capturing = traced_peak(
            lambda: forward(store, config, batch, capture_attention=True)
        )
        itemsize = np.dtype(config.np_dtype()).itemsize
        own = sum(config.n_layers * config.n_heads * len(item) ** 2 * itemsize for item in batch)
        assert sum(out.attention.nbytes for out in outputs) == own
        assert capturing <= plain + own + 4096

    def test_over_length_batch_fails_before_capture_allocates(self):
        config, store = self.model(6)
        batch = [seq(5, 6), seq(*([5] * (config.max_len + 1)))]
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="exceeds max_len"):
                forward(store, config, batch, capture_attention=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # under one head-layer of one item at max_len; a buffer allocated
        # before the length check would hold 1.6 MB here
        assert peak < config.n_heads * config.max_len ** 2 * 8


class TestLoadMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set from procfs")
    def test_load_grows_by_one_arena_and_one_array(self, tmp_path):
        """A fresh process loading a float32 model grows by the parameter
        arena plus one array's float64 bytes: not by the file (twice the
        arena) nor by a written gradient arena."""
        config = ModelConfig(vocab_size=1000, n_labels=50, n_layers=8, n_heads=4,
                             hidden_dim=256, ffn_dim=1024, max_len=512,
                             dtype="float32", seed=1)
        store = init_model(config)
        save_model(store, config, tmp_path / "m.bin")
        arena = store.param_arena.nbytes
        largest = 8 * max(p.size for p in store.params.values())
        del store
        # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the RSS of the
        # process that started it
        script = (
            "import sys\n"
            "from ontograft.model import load_model\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
            "before = peak_kib()\n"
            "load_model(sys.argv[1])\n"
            "print(peak_kib() - before)\n"
        )
        growth = 1024 * int(run_python(script, str(tmp_path / "m.bin")))
        # a 27 MB arena grew the process by 28 MB; holding the file and
        # writing a second, gradient arena as well read 104 MB
        assert growth < 1.25 * arena + largest


class TestStoreMemory:
    def test_init_and_load_trace_one_arena(self, tmp_path):
        """A store holds its parameter arena and nothing the size of the
        model besides: gradients live in the optimizer, one group at a
        time.  Creating or loading one traces the arena, one array's
        float64 bytes (a draw or a read) and the views' Python objects."""
        config = ModelConfig(vocab_size=20, n_labels=3, n_layers=4, n_heads=4, hidden_dim=32,
                             ffn_dim=128, max_len=64, seed=1)
        store = init_model(config)
        save_model(store, config, tmp_path / "m.bin")
        arena = store.param_arena.nbytes
        largest = 8 * max(p.size for p in store.params.values())
        # 27 KB of views and layout measured (75 tensors); with a second,
        # gradient arena beside the parameters both calls traced 2.2 x the arena
        bound = arena + largest + 64 * 1024
        for call in (lambda: init_model(config), lambda: load_model(tmp_path / "m.bin")):
            assert traced_peak(call)[1] <= bound


class TestDtype:
    """``ModelConfig.dtype`` is the dtype of every array the model computes."""

    @staticmethod
    def perturbed(config):
        # weights far enough from init that every path carries signal
        store = init_model(config)
        rng = np.random.default_rng(3)
        for param in store.params.values():
            param[...] += rng.normal(0.0, 0.1, param.shape)
        return store

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("objective", ["multilabel", "mlm"])
    def test_every_array_has_configured_dtype(self, tiny_config, dtype, objective):
        config = replace(tiny_config, dtype=dtype)
        want = np.dtype(dtype)
        store = self.perturbed(config)
        batch = [seq(5, 6, 7, 8), seq(9, 10)]
        layers = []
        hidden, cache = _forward_core(store, config, batch, rng=np.random.default_rng(0),
                                      on_layer=layers.append)
        cached = float_arrays([hidden, cache, layers])
        assert len(cached) > 20
        assert {a.dtype for a in cached} == {want}

        if objective == "multilabel":
            targets = dict(labels=np.array([[1, 0, 1], [0, 1, 0]], dtype=float))
        else:
            targets = dict(mlm_targets=[[(1, 5), (3, 8)], [(2, 10)]])
        whole = WholeGradient(store)
        loss = loss_and_grad(store, config, batch, objective,
                             rng=np.random.default_rng(0), optimizer=whole, **targets)
        assert np.isfinite(loss)
        assert {g.dtype for g in whole.grads.values()} == {want}
        assert all(np.any(whole.grads[n] != 0) for n in ("tok_emb", "layers.0.ffn.w1"))

        outs = forward(store, config, batch)
        for out in outs:
            for array in (out.hidden, out.logits, out.probabilities):
                assert array.dtype == want
        assert _mlm_head_forward(store, outs[0].hidden[[1, 2]])[0].dtype == want
        assert predict_logits(store, config, batch).dtype == want

    def test_float32_agrees_with_float64(self, tiny_config):
        config64, config32 = tiny_config, replace(tiny_config, dtype="float32")
        store64 = self.perturbed(config64)
        store32 = init_model(config32)
        store32.param_arena[...] = store64.param_arena
        batch = [seq(5, 6, 7, 8, 11, 12), seq(9, 10)]
        # float32 rounds at about 6e-8 relative; two layers measured 3e-7 here
        for a, b in zip(forward(store32, config32, batch), forward(store64, config64, batch)):
            npt.assert_allclose(a.hidden, b.hidden, rtol=0, atol=1e-5)
            npt.assert_allclose(a.logits, b.logits, rtol=0, atol=1e-5)

    def test_float32_padding_invariance(self, tiny_config):
        config = replace(tiny_config, dtype="float32")
        store = self.perturbed(config)
        item = seq(5, 6, 7)
        alone = forward(store, config, [item])[0]
        padded = forward(store, config, [item, seq(8, 9, 10, 11, 12, 13)])[0]
        npt.assert_allclose(alone.hidden, padded.hidden, rtol=0, atol=1e-5)
        npt.assert_allclose(alone.logits, padded.logits, rtol=0, atol=1e-5)

    def test_float32_token_importance_sums_to_one(self, tiny_config):
        tokenizer = train_bpe(["CCOCNC(=O)c1ccccc1", "ClBrC=CC#N"], target_vocab=30)
        config = replace(tiny_config, vocab_size=len(tokenizer.vocab), max_len=64,
                         dtype="float32")
        store = self.perturbed(config)
        item = tokenizer.encode("CCOCNC(=O)c1ccccc1ClBrC=CC#NCCOCNC(=O)c1ccccc1")
        out = forward(store, config, [item], capture_attention=True)[0]
        assert out.attention.dtype == np.float32
        scores = token_importance(out.attention, item, tokenizer).scores
        assert abs(float(scores.sum()) - 1.0) < 1e-6


class TestPersistence:
    def test_bitwise_round_trip(self, tiny_config, tiny_store, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_store, tiny_config, path)
        loaded, config, extra = load_model(path)
        assert config == tiny_config
        assert extra == b""
        assert list(loaded.params) == list(tiny_store.params)
        for name in tiny_store.params:
            npt.assert_array_equal(loaded.params[name], tiny_store.params[name])

    def test_retired_config_keys_at_their_kept_values_load(self, tiny_config, tiny_store,
                                                           tmp_path):
        """Files saved while ModelConfig had activation and mlm_loss store
        both keys; at the values the model still computes, they load."""
        path = tmp_path / "model.bin"
        save_model(tiny_store, tiny_config, path)
        old = tmp_path / "old.bin"
        old.write_bytes(with_config_keys(
            path.read_bytes(), activation="gelu", mlm_loss="cross_entropy"))
        loaded, config, extra = load_model(old)
        assert config == tiny_config
        assert extra == b""
        assert loaded.param_arena.tobytes() == tiny_store.param_arena.tobytes()

    def test_save_is_deterministic(self, tiny_config, tiny_store, tmp_path):
        save_model(tiny_store, tiny_config, tmp_path / "a.bin")
        save_model(tiny_store, tiny_config, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_float32_round_trip(self, tmp_path):
        config = ModelConfig(vocab_size=12, n_labels=2, n_layers=1, n_heads=2,
                             hidden_dim=8, ffn_dim=8, max_len=8, dtype="float32", seed=2)
        store = init_model(config)
        assert store.params["tok_emb"].dtype == np.float32
        save_model(store, config, tmp_path / "m.bin")
        loaded, loaded_config, _ = load_model(tmp_path / "m.bin")
        assert loaded_config.dtype == "float32"
        for name in store.params:
            npt.assert_array_equal(loaded.params[name], store.params[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model at all")
        with pytest.raises(ModelError):
            load_model(path)
