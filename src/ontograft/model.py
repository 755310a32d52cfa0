"""Encoder-only transformer over token sequences, written directly in numpy.

Forward pass with optional attention capture, plus an analytic backward pass
filling per-parameter gradient slots.  Pre-norm residual blocks with the
exact (erf) GELU, learned absolute position embeddings, BOS pooling for a
sigmoid multi-label head, and an MLM head tied to the token embedding matrix
and trained with softmax cross-entropy.

Every pass goes through ``_forward_core``.  Attention dropout applies iff an
rng is passed (``loss_and_grad(..., rng=...)``).  Only ``loss_and_grad`` keeps
every layer's intermediates; ``forward(capture_attention=True)`` copies each
layer's attention probabilities into one [layers, heads, L, L] array per
item, at the item's own length L, and inference and validation hold one
layer's activations at a time.

Position-wise work (embeddings, layer norms, the Q/K/V and output
projections, the FFN, both heads, and all of their gradients) runs on the
batch's real tokens, packed into one [n_tokens, d] matrix.  Attention runs
once per sequence, on its own [heads, L, L] block sliced from the packed
Q/K/V rows, so no key is padding and none is masked.  An item's outputs
therefore do not depend on the other items of its batch, as long as a row
of a matrix product does not depend on the product's other rows (which
holds for products of two rows or more).

All math runs in 64-bit floats by default so gradients can be checked against
central finite differences; with ``dtype = "float32"`` every array computed
here is float32.  Constants are Python floats, never NumPy scalars: under
NumPy 2 scalar promotion (NEP 50) an ``np.float64`` scalar would upcast a
float32 array to float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from itertools import chain, count
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erf, expit

from ._io import _replacing
from .tokenizer import PAD_ID, TokenSequence

LN_EPS = 1e-5
_SQRT_2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

MODEL_MAGIC = b"OGMODEL\n"
MODEL_VERSION = 1
# Config keys of retired options -> the one value the model still computes.
# A file that stores a key at that value loads; any other value is an error.
_RETIRED_CONFIG = {"activation": "gelu", "mlm_loss": "cross_entropy"}


class ModelError(Exception):
    pass


class NumericError(ModelError):
    """Raised when a loss or gradient stops being finite."""

    def __init__(self, where: str):
        super().__init__(f"non-finite value in {where}")
        self.where = where


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_labels: int
    n_layers: int = 6
    n_heads: int = 12
    hidden_dim: int = 768
    ffn_dim: int = 3072
    max_len: int = 512
    attention_dropout: float = 0.1
    dtype: str = "float64"
    seed: int = 0

    def __post_init__(self):
        counts = {
            "vocab_size": self.vocab_size,
            "n_labels": self.n_labels,
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "hidden_dim": self.hidden_dim,
            "ffn_dim": self.ffn_dim,
            "max_len": self.max_len,
        }
        for key, value in counts.items():
            if value < 1:
                raise ModelError(f"{key} must be >= 1, got {value}")
        if self.hidden_dim % self.n_heads != 0:
            raise ModelError(
                f"hidden_dim {self.hidden_dim} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.attention_dropout < 1.0:
            raise ModelError("attention_dropout must be in [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ModelError(f"unknown dtype {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Declaration-order map of parameter names to shapes."""
    d, f = config.hidden_dim, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_len, d),
    }
    for i in range(config.n_layers):
        prefix = f"layers.{i}."
        shapes[prefix + "ln1.g"] = (d,)
        shapes[prefix + "ln1.b"] = (d,)
        for proj in ("q", "k", "v", "o"):
            shapes[prefix + f"attn.w{proj}"] = (d, d)
            shapes[prefix + f"attn.b{proj}"] = (d,)
        shapes[prefix + "ln2.g"] = (d,)
        shapes[prefix + "ln2.b"] = (d,)
        shapes[prefix + "ffn.w1"] = (d, f)
        shapes[prefix + "ffn.b1"] = (f,)
        shapes[prefix + "ffn.w2"] = (f, d)
        shapes[prefix + "ffn.b2"] = (d,)
    shapes["final_ln.g"] = (d,)
    shapes["final_ln.b"] = (d,)
    # MLM head: transform, then a decoder tied to the token embeddings.
    shapes["mlm.w"] = (d, d)
    shapes["mlm.b"] = (d,)
    shapes["mlm_ln.g"] = (d,)
    shapes["mlm_ln.b"] = (d,)
    shapes["mlm_bias"] = (config.vocab_size,)
    shapes["cls.w"] = (d, config.n_labels)
    shapes["cls.b"] = (config.n_labels,)
    return shapes


def _decay_applies(name: str) -> bool:
    """Weight matrices and embeddings: the tensors that take decoupled weight
    decay and a random initialisation.  Layer-norm parameters and biases do
    not."""
    last = name.rsplit(".", 1)[-1]
    return name in ("tok_emb", "pos_emb") or last.startswith("w")


class ParameterStore:
    """Named parameters in one contiguous array (the parameter arena) and
    their gradients in a second one of the same layout and dtype.

    ``params[name]`` and ``grads[name]`` are views into ``param_arena`` and
    ``grad_arena``; both dicts keep the declaration order of ``shapes``, the
    order ``save_model`` writes.  The arena holds the decayed tensors
    (``_decay_applies``) first, each group in declaration order, so weight
    decay touches the prefix ``arena[:n_decayed]`` alone.  ``views`` lays
    out any other arena of the same size, such as the Adam moments.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype=np.float64):
        spans: dict[str, slice] = {}
        start, self.n_decayed = 0, 0
        for name in sorted(shapes, key=lambda name: not _decay_applies(name)):
            stop = start + int(np.prod(shapes[name]))
            spans[name] = slice(start, stop)
            if _decay_applies(name):
                self.n_decayed = stop
            start = stop
        self._layout = {name: (spans[name], tuple(shape)) for name, shape in shapes.items()}
        self.param_arena = np.zeros(start, dtype=dtype)
        # np.zeros, not zeros_like: no page is touched until training writes it
        self.grad_arena = np.zeros(start, dtype=dtype)
        self.params = self.views(self.param_arena)
        self.grads = self.views(self.grad_arena)

    def views(self, arena: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views, in declaration order, into an arena laid out
        like this store's."""
        return {name: arena[span].reshape(shape) for name, (span, shape) in self._layout.items()}

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grads(self) -> None:
        self.grad_arena.fill(0.0)

    def n_parameters(self) -> int:
        return self.param_arena.size

    def copy(self) -> "ParameterStore":
        shapes = {name: shape for name, (_, shape) in self._layout.items()}
        out = ParameterStore(shapes, self.param_arena.dtype)
        for name, p in self.params.items():
            out.params[name][...] = p
        return out


def init_model(config: ModelConfig) -> ParameterStore:
    """Weights from N(0, 0.02^2), layer-norm scale 1 / offset 0, biases 0,
    PAD embedding row zeroed.  Deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    shapes = parameter_shapes(config)
    store = ParameterStore(shapes, config.np_dtype())
    for name, shape in shapes.items():
        if _decay_applies(name):
            store.params[name][...] = rng.normal(0.0, 0.02, size=shape)
        elif name.endswith(".g"):
            store.params[name][...] = 1.0
        # layer-norm offsets and all biases stay 0
    store.params["tok_emb"][PAD_ID, :] = 0.0
    return store


# ---------------------------------------------------------------------------
# primitives


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # x.mean and x.var would center x twice; these are the same operations
    # in the same order, so the bits are theirs
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    xhat = x - mean
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    return xhat * g + b, (xhat, inv_std)


def _layer_norm_backward(dy: np.ndarray, cache, g: np.ndarray):
    # the reductions of .sum and .mean without numpy's Python wrappers, in
    # the same order, so the bits are theirs
    xhat, inv_std = cache
    n, rows = dy.shape[-1], tuple(range(dy.ndim - 1))
    dg = np.add.reduce(dy * xhat, axis=rows)
    db = np.add.reduce(dy, axis=rows)
    dxhat = dy * g
    mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True)
    mean_dxhat /= n
    mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    mean_dxhat_xhat /= n
    dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dg, db


def _gelu_term(x: np.ndarray) -> np.ndarray:
    """The erf term of the exact GELU: gelu = 0.5 x (1 + term).  Forward
    passes keep it so the backward pass need not evaluate it again."""
    return erf(x / _SQRT_2)


def _gelu(x: np.ndarray, term: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + term)


def _gelu_grad(x: np.ndarray, term: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + term)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


class _Packing(NamedTuple):
    """Where a batch's real tokens sit.  Packed row ``r`` holds token
    ``ids[r]`` at position ``positions[r]``; item ``b`` has ``lengths[b]``
    rows from ``offsets[b]``, the slice ``rows[b]``."""

    ids: np.ndarray
    positions: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    rows: list[slice]


def _pack(seqs: list[TokenSequence], config: ModelConfig) -> _Packing:
    """Concatenate the sequences' tokens, with no padding between them."""
    if not seqs:
        raise ModelError("empty batch")
    lengths = np.array([len(s) for s in seqs])
    if lengths.min() < 1:
        raise ModelError("empty sequence in batch")
    if lengths.max() > config.max_len:
        raise ModelError(f"sequence length {lengths.max()} exceeds max_len {config.max_len}")
    ids = np.fromiter(chain.from_iterable(s.ids for s in seqs), np.int64, lengths.sum())
    if ids.max() >= config.vocab_size or ids.min() < 0:
        raise ModelError("token id out of range")
    offsets = np.cumsum(lengths) - lengths
    positions = np.arange(ids.size) - np.repeat(offsets, lengths)
    rows = [slice(start, start + n) for start, n in zip(offsets.tolist(), lengths.tolist())]
    return _Packing(ids, positions, offsets, lengths, rows)


def _heads(rows: np.ndarray, n_heads: int) -> np.ndarray:
    """One sequence's packed rows [L, d] as a view [heads, L, d / heads]."""
    return rows.reshape(len(rows), n_heads, -1).swapaxes(0, 1)


def _attention(q, k, v, pk: _Packing, config: ModelConfig, rng):
    """Scaled dot-product attention of each sequence over its own keys, on
    one [heads, L, L] block per item; dropout iff ``rng`` is given.  Returns
    the packed context rows and, per item, (probabilities, dropout keep mask
    or None, the probabilities used for the context)."""
    dropout = config.attention_dropout if rng is not None else 0.0
    scale = float(1.0 / np.sqrt(config.head_dim))  # a Python float keeps the dtype
    if dropout > 0.0:
        # one draw of [batch, heads, T_max, T_max] values, each item keeping
        # the corner of its own length: the stream training has always drawn
        t = int(pk.lengths.max())
        draws = rng.random((len(pk.rows), config.n_heads, t, t))
    ctx = np.empty_like(q)
    items = []
    for b, rows in enumerate(pk.rows):
        qb, kb, vb = (_heads(a[rows], config.n_heads) for a in (q, k, v))
        # softmax in place: scores, exponentials and probabilities share one array
        p = qb @ kb.swapaxes(-1, -2)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        n = rows.stop - rows.start
        keep = draws[b, :, :n, :n] >= dropout if dropout > 0.0 else None
        p_used = p if keep is None else p * keep / (1.0 - dropout)
        _heads(ctx[rows], config.n_heads)[...] = p_used @ vb
        items.append((p, keep, p_used))
    return ctx, items


def _attention_backward(dctx, lc: dict, pk: _Packing, config: ModelConfig):
    """d(loss)/d(packed Q, K, V rows) from d(loss)/d(packed context rows),
    one item at a time as in ``_attention``."""
    scale = float(1.0 / np.sqrt(config.head_dim))
    dq, dk, dv = (np.empty_like(dctx) for _ in range(3))
    for rows, (probs, keep, p_used) in zip(pk.rows, lc["attention"]):
        qb, kb, vb, dcb = (_heads(a[rows], config.n_heads)
                           for a in (lc["q"], lc["k"], lc["v"], dctx))
        dp = dcb @ vb.swapaxes(-1, -2)
        _heads(dv[rows], config.n_heads)[...] = p_used.swapaxes(-1, -2) @ dcb
        if keep is not None:  # dropout ran in the forward pass
            dp = dp * keep / (1.0 - config.attention_dropout)
        ds = probs * (dp - (probs * dp).sum(axis=-1, keepdims=True))
        _heads(dq[rows], config.n_heads)[...] = (ds @ kb) * scale
        _heads(dk[rows], config.n_heads)[...] = (ds.swapaxes(-1, -2) @ qb) * scale
    return dq, dk, dv


# ---------------------------------------------------------------------------
# forward


@dataclass
class ForwardOutput:
    hidden: np.ndarray  # [length, hidden_dim]; row 0 is the BOS state the head reads
    logits: np.ndarray  # [n_labels]
    probabilities: np.ndarray  # sigmoid(logits)
    # [n_layers, n_heads, length, length] post-softmax probabilities, each row
    # summing to 1 over the item's own keys; None unless captured
    attention: np.ndarray | None = None


def _forward_core(
    store: ParameterStore,
    config: ModelConfig,
    batch: list[TokenSequence],
    rng: np.random.Generator | None = None,
    on_layer: Callable[[dict], None] | None = None,
):
    """Pack ``batch`` and run the encoder stack; the one way into the encoder.

    Position-wise operations run on the packed real tokens [n_tokens, d];
    attention runs per sequence (``_attention``).  Attention dropout applies
    iff ``rng`` is given.  ``on_layer``, if given, is called with each
    layer's backward cache and keeps what it needs of it; otherwise only one
    layer's activations are alive at a time.  Returns the packed final
    hidden states and what the backward pass needs beyond the layer caches:
    the packing and the final layer norm's cache.
    """
    pk = _pack(batch, config)
    p = store.params

    x = p["tok_emb"][pk.ids] + p["pos_emb"][pk.positions]
    for i in range(config.n_layers):
        lp = f"layers.{i}."
        h1, ln1_cache = _layer_norm(x, p[lp + "ln1.g"], p[lp + "ln1.b"])
        q, k, v = (h1 @ p[lp + f"attn.w{proj}"] + p[lp + f"attn.b{proj}"] for proj in "qkv")
        ctx, attention = _attention(q, k, v, pk, config, rng)
        x = x + (ctx @ p[lp + "attn.wo"] + p[lp + "attn.bo"])
        h2, ln2_cache = _layer_norm(x, p[lp + "ln2.g"], p[lp + "ln2.b"])
        a1 = h2 @ p[lp + "ffn.w1"] + p[lp + "ffn.b1"]
        e1 = _gelu_term(a1)
        x = x + (_gelu(a1, e1) @ p[lp + "ffn.w2"] + p[lp + "ffn.b2"])
        if on_layer is not None:
            on_layer(dict(h1=h1, ln1=ln1_cache, q=q, k=k, v=v, attention=attention, ctx=ctx,
                          h2=h2, ln2=ln2_cache, a1=a1, e1=e1))

    hidden, final_ln_cache = _layer_norm(x, p["final_ln.g"], p["final_ln.b"])
    return hidden, (pk, final_ln_cache)


def _classification_logits(store: ParameterStore, hidden: np.ndarray, offsets: np.ndarray):
    """The classification head on the packed BOS rows: (BOS rows, logits).

    The head runs as a stack of one-row products, one per item: numpy
    computes a one-row product as a matrix-vector product, which rounds
    differently from a product of several rows, so each item's logits have
    the bits the item gets alone."""
    bos = hidden[offsets]
    logits = (bos[:, None] @ store.params["cls.w"])[:, 0] + store.params["cls.b"]
    return bos, logits


def forward(
    store: ParameterStore,
    config: ModelConfig,
    batch: list[TokenSequence],
    capture_attention: bool = False,
) -> list[ForwardOutput]:
    """Encode a batch and apply the classification head, without dropout.

    Each sequence attends over its own tokens only; the head reads the
    hidden state at BOS; label probabilities are elementwise sigmoids.  Each
    item's ``hidden`` is a view into the batch's packed rows.

    Every output of an item of two tokens or more (hidden states, attention,
    logits, probabilities) has the bits it has when the item is encoded
    alone, whatever the other items of the batch.  (A one-token item alone
    makes every position-wise product a one-row product, which rounds
    differently.)
    """
    attention: list[np.ndarray] = []
    layers = count()

    def capture(lc):
        # each item's array is allocated at the first layer, after _pack has
        # checked the lengths, and filled as each layer ends, so capturing
        # adds the returned arrays and nothing else to the peak
        i = next(layers)
        if i == 0:
            attention.extend(np.empty((config.n_layers, *probs.shape), probs.dtype)
                             for probs, _, _ in lc["attention"])
        for out, (probs, _, _) in zip(attention, lc["attention"]):
            out[i] = probs

    hidden, (pk, _) = _forward_core(store, config, batch,
                                    on_layer=capture if capture_attention else None)
    _, logits = _classification_logits(store, hidden, pk.offsets)
    probs = expit(logits)
    return [
        ForwardOutput(
            hidden=hidden[rows],
            logits=logits[b].copy(),
            probabilities=probs[b].copy(),
            attention=attention[b] if attention else None,
        )
        for b, rows in enumerate(pk.rows)
    ]


def _mlm_head_forward(store: ParameterStore, rows: np.ndarray):
    """Vocabulary logits for hidden-state rows: transform (dense + gelu +
    layer norm), then the decoder tied to the token embeddings plus a bias."""
    p = store.params
    a = rows @ p["mlm.w"] + p["mlm.b"]
    e = _gelu_term(a)
    t, ln_cache = _layer_norm(_gelu(a, e), p["mlm_ln.g"], p["mlm_ln.b"])
    logits = t @ p["tok_emb"].T + p["mlm_bias"]
    return logits, (rows, a, e, t, ln_cache)


def _mlm_head_backward(store: ParameterStore, dlogits, cache):
    rows, a, e, t, ln_cache = cache
    p, grad = store.params, store.grads
    grad["mlm_bias"] += dlogits.sum(axis=0)
    grad["tok_emb"] += dlogits.T @ t
    dt = dlogits @ p["tok_emb"]
    dg, dlng, dlnb = _layer_norm_backward(dt, ln_cache, p["mlm_ln.g"])
    grad["mlm_ln.g"] += dlng
    grad["mlm_ln.b"] += dlnb
    da = dg * _gelu_grad(a, e)
    grad["mlm.w"] += rows.T @ da
    grad["mlm.b"] += da.sum(axis=0)
    return da @ p["mlm.w"].T


# ---------------------------------------------------------------------------
# losses and backward


def _backward_core(store: ParameterStore, config: ModelConfig, cache, layers, d_hidden):
    """Propagate d(loss)/d(packed final hidden) back to every parameter
    gradient, consuming ``layers`` (each layer's cache is dropped once used).
    Weight gradients sum over the real tokens only."""
    p, g = store.params, store.grads
    pk, final_ln_cache = cache

    dx, dg_f, db_f = _layer_norm_backward(d_hidden, final_ln_cache, p["final_ln.g"])
    g["final_ln.g"] += dg_f
    g["final_ln.b"] += db_f

    for i in reversed(range(config.n_layers)):
        lp = f"layers.{i}."
        lc = layers.pop()
        # FFN block
        df = dx  # gradient at x_out flows to both f_out and x_mid
        a1, e1 = lc["a1"], lc["e1"]
        # the GELU output, rebuilt from the cached erf term by the forward's expression
        g[lp + "ffn.w2"] += _gelu(a1, e1).T @ df
        g[lp + "ffn.b2"] += df.sum(axis=0)
        # d(loss)/d(g1), turned into d(loss)/d(a1) in place: one array fewer at the peak
        da1 = df @ p[lp + "ffn.w2"].T
        da1 *= _gelu_grad(a1, e1)
        g[lp + "ffn.w1"] += lc["h2"].T @ da1
        g[lp + "ffn.b1"] += da1.sum(axis=0)
        dh2 = da1 @ p[lp + "ffn.w1"].T
        dx_mid, dg2, db2 = _layer_norm_backward(dh2, lc["ln2"], p[lp + "ln2.g"])
        g[lp + "ln2.g"] += dg2
        g[lp + "ln2.b"] += db2
        dx_mid = dx_mid + dx  # residual

        # attention block
        da_out = dx_mid
        g[lp + "attn.wo"] += lc["ctx"].T @ da_out
        g[lp + "attn.bo"] += da_out.sum(axis=0)
        dq, dk, dv = _attention_backward(da_out @ p[lp + "attn.wo"].T, lc, pk, config)
        for proj, darr in (("q", dq), ("k", dk), ("v", dv)):
            g[lp + f"attn.w{proj}"] += lc["h1"].T @ darr
            g[lp + f"attn.b{proj}"] += darr.sum(axis=0)
        dh1 = (
            dq @ p[lp + "attn.wq"].T
            + dk @ p[lp + "attn.wk"].T
            + dv @ p[lp + "attn.wv"].T
        )
        dx_in, dg1_, db1_ = _layer_norm_backward(dh1, lc["ln1"], p[lp + "ln1.g"])
        g[lp + "ln1.g"] += dg1_
        g[lp + "ln1.b"] += db1_
        dx = dx_mid + dx_in

    np.add.at(g["tok_emb"], pk.ids, dx)
    np.add.at(g["pos_emb"], pk.positions, dx)


def multilabel_loss_value(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy on logits over all (item, label) cells."""
    z = logits
    per_cell = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(per_cell.mean())


def _mlm_objective(logits: np.ndarray, targets: np.ndarray):
    """(loss, dloss/dlogits): mean softmax cross-entropy of the masked
    positions' original tokens over the vocabulary."""
    M = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    loss = float((logz - shifted[np.arange(M), targets]).mean())
    dlogits = np.exp(shifted) / np.exp(logz)[:, None]
    dlogits[np.arange(M), targets] -= 1.0
    dlogits /= M
    return loss, dlogits


def _gather_mlm(hidden: np.ndarray, pk: _Packing, targets: list[list[tuple[int, int]]]):
    """The packed hidden rows at the masked positions, their row index in
    target order, and the original token ids."""
    pairs = [(b, pos, original) for b, entries in enumerate(targets) for pos, original in entries]
    if not pairs:
        raise ModelError("MLM batch contains no masked positions")
    item, pos, tgt = np.array(pairs, dtype=np.int64).T
    # a position past its own item would read the next item's row
    if len(targets) > len(pk.offsets) or np.any((pos < 0) | (pos >= pk.lengths[item])):
        raise ModelError("MLM target position outside its sequence")
    index = pk.offsets[item] + pos
    return hidden[index], index, tgt


def mlm_loss_value(
    store: ParameterStore,
    config: ModelConfig,
    batch: list[TokenSequence],
    targets: list[list[tuple[int, int]]],
) -> float:
    """Forward-only MLM loss (no gradients touched); used for validation."""
    hidden, (pk, _) = _forward_core(store, config, batch)
    rows, _, tgt = _gather_mlm(hidden, pk, targets)
    logits, _ = _mlm_head_forward(store, rows)
    loss, _ = _mlm_objective(logits, tgt)
    return loss


def loss_and_grad(
    store: ParameterStore,
    config: ModelConfig,
    batch: list[TokenSequence],
    objective: str,
    labels: np.ndarray | None = None,
    mlm_targets: list[list[tuple[int, int]]] | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compute the objective and fill every gradient slot; attention dropout
    applies iff ``rng`` is given.

    objective "multilabel" needs ``labels`` [batch, n_labels]; "mlm" needs
    ``mlm_targets``: per item, (position, original token id) pairs for the
    already-masked batch.  A non-finite loss raises NumericError here;
    the gradients are checked by ``training.adam_step``, which reads them.
    """
    if objective not in ("multilabel", "mlm"):
        raise ModelError(f"unknown objective {objective!r}")
    store.zero_grads()
    layers: list = []
    hidden, cache = _forward_core(store, config, batch, rng, layers.append)
    pk = cache[0]
    d_hidden = np.zeros_like(hidden)

    if objective == "multilabel":
        if labels is None:
            raise ModelError("multilabel objective requires labels")
        y = np.asarray(labels, dtype=hidden.dtype)
        if y.shape != (len(batch), config.n_labels):
            raise ModelError(
                f"labels shape {y.shape} != {(len(batch), config.n_labels)}"
            )
        bos, logits = _classification_logits(store, hidden, pk.offsets)
        loss = multilabel_loss_value(logits, y)
        dlogits = (expit(logits) - y) / y.size
        store.grads["cls.w"] += bos.T @ dlogits
        store.grads["cls.b"] += dlogits.sum(axis=0)
        d_hidden[pk.offsets] = dlogits @ store.params["cls.w"].T
    else:
        if mlm_targets is None:
            raise ModelError("mlm objective requires mlm_targets")
        rows, index, tgt = _gather_mlm(hidden, pk, mlm_targets)
        logits, head_cache = _mlm_head_forward(store, rows)
        loss, dlogits = _mlm_objective(logits, tgt)
        # np.add.at, not +=: a position listed twice gets both rows, in target order
        np.add.at(d_hidden, index, _mlm_head_backward(store, dlogits, head_cache))

    if not np.isfinite(loss):
        raise NumericError("loss")
    _backward_core(store, config, cache, layers, d_hidden)
    return loss


def predict_logits(
    store: ParameterStore,
    config: ModelConfig,
    seqs: list[TokenSequence],
    batch_size: int = 32,
) -> np.ndarray:
    """Classification logits for a list of sequences, batched, without
    dropout: row ``i`` has the bits of ``forward``'s logits for ``seqs[i]``."""
    out = np.zeros((len(seqs), config.n_labels), dtype=config.np_dtype())
    for start in range(0, len(seqs), batch_size):
        chunk = seqs[start:start + batch_size]
        hidden, (pk, _) = _forward_core(store, config, chunk)
        out[start:start + len(chunk)] = _classification_logits(store, hidden, pk.offsets)[1]
    return out


def predict_probabilities(
    store: ParameterStore,
    config: ModelConfig,
    seqs: list[TokenSequence],
    batch_size: int = 32,
) -> np.ndarray:
    """Label probabilities for a list of sequences, batched, without dropout."""
    return expit(predict_logits(store, config, seqs, batch_size))


# ---------------------------------------------------------------------------
# persistence


def save_model(store: ParameterStore, config: ModelConfig, path) -> None:
    """Binary format: magic, version, config JSON, then each array in
    declaration order as little-endian float64 with a name+shape header.
    Arrays go to the file straight from their buffers.  Written atomically
    (temp file + rename)."""
    cfg = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(cfg)) + cfg)
        fh.write(struct.pack("<I", len(store.params)))
        for name, arr in store.params.items():
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)) + name_b)
            fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(memoryview(np.ascontiguousarray(arr, "<f8")).cast("B"))


def load_model(path) -> tuple[ParameterStore, ModelConfig, bytes]:
    """Inverse of save_model; also returns any bytes after the last array
    (``b""`` for a file save_model wrote, the optimizer state for a
    checkpoint written by an older version).  Each array is read from the
    file into its view of the parameter arena, so loading holds one array's
    bytes beyond the arena.  A file cut short or otherwise unreadable raises
    ModelError."""
    with open(path, "rb") as fh:
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise ModelError(f"{path}: not a model file")
        try:
            return _read_model(path, fh)
        except (struct.error, ValueError, TypeError) as exc:
            # struct.error / ValueError (incl. JSON and UTF-8 decoding, and
            # np.frombuffer of a short read): bytes missing; TypeError:
            # config keys that ModelConfig does not take
            raise ModelError(f"{path}: truncated or corrupt model file") from exc


def _unpack(fh, fmt: str) -> tuple:
    """The next fields of ``fh``; struct.error if the file ends first."""
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def _read_model(path, fh) -> tuple[ParameterStore, ModelConfig, bytes]:
    (version,) = _unpack(fh, "<I")
    if version != MODEL_VERSION:
        raise ModelError(f"{path}: unsupported model format version {version}")
    (cfg_len,) = _unpack(fh, "<I")
    stored = dict(json.loads(fh.read(cfg_len).decode("utf-8")))
    for key, kept in _RETIRED_CONFIG.items():
        value = stored.pop(key, kept)
        if value != kept:
            raise ModelError(f"{path}: {key} = {value!r} is no longer supported")
    config = ModelConfig(**stored)
    (n_arrays,) = _unpack(fh, "<I")
    expected = parameter_shapes(config)
    mismatch = f"{path}: parameter names or shapes do not match the stored config"
    if n_arrays != len(expected):
        raise ModelError(mismatch)
    store = ParameterStore(expected, config.np_dtype())
    for want_name, view in store.params.items():
        (name_len,) = _unpack(fh, "<H")
        name = fh.read(name_len).decode("utf-8")
        (ndim,) = _unpack(fh, "<B")
        shape = _unpack(fh, f"<{ndim}I")
        if name != want_name or shape != view.shape:
            raise ModelError(mismatch)
        view[...] = np.frombuffer(fh.read(8 * view.size), dtype="<f8").reshape(view.shape)
    return store, config, fh.read()
