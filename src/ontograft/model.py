"""Encoder-only transformer over token sequences, written directly in numpy.

Forward pass with optional attention capture, plus an analytic backward pass
writing the optimizer's per-parameter gradient slots.  Pre-norm residual
blocks with the exact (erf) GELU, learned absolute position embeddings, BOS
pooling for a sigmoid multi-label head, and an MLM head tied to the token
embedding matrix and trained with softmax cross-entropy.

Every pass goes through ``_forward_core``.  Attention dropout applies iff an
rng is passed (``loss_and_grad(..., rng=...)``).  Only ``loss_and_grad`` keeps
every layer's intermediates; ``forward(capture_attention=True)`` copies each
layer's attention probabilities into one [layers, heads, L, L] array per
item, at the item's own length L, and inference and validation hold one
layer's activations at a time.

The last layer's attention runs on every token; its tail (output
projection, second layer norm, FFN) and the final layer norm run only on
the rows the pass reads: BOS rows in ``predict_logits``, masked rows in
``mlm_loss_value``, every row in ``forward`` and ``loss_and_grad``.  One
kept row out of two or more tokens runs twice (see ``_forward_core``).

Position-wise work (embeddings, layer norms, the Q/K/V and output
projections, the FFN, both heads, and all of their gradients) runs on the
batch's real tokens, packed into one [n_tokens, d] matrix.  Attention runs
on views of the packed Q/K/V rows, one [items, heads, L, L] block per run of
equal-length items, so no key is padding and none is masked.  An item's
outputs therefore do not depend on the other items of its batch, as long as
a row of a matrix product does not depend on the product's other rows (which
holds for products of two rows or more).  Inference batches come from
``inference_chunks``: shortest first, up to ``batch_size * max_len`` tokens.

The backward pass finishes the parameters group by group
(``ParameterStore.groups``): the final layer norm and both heads, each layer
from the top down, the embeddings.  ``loss_and_grad`` writes a group's
gradients into the optimizer's slots and has the optimizer update the group
as soon as its weights have served the input gradient; the slots then serve
the next group.  Gradients are written, not added to zeroed slots, so a slot
may hold ``-0.0`` where ``0.0 + x`` gave ``0.0``; Adam's first ``+=`` into
its moments gives both the same bits, so the parameters are those of a whole
backward pass and then one AdamW step.

All math runs in 64-bit floats by default so gradients can be checked against
central finite differences; with ``dtype = "float32"`` every array computed
here is float32 (``erf`` and ``expit`` work in float64 inside and return
float32).  Constants are Python floats, never NumPy scalars: under
NumPy 2 scalar promotion (NEP 50) an ``np.float64`` scalar would upcast a
float32 array to float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from itertools import chain, count, groupby
from typing import Callable, NamedTuple

import numpy as np

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


def _group_key(name: str) -> tuple[int, int]:
    """Orders the groups as the backward pass finishes them: the final layer
    norm and the heads (and any other name), layers top-down, embeddings."""
    if name.startswith("layers."):
        return (1, -int(name.split(".")[1]))
    return (2 if name in ("tok_emb", "pos_emb") else 0, 0)


class ParameterGroup(NamedTuple):
    span: slice  # of the arena
    n_decayed: int  # the span's leading values that take weight decay
    names: tuple[str, ...]  # in arena order


class ParameterStore:
    """Named parameters in one contiguous array, the parameter arena.

    ``params[name]`` is a view into ``param_arena``; the dict keeps the
    declaration order of ``shapes``, the order ``save_model`` writes.  The
    arena holds one contiguous span per group (``groups``, in the order the
    backward pass finishes them), each with its decayed tensors
    (``_decay_applies``) first, so one group's AdamW update is one pass over
    a span and weight decay touches its prefix alone.  The heads' group
    comes last in the arena: its vocabulary and label biases would otherwise
    move every later weight matrix off the alignment the arena gives it.
    ``views`` lays out any other arena of the same size, such as the Adam
    moments, and ``group_views`` the optimizer's one-group gradient buffer.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype=np.float64):
        spans, self.groups, start = {}, [], 0
        heads = _group_key("cls.w")
        order = sorted(shapes, key=lambda name: (
            _group_key(name) == heads, _group_key(name), not _decay_applies(name)))
        for _, grouped in groupby(order, _group_key):
            names, first = tuple(grouped), start
            for name in names:
                stop = start + int(np.prod(shapes[name]))
                spans[name] = slice(start, stop)
                start = stop
            n_decayed = sum(spans[n].stop - spans[n].start for n in names if _decay_applies(n))
            self.groups.append(ParameterGroup(slice(first, start), n_decayed, names))
        self.groups.sort(key=lambda group: _group_key(group.names[0]))
        self._layout = {name: (spans[name], tuple(shape)) for name, shape in shapes.items()}
        self.param_arena = np.zeros(start, dtype=dtype)
        self.params = self.views(self.param_arena)

    def views(self, arena: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views, in declaration order, into an arena laid out
        like this store's."""
        return {name: arena[span].reshape(shape) for name, (span, shape) in self._layout.items()}

    def group_views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views into ``buffer``, each at its offset inside its
        group's span: the slots of any one group at a time."""
        at = {name: group.span.start for group in self.groups for name in group.names}
        return {name: buffer[span.start - at[name]:span.stop - at[name]].reshape(shape)
                for name, (span, shape) in self._layout.items()}

    def n_parameters(self) -> int:
        return self.param_arena.size


def init_model(config: ModelConfig) -> ParameterStore:
    """Weights from N(0, 0.02^2), layer-norm scale 1 / offset 0, biases 0,
    PAD embedding row zeroed.  Deterministic given config.seed.

    Each weight is drawn in float64 straight into its arena view and scaled
    in place, the bits of ``rng.normal(0.0, 0.02, shape)`` without its
    temporary; a float32 arena takes the draw through one float64 scratch
    buffer, rounded as assignment rounds it."""
    rng = np.random.default_rng(config.seed)
    shapes = parameter_shapes(config)
    store = ParameterStore(shapes, config.np_dtype())
    scratch = None
    if store.param_arena.dtype != np.float64:
        scratch = np.empty(max(int(np.prod(s)) for s in shapes.values()), np.float64)
    for name, shape in shapes.items():
        view = store.params[name]
        if _decay_applies(name):
            out = view if scratch is None else scratch[:view.size].reshape(shape)
            rng.standard_normal(out=out)
            out *= 0.02
            if scratch is not None:
                view[...] = out
        elif name.endswith(".g"):
            view[...] = 1.0
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


# erf as in Cephes ndtr.c: x T(x^2)/U(x^2) for |x| <= 1, else
# 1 - exp(-x^2) P(|x|)/Q(|x|), sign restored.  Coefficients highest degree
# first; U and Q are monic and their leading 1 is left out.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_BLOCK = 1 << 15


def _polevl(x: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """Horner's rule in Cephes' order of operations (polevl / p1evl)."""
    y = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        y *= x
        y += c
    return y


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise, in blocks of ``_ERF_BLOCK`` so the
    temporaries stay in cache.  Evaluated in float64 and stored in ``x``'s
    dtype.  For |x| <= 1 the bits are those of the C code; above, numpy's
    exp may move the last bit."""
    out = np.empty(x.shape, x.dtype)  # C order, so that the flat view writes into it
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _ERF_BLOCK):
        xb = flat[start:start + _ERF_BLOCK].astype(np.float64, copy=False)
        ob = flat_out[start:start + _ERF_BLOCK]
        # the |x| <= 1 rational on the whole block: most of GELU's inputs
        # need it, and gathering them costs more than the arithmetic spent
        # on the rest, which is overwritten below
        with np.errstate(over="ignore", invalid="ignore"):
            z = xb * xb
            s = xb * _polevl(z, _ERF_T)
            s /= _polevl(z, _ERF_U, monic=True)
        ob[...] = s
        # |x| > 1, and NaN; past 8, 1 - erfc(x) rounds to 1 already
        i = np.flatnonzero(~(z <= 1.0))
        xi = xb.take(i)
        a = np.minimum(np.abs(xi), 8.0)
        e = np.exp(-a * a)
        e *= _polevl(a, _ERF_P)
        e /= _polevl(a, _ERF_Q, monic=True)
        np.subtract(1.0, e, out=e)
        ob[i] = np.copysign(e, xi, out=e)
    return out


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), evaluated in float64 and
    stored in ``x``'s dtype; exp(-x) overflowing to inf gives 0."""
    with np.errstate(over="ignore", under="ignore"):
        return (1.0 / (1.0 + np.exp(-x, dtype=np.float64))).astype(x.dtype, copy=False)


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
    rows from ``offsets[b]``, the slice ``rows[b]``; ``runs`` holds (items,
    rows, length) for each run of consecutive items of one length."""

    ids: np.ndarray
    positions: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    rows: list[slice]
    runs: list[tuple[slice, slice, int]]


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
    firsts = np.flatnonzero(np.diff(lengths, prepend=0)).tolist()
    runs = [(slice(b, e), slice(rows[b].start, rows[e - 1].stop), rows[b].stop - rows[b].start)
            for b, e in zip(firsts, firsts[1:] + [len(seqs)])]
    return _Packing(ids, positions, offsets, lengths, rows, runs)


def _heads(rows: np.ndarray, length: int, n_heads: int) -> np.ndarray:
    """A run's packed rows [items * L, d] as a view [items, heads, L, d / heads]."""
    return rows.reshape(-1, length, n_heads, rows.shape[1] // n_heads).swapaxes(1, 2)


def _attention(q, k, v, pk: _Packing, config: ModelConfig, rng):
    """Scaled dot-product attention of each sequence over its own keys;
    dropout iff ``rng`` is given.  Each of ``pk.runs`` is one [items, heads,
    L, L] block of views into the packed rows, for which numpy makes the
    per-(item, head) products and per-row reductions of one item at a time.
    Returns the packed context rows and, per run, (probabilities, dropout
    keep mask or None, the probabilities used for the context)."""
    dropout = config.attention_dropout if rng is not None else 0.0
    scale = float(1.0 / np.sqrt(config.head_dim))  # a Python float keeps the dtype
    if dropout > 0.0:
        # one draw of [batch, heads, T_max, T_max] values, each item keeping
        # the corner of its own length: the stream training has always drawn
        t = int(pk.lengths.max())
        draws = rng.random((len(pk.rows), config.n_heads, t, t))
    ctx = np.empty_like(q)
    runs = []
    for items, rows, n in pk.runs:
        qb, kb, vb = (_heads(a[rows], n, config.n_heads) for a in (q, k, v))
        # softmax in place: scores, exponentials and probabilities share one array
        p = qb @ kb.swapaxes(-1, -2)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        keep = draws[items, :, :n, :n] >= dropout if dropout > 0.0 else None
        p_used = p if keep is None else p * keep / (1.0 - dropout)
        _heads(ctx[rows], n, config.n_heads)[...] = p_used @ vb
        runs.append((p, keep, p_used))
    return ctx, runs


def _attention_backward(dctx, lc: dict, pk: _Packing, config: ModelConfig):
    """d(loss)/d(packed Q, K, V rows) from d(loss)/d(packed context rows),
    one run at a time as in ``_attention``."""
    scale = float(1.0 / np.sqrt(config.head_dim))
    dq, dk, dv = (np.empty_like(dctx) for _ in range(3))
    for (_, rows, n), (probs, keep, p_used) in zip(pk.runs, lc["attention"]):
        qb, kb, vb, dcb = (_heads(a[rows], n, config.n_heads)
                           for a in (lc["q"], lc["k"], lc["v"], dctx))
        dp = dcb @ vb.swapaxes(-1, -2)
        _heads(dv[rows], n, config.n_heads)[...] = p_used.swapaxes(-1, -2) @ dcb
        if keep is not None:  # dropout ran in the forward pass
            dp = dp * keep / (1.0 - config.attention_dropout)
        ds = probs * (dp - (probs * dp).sum(axis=-1, keepdims=True))
        _heads(dq[rows], n, config.n_heads)[...] = (ds @ kb) * scale
        _heads(dk[rows], n, config.n_heads)[...] = (ds.swapaxes(-1, -2) @ qb) * scale
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
    keep: Callable[[_Packing], np.ndarray] | None = None,
):
    """Pack ``batch`` and run the encoder stack; the one way into the encoder.

    Position-wise operations run on the packed real tokens [n_tokens, d];
    attention runs per sequence (``_attention``).  Attention dropout applies
    iff ``rng`` is given.  ``on_layer``, if given, is called with each
    layer's backward cache and keeps what it needs of it; otherwise only one
    layer's activations are alive at a time.  Returns the packed final
    hidden states and what the backward pass needs beyond the layer caches:
    the packing and the final layer norm's cache.

    ``keep``, if given, maps the packing to the packed rows the caller reads,
    and is called before any encoder work.  The last layer's attention still
    runs on every token, so its probabilities and context keep their bits;
    the rest of that layer and the final layer norm run on the kept rows
    alone, and the hidden states returned are those rows, in ``keep``'s
    order.  A one-row selection from a batch of two or more tokens runs on
    that row twice: a one-row product is a matrix-vector product, which
    rounds differently from the full pass (see TestGemmRows).  A batch of
    one token runs its one row, however often ``keep`` lists it.
    """
    pk = _pack(batch, config)
    p = store.params
    rows = None if keep is None else keep(pk)

    x = p["tok_emb"][pk.ids] + p["pos_emb"][pk.positions]
    for i in range(config.n_layers):
        lp = f"layers.{i}."
        h1, ln1_cache = _layer_norm(x, p[lp + "ln1.g"], p[lp + "ln1.b"])
        q, k, v = (h1 @ p[lp + f"attn.w{proj}"] + p[lp + f"attn.b{proj}"] for proj in "qkv")
        ctx, attention = _attention(q, k, v, pk, config, rng)
        if rows is not None and i == config.n_layers - 1 and len(pk.ids) > 1:
            tail = np.repeat(rows, 2) if len(rows) == 1 else rows
            x, ctx, rows = x[tail], ctx[tail], np.arange(len(rows))
        x = x + (ctx @ p[lp + "attn.wo"] + p[lp + "attn.bo"])
        h2, ln2_cache = _layer_norm(x, p[lp + "ln2.g"], p[lp + "ln2.b"])
        a1 = h2 @ p[lp + "ffn.w1"] + p[lp + "ffn.b1"]
        e1 = _gelu_term(a1)
        g1 = _gelu(a1, e1)
        x = x + (g1 @ p[lp + "ffn.w2"] + p[lp + "ffn.b2"])
        if on_layer is not None:
            on_layer(dict(h1=h1, ln1=ln1_cache, q=q, k=k, v=v, attention=attention, ctx=ctx,
                          h2=h2, ln2=ln2_cache, a1=a1, e1=e1, g1=g1))

    hidden, final_ln_cache = _layer_norm(x, p["final_ln.g"], p["final_ln.b"])
    if rows is not None:
        hidden = hidden[rows]
    return hidden, (pk, final_ln_cache)


def _classification_logits(store: ParameterStore, bos: np.ndarray):
    """The classification head on the items' BOS rows.

    The head runs as a stack of one-row products, one per item: numpy
    computes a one-row product as a matrix-vector product, which rounds
    differently from a product of several rows, so each item's logits have
    the bits the item gets alone."""
    return (bos[:, None] @ store.params["cls.w"])[:, 0] + store.params["cls.b"]


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
        items = [probs for run, _, _ in lc["attention"] for probs in run]
        if i == 0:
            attention.extend(np.empty((config.n_layers, *probs.shape), probs.dtype)
                             for probs in items)
        for out, probs in zip(attention, items):
            out[i] = probs

    hidden, (pk, _) = _forward_core(store, config, batch,
                                    on_layer=capture if capture_attention else None)
    logits = _classification_logits(store, hidden[pk.offsets])
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


def _mlm_head_backward(store: ParameterStore, g: dict, dlogits, cache):
    """Writes the head's gradients into ``g``; returns d(loss)/d(rows) and
    the factors of the tied decoder's ``tok_emb`` gradient."""
    rows, a, e, t, ln_cache = cache
    p = store.params
    g["mlm_bias"][...] = dlogits.sum(axis=0)
    dt = dlogits @ p["tok_emb"]
    dg, g["mlm_ln.g"][...], g["mlm_ln.b"][...] = _layer_norm_backward(dt, ln_cache, p["mlm_ln.g"])
    da = dg * _gelu_grad(a, e)
    np.matmul(rows.T, da, out=g["mlm.w"])
    g["mlm.b"][...] = da.sum(axis=0)
    return da @ p["mlm.w"].T, (dlogits.T, t)


# ---------------------------------------------------------------------------
# losses and backward


def _backward_core(store: ParameterStore, config: ModelConfig, cache, layers, d_hidden,
                   g: dict, decoder):
    """Propagate d(loss)/d(packed final hidden) back to the gradient slots
    ``g``, consuming ``layers`` (each layer's cache is dropped once used).
    Weight gradients sum over the real tokens only.  ``decoder``: the MLM
    decoder's factors of the ``tok_emb`` gradient, or None.  Yields once
    per group of ``store.groups`` (whose heads the caller has written), in
    order, once the group's weights have served the input gradient."""
    p = store.params
    pk, final_ln_cache = cache

    dx, g["final_ln.g"][...], g["final_ln.b"][...] = _layer_norm_backward(
        d_hidden, final_ln_cache, p["final_ln.g"])
    yield

    for i in reversed(range(config.n_layers)):
        lp = f"layers.{i}."
        lc = layers.pop()
        # FFN block
        df = dx  # gradient at x_out flows to both f_out and x_mid
        np.matmul(lc["g1"].T, df, out=g[lp + "ffn.w2"])
        g[lp + "ffn.b2"][...] = df.sum(axis=0)
        # d(loss)/d(g1), turned into d(loss)/d(a1) in place: one array fewer at the peak
        da1 = df @ p[lp + "ffn.w2"].T
        da1 *= _gelu_grad(lc["a1"], lc["e1"])
        np.matmul(lc["h2"].T, da1, out=g[lp + "ffn.w1"])
        g[lp + "ffn.b1"][...] = da1.sum(axis=0)
        dh2 = da1 @ p[lp + "ffn.w1"].T
        dx_mid, g[lp + "ln2.g"][...], g[lp + "ln2.b"][...] = _layer_norm_backward(
            dh2, lc["ln2"], p[lp + "ln2.g"])
        dx_mid += dx  # residual

        # attention block
        da_out = dx_mid
        np.matmul(lc["ctx"].T, da_out, out=g[lp + "attn.wo"])
        g[lp + "attn.bo"][...] = da_out.sum(axis=0)
        dq, dk, dv = _attention_backward(da_out @ p[lp + "attn.wo"].T, lc, pk, config)
        for proj, darr in (("q", dq), ("k", dk), ("v", dv)):
            np.matmul(lc["h1"].T, darr, out=g[lp + f"attn.w{proj}"])
            g[lp + f"attn.b{proj}"][...] = darr.sum(axis=0)
        dh1 = (
            dq @ p[lp + "attn.wq"].T
            + dk @ p[lp + "attn.wk"].T
            + dv @ p[lp + "attn.wv"].T
        )
        dx_in, g[lp + "ln1.g"][...], g[lp + "ln1.b"][...] = _layer_norm_backward(
            dh1, lc["ln1"], p[lp + "ln1.g"])
        dx = dx_mid + dx_in
        yield

    if decoder is None:
        g["tok_emb"].fill(0.0)
    else:
        np.matmul(*decoder, out=g["tok_emb"])
    g["pos_emb"].fill(0.0)
    np.add.at(g["tok_emb"], pk.ids, dx)
    np.add.at(g["pos_emb"], pk.positions, dx)
    yield


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


def _gather_mlm(pk: _Packing, targets: list[list[tuple[int, int]]]):
    """The packed rows of the masked positions, in target order, and the
    original token ids."""
    pairs = [(b, pos, original) for b, entries in enumerate(targets) for pos, original in entries]
    if not pairs:
        raise ModelError("MLM batch contains no masked positions")
    item, pos, tgt = np.array(pairs, dtype=np.int64).T
    # a position past its own item would read the next item's row
    if len(targets) > len(pk.offsets) or np.any((pos < 0) | (pos >= pk.lengths[item])):
        raise ModelError("MLM target position outside its sequence")
    return pk.offsets[item] + pos, tgt


def mlm_loss_value(
    store: ParameterStore,
    config: ModelConfig,
    batch: list[TokenSequence],
    targets: list[list[tuple[int, int]]],
) -> float:
    """Forward-only MLM loss (no gradients touched); used for validation.
    The last layer's tail runs on the masked rows alone."""
    rows, (pk, _) = _forward_core(store, config, batch,
                                  keep=lambda pk: _gather_mlm(pk, targets)[0])
    logits, _ = _mlm_head_forward(store, rows)
    loss, _ = _mlm_objective(logits, _gather_mlm(pk, targets)[1])
    return loss


def loss_and_grad(
    store: ParameterStore,
    config: ModelConfig,
    batch: list[TokenSequence],
    objective: str,
    labels: np.ndarray | None = None,
    mlm_targets: list[list[tuple[int, int]]] | None = None,
    rng: np.random.Generator | None = None,
    *,
    optimizer,
) -> float:
    """Compute the objective, its gradient for every parameter and the
    optimizer's update; attention dropout applies iff ``rng`` is given.

    objective "multilabel" needs ``labels`` [batch, n_labels]; "mlm" needs
    ``mlm_targets``: per item, (position, original token id) pairs for the
    already-masked batch.  The head the objective does not use gets a zero
    gradient.  A non-finite loss raises NumericError before any update.

    The gradients fill the slots ``optimizer.grads`` (those of a
    ``training.OptimizerState`` hold one group at a time), and
    ``optimizer.update(store, k)`` runs as the backward pass finishes
    ``store.groups[k]``: one AdamW step, with the bits of updating after
    the whole backward pass (see the module docstring).
    """
    if objective not in ("multilabel", "mlm"):
        raise ModelError(f"unknown objective {objective!r}")
    g = optimizer.grads
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
        bos = hidden[pk.offsets]
        logits = _classification_logits(store, bos)
        loss = multilabel_loss_value(logits, y)
        dlogits = (expit(logits) - y) / y.size
        np.matmul(bos.T, dlogits, out=g["cls.w"])
        g["cls.b"][...] = dlogits.sum(axis=0)
        d_hidden[pk.offsets] = dlogits @ store.params["cls.w"].T
        untrained, decoder = ("mlm.w", "mlm.b", "mlm_ln.g", "mlm_ln.b", "mlm_bias"), None
    else:
        if mlm_targets is None:
            raise ModelError("mlm objective requires mlm_targets")
        index, tgt = _gather_mlm(pk, mlm_targets)
        logits, head_cache = _mlm_head_forward(store, hidden[index])
        loss, dlogits = _mlm_objective(logits, tgt)
        d_rows, decoder = _mlm_head_backward(store, g, dlogits, head_cache)
        # np.add.at, not +=: a position listed twice gets both rows, in target order
        np.add.at(d_hidden, index, d_rows)
        untrained = ("cls.w", "cls.b")
    for name in untrained:
        g[name].fill(0.0)

    if not np.isfinite(loss):
        raise NumericError("loss")
    for group, _ in enumerate(_backward_core(store, config, cache, layers, d_hidden, g, decoder)):
        optimizer.update(store, group)
    return loss


def inference_chunks(seqs: list[TokenSequence], config: ModelConfig, batch_size: int):
    """The indices of ``seqs`` in chunks, shortest first, each filled up to
    ``batch_size * config.max_len`` tokens (what ``batch_size`` full-length
    sequences hold) or holding one sequence."""
    chunk, tokens = [], 0
    for i in sorted(range(len(seqs)), key=lambda i: len(seqs[i])):
        if chunk and tokens + len(seqs[i]) > batch_size * config.max_len:
            yield chunk
            chunk, tokens = [], 0
        chunk.append(i)
        tokens += len(seqs[i])
    if chunk:
        yield chunk


def predict_logits(
    store: ParameterStore,
    config: ModelConfig,
    seqs: list[TokenSequence],
    batch_size: int = 32,
) -> np.ndarray:
    """Classification logits for a list of sequences, in ``inference_chunks``,
    without dropout: row ``i`` has the bits of ``forward``'s logits for
    ``seqs[i]``.  The last layer's tail runs on the BOS rows alone."""
    out = np.zeros((len(seqs), config.n_labels), dtype=config.np_dtype())
    for chunk in inference_chunks(seqs, config, batch_size):
        bos, _ = _forward_core(store, config, [seqs[i] for i in chunk],
                               keep=lambda pk: pk.offsets)
        out[chunk] = _classification_logits(store, bos)
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
    checkpoint written by an older version).  Every CLI stage refuses a
    file with such bytes (``cli._load_model``).  Each array is read from the
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
