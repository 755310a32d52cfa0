"""The encoder as it ran before token packing: every operation on the padded
block [batch, T_max, d], attention on [batch, heads, T_max, T_max] with
padded keys masked.  Tests compare the packed encoder in ``ontograft.model``
against it to a relative 1e-12: a softmax there sums over the sequence's own
keys, not T_max of them, and the weight-gradient products sum over fewer
rows, so the additions may group differently.

Padded rows carry the PAD embedding plus a position embedding through every
layer; their keys are masked out of attention and their gradients are
exactly zero, so they change no real token's value.
"""

import numpy as np
from scipy.special import expit

from ontograft.model import (
    _gelu,
    _gelu_grad,
    _gelu_term,
    _layer_norm,
    _layer_norm_backward,
    _mlm_head_backward,
    _mlm_head_forward,
    _mlm_objective,
    multilabel_loss_value,
)
from ontograft.tokenizer import PAD_ID


def pad_batch(seqs):
    """Stack sequences into an id matrix padded with PAD; mask marks real
    positions."""
    max_t = max(len(s) for s in seqs)
    ids = np.full((len(seqs), max_t), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), max_t), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s.ids
        mask[i, : len(s)] = True
    return ids, mask


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def forward_core(store, config, batch, rng=None, on_layer=None):
    """(hidden [batch, T_max, d], (ids, final layer-norm cache))."""
    ids, mask = pad_batch(batch)
    p = store.params
    T = ids.shape[1]
    dropout = config.attention_dropout if rng is not None else 0.0

    x = p["tok_emb"][ids] + p["pos_emb"][:T]
    padded_keys = ~mask[:, None, None, :]
    scale = float(1.0 / np.sqrt(config.head_dim))

    for i in range(config.n_layers):
        lp = f"layers.{i}."
        h1, ln1_cache = _layer_norm(x, p[lp + "ln1.g"], p[lp + "ln1.b"])
        q = _split_heads(h1 @ p[lp + "attn.wq"] + p[lp + "attn.bq"], config.n_heads)
        k = _split_heads(h1 @ p[lp + "attn.wk"] + p[lp + "attn.bk"], config.n_heads)
        v = _split_heads(h1 @ p[lp + "attn.wv"] + p[lp + "attn.bv"], config.n_heads)
        probs = q @ k.swapaxes(-1, -2)
        probs *= scale
        np.copyto(probs, -np.inf, where=padded_keys)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        if dropout > 0.0:
            keep = rng.random(probs.shape) >= dropout
            probs_used = probs * keep / (1.0 - dropout)
        else:
            keep = None
            probs_used = probs
        ctx = _merge_heads(probs_used @ v)
        x = x + (ctx @ p[lp + "attn.wo"] + p[lp + "attn.bo"])
        h2, ln2_cache = _layer_norm(x, p[lp + "ln2.g"], p[lp + "ln2.b"])
        a1 = h2 @ p[lp + "ffn.w1"] + p[lp + "ffn.b1"]
        e1 = _gelu_term(a1)
        x = x + (_gelu(a1, e1) @ p[lp + "ffn.w2"] + p[lp + "ffn.b2"])
        if on_layer is not None:
            on_layer(dict(
                h1=h1, ln1=ln1_cache, q=q, k=k, v=v, probs=probs, keep=keep,
                probs_used=probs_used, ctx=ctx, h2=h2, ln2=ln2_cache, a1=a1, e1=e1,
            ))

    hidden, final_ln_cache = _layer_norm(x, p["final_ln.g"], p["final_ln.b"])
    return hidden, (ids, final_ln_cache)


def classification_logits(store, hidden):
    pooled = hidden[:, 0, :]
    return pooled, pooled @ store.params["cls.w"] + store.params["cls.b"]


def backward_core(store, config, cache, layers, d_hidden, g):
    p = store.params
    ids, final_ln_cache = cache
    d = config.hidden_dim
    scale = float(1.0 / np.sqrt(config.head_dim))

    dx, dg_f, db_f = _layer_norm_backward(d_hidden, final_ln_cache, p["final_ln.g"])
    g["final_ln.g"] += dg_f
    g["final_ln.b"] += db_f

    for i in reversed(range(config.n_layers)):
        lp = f"layers.{i}."
        lc = layers.pop()
        df = dx
        a1, e1 = lc["a1"], lc["e1"]
        g[lp + "ffn.w2"] += _gelu(a1, e1).reshape(-1, config.ffn_dim).T @ df.reshape(-1, d)
        g[lp + "ffn.b2"] += df.sum(axis=(0, 1))
        da1 = df @ p[lp + "ffn.w2"].T
        da1 *= _gelu_grad(a1, e1)
        g[lp + "ffn.w1"] += lc["h2"].reshape(-1, d).T @ da1.reshape(-1, config.ffn_dim)
        g[lp + "ffn.b1"] += da1.sum(axis=(0, 1))
        dh2 = da1 @ p[lp + "ffn.w1"].T
        dx_mid, dg2, db2 = _layer_norm_backward(dh2, lc["ln2"], p[lp + "ln2.g"])
        g[lp + "ln2.g"] += dg2
        g[lp + "ln2.b"] += db2
        dx_mid = dx_mid + dx

        da_out = dx_mid
        g[lp + "attn.wo"] += lc["ctx"].reshape(-1, d).T @ da_out.reshape(-1, d)
        g[lp + "attn.bo"] += da_out.sum(axis=(0, 1))
        dctx = _split_heads(da_out @ p[lp + "attn.wo"].T, config.n_heads)
        dp_used = dctx @ lc["v"].swapaxes(-1, -2)
        dv = lc["probs_used"].swapaxes(-1, -2) @ dctx
        if lc["keep"] is not None:
            dp = dp_used * lc["keep"] / (1.0 - config.attention_dropout)
        else:
            dp = dp_used
        probs = lc["probs"]
        ds = probs * (dp - (probs * dp).sum(axis=-1, keepdims=True))
        dq = (ds @ lc["k"]) * scale
        dk = (ds.swapaxes(-1, -2) @ lc["q"]) * scale
        dq, dk, dv = (_merge_heads(a) for a in (dq, dk, dv))
        h1_flat = lc["h1"].reshape(-1, d)
        for proj, darr in (("q", dq), ("k", dk), ("v", dv)):
            g[lp + f"attn.w{proj}"] += h1_flat.T @ darr.reshape(-1, d)
            g[lp + f"attn.b{proj}"] += darr.sum(axis=(0, 1))
        dh1 = (
            dq @ p[lp + "attn.wq"].T
            + dk @ p[lp + "attn.wk"].T
            + dv @ p[lp + "attn.wv"].T
        )
        dx_in, dg1_, db1_ = _layer_norm_backward(dh1, lc["ln1"], p[lp + "ln1.g"])
        g[lp + "ln1.g"] += dg1_
        g[lp + "ln1.b"] += db1_
        dx = dx_mid + dx_in

    np.add.at(g["tok_emb"], ids.reshape(-1), dx.reshape(-1, d))
    g["pos_emb"][: ids.shape[1]] += dx.sum(axis=0)


def gather_mlm(hidden, targets):
    b_idx, t_idx, tgt = [], [], []
    for b, entries in enumerate(targets):
        for pos, original in entries:
            b_idx.append(b)
            t_idx.append(pos)
            tgt.append(original)
    index = (np.asarray(b_idx), np.asarray(t_idx))
    return hidden[index], index, np.asarray(tgt, dtype=np.int64)


def loss_and_grad(store, config, batch, objective, labels=None, mlm_targets=None, rng=None):
    """(loss, gradients): the gradients ``model.loss_and_grad`` writes, as
    per-parameter views of one arena laid out like the store's."""
    g = store.views(np.zeros_like(store.param_arena))
    layers = []
    hidden, cache = forward_core(store, config, batch, rng, layers.append)
    d_hidden = np.zeros_like(hidden)
    if objective == "multilabel":
        y = np.asarray(labels, dtype=hidden.dtype)
        pooled, logits = classification_logits(store, hidden)
        loss = multilabel_loss_value(logits, y)
        dlogits = (expit(logits) - y) / y.size
        g["cls.w"] += pooled.T @ dlogits
        g["cls.b"] += dlogits.sum(axis=0)
        d_hidden[:, 0, :] = dlogits @ store.params["cls.w"].T
    else:
        rows, index, tgt = gather_mlm(hidden, mlm_targets)
        logits, head_cache = _mlm_head_forward(store, rows)
        loss, dlogits = _mlm_objective(logits, tgt)
        d_rows, (dlogits_t, t) = _mlm_head_backward(store, g, dlogits, head_cache)
        g["tok_emb"] += dlogits_t @ t
        np.add.at(d_hidden, index, d_rows)
    backward_core(store, config, cache, layers, d_hidden, g)
    return loss, g
