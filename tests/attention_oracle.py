"""Attention as it ran before runs of equal-length items were grouped: one
[heads, L, L] block per item, in a Python loop over the items.  Tests
compare ``ontograft.model._attention`` and ``_attention_backward`` against
it bit for bit: grouping a run into one [items, heads, L, L] block leaves
numpy's per-(item, head) products and per-row reductions as they were.

The functions take the packing's per-item ``rows`` and return (and read)
one (probabilities, dropout keep mask or None, probabilities used) tuple
per item.
"""

import numpy as np


def _heads(rows, n_heads):
    """One sequence's packed rows [L, d] as a view [heads, L, d / heads]."""
    return rows.reshape(len(rows), n_heads, -1).swapaxes(0, 1)


def attention(q, k, v, pk, config, rng):
    dropout = config.attention_dropout if rng is not None else 0.0
    scale = float(1.0 / np.sqrt(config.head_dim))
    if dropout > 0.0:
        t = int(pk.lengths.max())
        draws = rng.random((len(pk.rows), config.n_heads, t, t))
    ctx = np.empty_like(q)
    items = []
    for b, rows in enumerate(pk.rows):
        qb, kb, vb = (_heads(a[rows], config.n_heads) for a in (q, k, v))
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


def attention_backward(dctx, lc, pk, config):
    scale = float(1.0 / np.sqrt(config.head_dim))
    dq, dk, dv = (np.empty_like(dctx) for _ in range(3))
    for rows, (probs, keep, p_used) in zip(pk.rows, lc["attention"]):
        qb, kb, vb, dcb = (_heads(a[rows], config.n_heads)
                           for a in (lc["q"], lc["k"], lc["v"], dctx))
        dp = dcb @ vb.swapaxes(-1, -2)
        _heads(dv[rows], config.n_heads)[...] = p_used.swapaxes(-1, -2) @ dcb
        if keep is not None:
            dp = dp * keep / (1.0 - config.attention_dropout)
        ds = probs * (dp - (probs * dp).sum(axis=-1, keepdims=True))
        _heads(dq[rows], config.n_heads)[...] = (ds @ kb) * scale
        _heads(dk[rows], config.n_heads)[...] = (ds.swapaxes(-1, -2) @ qb) * scale
    return dq, dk, dv
