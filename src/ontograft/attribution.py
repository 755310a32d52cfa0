"""Token-level importance and per-head attention shares from captured
attention weights, plus a self-contained HTML explanation report.

Key-side special tokens (PAD/BOS/EOS/UNK/MASK) are dropped before
normalization: they carry no chemistry.  Query positions keep BOS/EOS.
"""

from __future__ import annotations

import csv
import html
import io
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write_text
from .model import AttentionSummary
from .tokenizer import N_SPECIALS, TokenSequence, Tokenizer


class AttributionError(Exception):
    pass


@dataclass
class TokenAttribution:
    tokens: list[str]  # real (non-special) tokens, in sequence order
    scores: np.ndarray  # same length, non-negative, sums to 1


@dataclass
class HeadTokenShare:
    tokens: list[str]
    row_labels: list[str]  # "L{layer}H{head}", all layers
    matrix: np.ndarray  # [n_layers * n_heads, n_tokens], rows sum to 100


def content_positions(seq: TokenSequence) -> list[int]:
    """Positions of the real (non-special) tokens."""
    return [p for p in range(len(seq)) if seq.ids[p] >= N_SPECIALS]


def check_layer(layer: int, n_layers: int) -> None:
    """A layer index, negative from the end, must name one of ``n_layers``."""
    if not -n_layers <= layer < n_layers:
        raise AttributionError(f"layer {layer} out of range for {n_layers} layers")


def token_importance(
    att: AttentionSummary | None,
    seq: TokenSequence,
    tokenizer: Tokenizer,
    layer: int = -1,
) -> TokenAttribution:
    """Mean attention received by each real token, averaged over all heads
    and all real query positions of one layer (default: last)."""
    if att is None:
        raise AttributionError("attention was not captured for this forward pass")
    check_layer(layer, att.weights.shape[0])
    content = content_positions(seq)
    if not content:
        raise AttributionError("sequence has no real tokens")
    # [head, query, key] restricted to real queries and content keys
    w = att.weights[layer][:, : att.seq_len, :]
    raw = w[:, :, content].mean(axis=(0, 1))
    total = raw.sum()
    if total <= 0:
        raise AttributionError("attention mass on real tokens is zero")
    scores = raw / total
    tokens = [tokenizer.vocab.token_of(seq.ids[p]) for p in content]
    return TokenAttribution(tokens=tokens, scores=scores)


def head_token_share(
    att: AttentionSummary | None, seq: TokenSequence, tokenizer: Tokenizer
) -> HeadTokenShare:
    """Percentage of each head's attention mass landing on each real token.

    share(head, t) = 100 * sum_q w[head][q][t] / sum_q sum_t' w[head][q][t'],
    with queries over real positions and t' over real tokens, so every row
    sums to 100; a head with no mass on real tokens gets a row of zeros.
    """
    if att is None:
        raise AttributionError("attention was not captured for this forward pass")
    content = content_positions(seq)
    if not content:
        raise AttributionError("sequence has no real tokens")
    n_layers, n_heads = att.weights.shape[:2]
    # [layer, head, token, query], contiguous: the memory order of one head's
    # [query, token] block as fancy indexing lays it out (column-major), so
    # each sum adds the same elements in the same order as that block's sums
    w = np.take(att.weights[:, :, : att.seq_len].swapaxes(2, 3), content, axis=2)
    mass = w.sum(axis=3)
    mass *= 100.0
    total = w.sum(axis=(2, 3))[..., None]
    shares = np.divide(mass, total, out=np.zeros_like(mass), where=total > 0)
    labels = [f"L{layer + 1}H{head + 1}" for layer in range(n_layers) for head in range(n_heads)]
    tokens = [tokenizer.vocab.token_of(seq.ids[p]) for p in content]
    return HeadTokenShare(tokens=tokens, row_labels=labels,
                          matrix=shares.reshape(n_layers * n_heads, len(content)))


_QUINTILE_COLORS = ("#f7fbf2", "#d8eecb", "#a9dba1", "#66bd6f", "#1d8a41")


def _quintile(score: float, scores: np.ndarray) -> int:
    """Which fifth of [0, max] the score falls into."""
    top = float(scores.max())
    if top <= 0:
        return 0
    return min(4, int(5 * score / top)) if score < top else 4


def render_report(
    smiles: str,
    attribution: TokenAttribution,
    shares: HeadTokenShare,
    predictions: list[tuple[str, float]],
    threshold: float = 0.5,
) -> str:
    """Self-contained HTML: the tokenized string shaded by importance
    quintile, the head x token share grid, and the predicted classes.
    Deterministic: identical inputs yield identical bytes."""
    spans = []
    for token, score in zip(attribution.tokens, attribution.scores):
        color = _QUINTILE_COLORS[_quintile(float(score), attribution.scores)]
        spans.append(
            f'<span class="tok" style="background:{color}" '
            f'title="{score:.4f}">{html.escape(token)}</span>'
        )
    if predictions:
        pred_rows = "\n".join(
            f"<tr><td>{html.escape(cid)}</td><td>{prob:.4f}</td></tr>"
            for cid, prob in predictions
        )
        pred_block = (
            "<table><tr><th>class</th><th>probability</th></tr>\n"
            f"{pred_rows}\n</table>"
        )
    else:
        pred_block = (
            f'<p class="banner">no class above threshold {threshold:g}</p>'
        )
    header = "<tr><th></th>" + "".join(
        f"<th>{html.escape(t)}</th>" for t in shares.tokens
    ) + "</tr>"
    body_rows = []
    for label, row in zip(shares.row_labels, shares.matrix):
        cells = []
        for value in row:
            # shade grid cells from white (0%) to green (100%)
            alpha = min(1.0, float(value) / 100.0)
            cells.append(
                f'<td style="background:rgba(29,138,65,{alpha:.3f})">{value:.1f}</td>'
            )
        body_rows.append(f"<tr><th>{label}</th>" + "".join(cells) + "</tr>")
    share_table = "<table class=\"grid\">" + header + "".join(body_rows) + "</table>"

    return f"""<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>explanation: {html.escape(smiles)}</title>
<style>
body {{ font-family: monospace; margin: 2em; }}
.tok {{ padding: 2px 1px; }}
.banner {{ color: #a33; font-weight: bold; }}
table {{ border-collapse: collapse; margin-top: 1em; }}
td, th {{ border: 1px solid #ccc; padding: 2px 6px; text-align: right; }}
</style>
</head>
<body>
<h1>{html.escape(smiles)}</h1>
<h2>Token importance (mean attention, last captured layer)</h2>
<p>{''.join(spans)}</p>
<h2>Predicted classes</h2>
{pred_block}
<h2>Attention share per head (%)</h2>
{share_table}
</body>
</html>
"""


def write_attribution_csv(
    attribution: TokenAttribution, shares: HeadTokenShare, path
) -> None:
    text = io.StringIO()
    writer = csv.writer(text)  # rows end in "\r\n", written as they are
    writer.writerow(["token_index", "token", "score"])
    for i, (token, score) in enumerate(zip(attribution.tokens, attribution.scores)):
        writer.writerow([i, token, f"{score:.10g}"])
    writer.writerow([])
    writer.writerow(["head"] + list(shares.tokens))
    for label, row in zip(shares.row_labels, shares.matrix):
        writer.writerow([label] + [f"{v:.10g}" for v in row])
    atomic_write_text(path, text.getvalue())
