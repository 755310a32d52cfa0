"""Work counts computed from call arguments and results, for the traced run.

These are computed from shapes, not measured: FLOPs count only the matrix
products (two FLOPs per multiply-add; layer norm, softmax, GELU and the
embedding gather are left out), and bytes are array sizes, ignoring caches.
"""

from __future__ import annotations

import os


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def encoder_flops(config, batch: int, length: int) -> float:
    """Forward matrix-product FLOPs of the encoder stack on a padded batch."""
    d, f = config.hidden_dim, config.ffn_dim
    per_layer = 8 * batch * length * d * d + 4 * batch * length * length * d + 4 * batch * length * d * f
    return float(config.n_layers * per_layer)


def _loss_and_grad(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    batch = _arg(args, kwargs, 2, "batch")
    objective = _arg(args, kwargs, 3, "objective")
    length = max(len(s) for s in batch)
    forward = encoder_flops(config, len(batch), length)
    d = config.hidden_dim
    if objective == "mlm":
        targets = _arg(args, kwargs, 5, "mlm_targets")
        rows = sum(len(t) for t in targets)
        forward += 2 * rows * d * d + 2 * rows * d * config.vocab_size
    else:
        forward += 2 * len(batch) * d * config.n_labels
    # backward: two products (input and weight gradients) per forward product
    yield "model.loss_and_grad.flops", 3 * forward
    yield "model.loss_and_grad.tokens", sum(len(s) for s in batch)


def _predict_logits(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    seqs = _arg(args, kwargs, 2, "seqs")
    batch_size = _arg(args, kwargs, 3, "batch_size", 32)
    flops = cells = real = 0
    for start in range(0, len(seqs), batch_size):
        chunk = seqs[start:start + batch_size]
        length = max(len(s) for s in chunk)
        flops += encoder_flops(config, len(chunk), length)
        flops += 2 * len(chunk) * config.hidden_dim * config.n_labels
        cells += len(chunk) * length
        real += sum(len(s) for s in chunk)
    yield "model.predict_logits.flops", flops
    yield "model.predict_logits.cells", cells
    yield "model.predict_logits.pad_cells", cells - real


def _adam_step(args, kwargs, result):
    store = _arg(args, kwargs, 0, "store")
    # parameters, first and second moments read and written; gradients read
    yield "training.adam_step.bytes", 7 * sum(p.nbytes for p in store.params.values())


def _save_model(args, kwargs, result):
    store = _arg(args, kwargs, 0, "store")
    extra = _arg(args, kwargs, 3, "extra", b"")
    yield "model.save_model.bytes", 8 * store.n_parameters() + len(extra)


def _file_bytes(key, index, name):
    def hook(args, kwargs, result):
        yield key, os.path.getsize(_arg(args, kwargs, index, name))
    return hook


def _encode(args, kwargs, result):
    yield "tokenizer.encode.tokens", len(result)


def _classify_batch(args, kwargs, result):
    yield "extension.accepted", sum(len(r.accepted) for r in result)
    yield "extension.below_threshold", sum(1 for r in result if r.below_threshold)


def _propose_extensions(args, kwargs, result):
    yield "extension.proposals", len(result[0])


HOOKS = {
    "model.loss_and_grad": _loss_and_grad,
    "model.predict_logits": _predict_logits,
    "training.adam_step": _adam_step,
    "model.save_model": _save_model,
    "model.load_model": _file_bytes("model.load_model.bytes", 0, "path"),
    "ontology.save_obo": _file_bytes("ontology.save_obo.bytes", 1, "path"),
    "tokenizer.encode": _encode,
    "extension.classify_batch": _classify_batch,
    "extension.propose_extensions": _propose_extensions,
}
