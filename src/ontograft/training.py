"""Dynamic masking, Adam with decoupled weight decay, and the two training
phases (MLM pretraining and multi-label fine-tuning), which share one epoch
loop with per-epoch validation and checkpoints.  ``OptimizerState`` holds
the only gradients, one parameter group's at a time.  A checkpoint is a
plain model file: it holds no optimizer state.

Every random draw derives from explicit seeds, so identical (data, config,
seed) reproduce identical logs and final parameters in 64-bit mode.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from ._io import atomic_copy
from .dataset import DatasetSplits, LabeledMolecule
from .metrics import binarize, prf
from .model import (
    ModelConfig,
    NumericError,
    ParameterStore,
    expit,
    loss_and_grad,
    mlm_loss_value,
    multilabel_loss_value,
    predict_logits,
    save_model,
)
from .tokenizer import MASK_ID, N_SPECIALS, TokenSequence, Tokenizer

# Seed-stream tags keeping the independent random streams apart.
_STREAM_MASKING = 1
_STREAM_VALIDATION = 2
_STREAM_SHUFFLE = 3
_STREAM_DROPOUT = 4

# Adam's moment decay rates and denominator offset (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(Exception):
    pass


class TrainingAborted(TrainingError):
    def __init__(self, epoch: int, cause: Exception):
        super().__init__(f"training aborted at epoch {epoch}: {cause}")
        self.epoch = epoch
        self.cause = cause


@dataclass
class MaskingPolicy:
    """Which tokens get hidden for MLM and what happens to them.

    A selected token becomes MASK with probability ``mask_fraction``, a
    random non-special token with probability ``random_fraction``, and
    otherwise stays unchanged.  Specials are never selected; with a nonzero
    probability, each sequence with a maskable token gets at least one
    target.
    """

    mask_probability: float = 0.15
    mask_fraction: float = 0.8
    random_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for key in ("mask_probability", "mask_fraction", "random_fraction"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise TrainingError(f"{key} must be in [0, 1]")
        total = self.mask_fraction + self.random_fraction
        if total > 1.0:
            raise TrainingError(f"mask_fraction + random_fraction must be at most 1, got {total}")


def apply_dynamic_masking(
    batch: list[TokenSequence],
    policy: MaskingPolicy,
    epoch: int,
    vocab_size: int,
) -> tuple[list[TokenSequence], list[list[tuple[int, int]]]]:
    """Mask each sequence independently, re-deriving the pattern from
    (policy seed, epoch, sequence index) so every epoch sees fresh masks and
    every rerun sees the same ones.

    Returns the masked batch and, per item, (position, original id) targets.
    """
    masked_batch: list[TokenSequence] = []
    targets: list[list[tuple[int, int]]] = []
    for i, seq in enumerate(batch):
        rng = np.random.default_rng(
            [policy.seed, _STREAM_MASKING, epoch, i]
        )
        ids = list(seq.ids)
        maskable = [p for p, t in enumerate(ids) if t >= N_SPECIALS]
        selected: list[int] = []
        if maskable and policy.mask_probability > 0.0:
            for _ in range(10):
                draws = rng.random(len(maskable))
                selected = [
                    p for p, r in zip(maskable, draws) if r < policy.mask_probability
                ]
                if selected:
                    break
        if maskable and not selected and policy.mask_probability > 0.0:
            selected = [maskable[int(rng.integers(len(maskable)))]]
        entry: list[tuple[int, int]] = []
        for pos in selected:
            entry.append((pos, ids[pos]))
            action = rng.random()
            if action < policy.mask_fraction:
                ids[pos] = MASK_ID
            elif action < policy.mask_fraction + policy.random_fraction:
                ids[pos] = int(rng.integers(N_SPECIALS, vocab_size))
            # else: keep the original token
        masked_batch.append(TokenSequence(tuple(ids), truncated=seq.truncated))
        targets.append(entry)
    return masked_batch, targets


class OptimizerState:
    """Adam moments, learning rate, decoupled weight decay and the one home
    of the gradients.

    ``m_arena`` and ``v_arena`` are laid out like the store's parameter arena
    (group by group, see ``ParameterStore``); ``store.views`` gives
    per-parameter views into them.  ``grads`` gives each parameter a slot in
    one buffer the size of the largest group (one layer at paper shape):
    ``loss_and_grad(..., optimizer=state)`` writes a group's gradients
    there, and ``update`` applies them before the next group reuses it.
    """

    def __init__(self, store: ParameterStore, lr: float, weight_decay: float):
        dtype = store.param_arena.dtype
        buffer = np.empty(max(g.span.stop - g.span.start for g in store.groups), dtype)
        # np.zeros maps lazily zeroed pages; zeros_like would fill them
        self.m_arena = np.zeros(store.param_arena.size, dtype)
        self.v_arena = np.zeros(store.param_arena.size, dtype)
        self.lr, self.weight_decay, self.step = lr, weight_decay, 0
        self.grads = store.group_views(buffer)
        # per group, its views of the gradients, m, v and the parameters, and
        # its number of decayed values; the update's two scratch rows and mask
        self.spans = [(buffer[:span.stop - span.start], self.m_arena[span], self.v_arena[span],
                       store.param_arena[span], n_decayed) for span, n_decayed, _ in store.groups]
        self.scratch = (*np.empty((2, _ADAM_BLOCK), dtype), np.empty(_ADAM_BLOCK, dtype=bool))

    def update(self, store: ParameterStore, group: int) -> None:
        """``adam_step`` on ``store.groups[group]``: ``loss_and_grad`` calls
        it as the backward pass finishes the group."""
        adam_step(store, self, group)


# Elements per block of the fused Adam pass: 256 KB of float64, so a block
# of each arena plus the two scratch blocks stay in L2.
_ADAM_BLOCK = 32 * 1024


def adam_step(store: ParameterStore, state: OptimizerState, group: int) -> None:
    """One bias-corrected Adam update with decoupled weight decay of
    ``store.groups[group]``, from its gradients in ``state.grads``.  Group
    0 starts a step: a step updates each group once, in order.

    One pass over the group's span in blocks of ``_ADAM_BLOCK`` values.
    Each block runs, in place, the elementwise expressions of the
    per-tensor update in the same order, so the results are the same bits:
    ``m = b1 m + (1-b1) g``, ``v = b2 v + ((1-b2) g) g``, decay
    ``p *= 1 - lr wd`` on the decayed tensors, then
    ``p -= (lr (m/bc1)) / (sqrt(v/bc2) + eps)``.  A non-finite gradient
    raises NumericError naming its parameter, before its block is used.
    """
    if group == 0:
        state.step += 1
    t = state.step
    # Python floats: a NumPy scalar would upcast a float32 arena (NEP 50)
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    lr = float(state.lr)
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    decay = 1.0 - lr * float(state.weight_decay)
    # positional outputs: a ufunc call costs less than with out= or in place
    mul, add = np.multiply, np.add
    *spans, n_decayed = state.spans[group]
    for start in range(0, spans[0].size, _ADAM_BLOCK):
        g, m, v, p = (x[start:start + _ADAM_BLOCK] for x in spans)
        a, b, finite = (x[:p.size] for x in state.scratch)
        if not np.isfinite(g, finite).all():
            names = store.groups[group].names
            bad = next(n for n in names if not np.isfinite(state.grads[n]).all())
            raise NumericError(f"gradient of {bad}")
        mul(m, beta1, m)
        add(m, mul(g, 1.0 - beta1, a), m)
        mul(v, beta2, v)
        mul(g, 1.0 - beta2, a)
        add(v, mul(a, g, a), v)
        if start < n_decayed and state.weight_decay != 0.0:
            p[:n_decayed - start] *= decay
        np.divide(m, bc1, a)
        mul(a, lr, a)
        np.divide(v, bc2, b)
        np.sqrt(b, b)
        add(b, eps, b)
        np.subtract(p, np.divide(a, b, a), p)


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 4
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = none

    def __post_init__(self):
        # every [training] range rule; config.build_run_config runs them first
        for key, least in (("epochs", 0), ("batch_size", 1), ("checkpoint_every", 0)):
            if getattr(self, key) < least:
                raise TrainingError(
                    f"[training] {key} must be >= {least}, got {getattr(self, key)}")
        # NaN fails both comparisons
        if not (0.0 < self.learning_rate < np.inf and 0.0 <= self.weight_decay < np.inf):
            raise TrainingError(
                "[training] learning_rate must be finite and > 0, and weight_decay finite "
                f"and >= 0, got {self.learning_rate} and {self.weight_decay}"
            )


@dataclass
class EpochLog:
    epoch: int
    phase: str  # "pretrain" or "finetune"
    train_loss: float
    val_loss: float
    val_f1_samples: float | None
    seconds: float


def append_epoch_logs(path, logs: list[EpochLog]) -> None:
    """Append to the run CSV, writing the header on first use."""
    new_file = not os.path.exists(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(
                ["epoch", "phase", "train_loss", "val_loss", "val_f1_samples", "seconds"]
            )
        for log in logs:
            writer.writerow(
                [
                    log.epoch,
                    log.phase,
                    f"{log.train_loss:.10g}",
                    f"{log.val_loss:.10g}",
                    "" if log.val_f1_samples is None else f"{log.val_f1_samples:.10g}",
                    f"{log.seconds:.3f}",
                ]
            )


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def _fit(
    store: ParameterStore,
    config: ModelConfig,
    tcfg: TrainConfig,
    phase: str,
    n_items: int,
    epoch_step,
    validate,
    checkpoint_dir: str | None,
) -> list[EpochLog]:
    """The epoch loop of both training phases.

    Each epoch shuffles the ``n_items`` training items and derives a dropout
    stream from (seed, epoch); ``epoch_step(epoch)`` returns the epoch's
    ``step(indices, rng, optimizer) -> (loss, weight)``, which trains on one
    batch by ``loss_and_grad(..., optimizer=optimizer)``, and the train loss
    is the weighted mean of the batch losses.

    The optimizer updates each parameter group as the backward pass
    finishes it, so training holds one group's gradients (one layer at
    paper shape); a non-finite gradient aborts the step at its group, after
    the earlier groups' updates.
    ``validate()`` returns (val_loss, val_f1_samples, score); a higher score
    is better and picks ``best.bin``.  A checkpoint is a model file.  No
    training items is an error, whatever the number of epochs.
    """
    if n_items == 0:
        raise TrainingError(f"{phase}: no training molecules")
    state = OptimizerState(store, tcfg.learning_rate, tcfg.weight_decay)
    logs: list[EpochLog] = []
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    best = -np.inf

    for epoch in range(1, tcfg.epochs + 1):
        started = time.monotonic()
        step = epoch_step(epoch)
        order = np.random.default_rng([tcfg.seed, _STREAM_SHUFFLE, epoch]).permutation(n_items)
        dropout_rng = np.random.default_rng([tcfg.seed, _STREAM_DROPOUT, epoch])
        total_loss = 0.0
        total_weight = 0
        try:
            for idx in _batches(order, tcfg.batch_size):
                loss, weight = step(idx, dropout_rng, state)
                total_loss += loss * weight
                total_weight += weight
        except NumericError as exc:
            raise TrainingAborted(epoch, exc) from exc
        val_loss, val_f1, score = validate()
        logs.append(EpochLog(
            epoch, phase, total_loss / max(total_weight, 1), val_loss, val_f1,
            time.monotonic() - started,
        ))
        if checkpoint_dir:
            names = ["last.bin"]
            if score > best:
                best = score
                names.append("best.bin")
            if tcfg.checkpoint_every and epoch % tcfg.checkpoint_every == 0:
                names.append(f"epoch{epoch:04d}.bin")
            # the checkpoints of one epoch hold the same bytes: serialize once
            paths = [os.path.join(checkpoint_dir, name) for name in names]
            save_model(store, config, paths[0])
            for path in paths[1:]:
                atomic_copy(paths[0], path)
    return logs


def pretrain(
    store: ParameterStore,
    config: ModelConfig,
    tokenizer: Tokenizer,
    corpus: list[str] | list[TokenSequence],
    val_corpus: list[str] | list[TokenSequence],
    tcfg: TrainConfig,
    policy: MaskingPolicy,
    checkpoint_dir: str | None = None,
) -> list[EpochLog]:
    """Masked-language-model pretraining with dynamic per-epoch masking.

    ``corpus`` and ``val_corpus`` hold SMILES strings or the sequences
    ``tokenizer`` encodes them to; the CLI encodes first, so a molecule that
    does not fit fails before the model is allocated.

    Validation uses a fixed mask pattern (its own seed stream, independent of
    the epoch) so the validation loss stays comparable across epochs, and it
    never touches the weights.  The best checkpoint has the lowest
    validation loss.
    """
    # no truncation: an over-length molecule is an error, because a cut one
    # would corrupt what the model is supposed to learn
    seqs, val_seqs = (
        [s if isinstance(s, TokenSequence) else tokenizer.encode(s) for s in texts]
        for texts in (corpus, val_corpus)
    )
    val_policy = replace(policy, seed=policy.seed + _STREAM_VALIDATION * 1_000_003)
    val_masked, val_targets = apply_dynamic_masking(
        val_seqs, val_policy, epoch=0, vocab_size=config.vocab_size
    )

    def epoch_step(epoch):
        masked, targets = apply_dynamic_masking(
            seqs, policy, epoch=epoch, vocab_size=config.vocab_size
        )

        def step(idx, rng, optimizer):
            batch_targets = [targets[i] for i in idx]
            loss = loss_and_grad(
                store, config, [masked[i] for i in idx], "mlm",
                mlm_targets=batch_targets, rng=rng, optimizer=optimizer,
            )
            return loss, sum(len(t) for t in batch_targets)

        return step

    def validate():
        val_loss = _batched_mlm_loss(store, config, val_masked, val_targets, tcfg.batch_size)
        return val_loss, None, -val_loss

    return _fit(store, config, tcfg, "pretrain", len(seqs), epoch_step, validate, checkpoint_dir)


def _batched_mlm_loss(store, config, masked, targets, batch_size) -> float:
    total = 0.0
    count = 0
    for start in range(0, len(masked), batch_size):
        batch = masked[start:start + batch_size]
        batch_targets = targets[start:start + batch_size]
        n = sum(len(t) for t in batch_targets)
        if n == 0:
            continue
        total += mlm_loss_value(store, config, batch, batch_targets) * n
        count += n
    return total / max(count, 1)


def _multilabel_val(store, config, seqs, labels, batch_size, threshold=0.5):
    if not seqs:
        return 0.0, 0.0
    logits = predict_logits(store, config, seqs, batch_size)
    loss = multilabel_loss_value(logits, labels.astype(np.float64))
    y_pred = binarize(expit(logits), threshold)
    _, _, f1 = prf(labels.astype(np.int8), y_pred, "samples")
    return loss, f1


def finetune(
    store: ParameterStore,
    config: ModelConfig,
    tokenizer: Tokenizer,
    splits: DatasetSplits,
    tcfg: TrainConfig,
    checkpoint_dir: str | None = None,
    threshold: float = 0.5,
    encoded: list[list[TokenSequence]] | None = None,
) -> list[EpochLog]:
    """Multi-label fine-tuning; logs validation loss and samples-F1 per epoch.
    The best checkpoint has the highest validation samples-F1.  Like
    pretraining without validation data, an empty validation split logs a
    loss and F1 of 0 and keeps the first epoch as ``best.bin``.

    ``encoded``, if given, holds the train and validation molecules as
    ``tokenizer`` encodes them; the CLI encodes first, so a molecule that
    does not fit fails before the model is loaded."""

    def prepare(molecules: list[LabeledMolecule], seqs):
        # no truncation, as in pretraining: an over-length molecule is an error
        seqs = [tokenizer.encode(m.smiles) for m in molecules] if seqs is None else seqs
        if not molecules:
            return seqs, None
        return seqs, np.stack([m.labels for m in molecules]).astype(np.float64)

    if splits.train and len(splits.train[0].labels) != config.n_labels:
        raise TrainingError(
            f"dataset has {len(splits.train[0].labels)} labels, model expects "
            f"{config.n_labels}"
        )
    train_encoded, val_encoded = encoded or (None, None)
    train_seqs, train_labels = prepare(splits.train, train_encoded)
    val_seqs, val_labels = prepare(splits.validation, val_encoded)

    def step(idx, rng, optimizer):
        loss = loss_and_grad(
            store, config, [train_seqs[i] for i in idx], "multilabel",
            labels=train_labels[idx], rng=rng, optimizer=optimizer,
        )
        return loss, len(idx)

    def validate():
        val_loss, val_f1 = _multilabel_val(
            store, config, val_seqs, val_labels, tcfg.batch_size, threshold
        )
        return val_loss, val_f1, val_f1

    return _fit(
        store, config, tcfg, "finetune", len(train_seqs), lambda epoch: step, validate,
        checkpoint_dir,
    )
