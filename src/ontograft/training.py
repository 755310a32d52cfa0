"""Dynamic masking, Adam with decoupled weight decay, and the two training
loops (MLM pretraining and multi-label fine-tuning) with per-epoch validation.

Every random draw derives from explicit seeds, so identical (data, config,
seed) reproduce identical logs and final parameters in 64-bit mode.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from .dataset import DatasetSplits, LabeledMolecule
from .model import (
    ModelConfig,
    NumericError,
    ParameterStore,
    load_model,
    loss_and_grad,
    mlm_loss_value,
    save_model,
)
from .tokenizer import MASK_ID, N_SPECIALS, TokenSequence, Tokenizer

# Seed-stream tags keeping the independent random streams apart.
_STREAM_MASKING = 1
_STREAM_VALIDATION = 2
_STREAM_SHUFFLE = 3
_STREAM_DROPOUT = 4


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

    A selected token becomes MASK, a random non-special token, or stays
    unchanged, per the action fractions.  Specials are never selected.
    """

    mask_probability: float = 0.15
    mask_fraction: float = 0.8
    random_fraction: float = 0.1
    keep_fraction: float = 0.1
    seed: int = 0
    force_minimum: bool = True

    def __post_init__(self):
        if not 0.0 <= self.mask_probability <= 1.0:
            raise TrainingError("mask_probability must be in [0, 1]")
        total = self.mask_fraction + self.random_fraction + self.keep_fraction
        if abs(total - 1.0) > 1e-9:
            raise TrainingError(f"action fractions must sum to 1, got {total}")


def apply_dynamic_masking(
    batch: list[TokenSequence],
    policy: MaskingPolicy,
    epoch: int,
    vocab_size: int,
    start_index: int = 0,
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
            [policy.seed, _STREAM_MASKING, epoch, start_index + i]
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
                if selected or not policy.force_minimum:
                    break
        if maskable and not selected and policy.force_minimum and policy.mask_probability > 0.0:
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


@dataclass
class OptimizerState:
    """Adam moments plus the decoupled weight-decay hyperparameters.

    ``m_arena`` and ``v_arena`` are laid out like the store's parameter arena
    (decayed tensors first, see ``ParameterStore``); ``m[name]`` and
    ``v[name]`` are views into them, in declaration order.
    """

    m_arena: np.ndarray
    v_arena: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    step: int = 0

    @staticmethod
    def for_store(store: ParameterStore, lr: float, weight_decay: float) -> "OptimizerState":
        m_arena = np.zeros_like(store.param_arena)
        v_arena = np.zeros_like(store.param_arena)
        return OptimizerState(
            m_arena, v_arena, store.views(m_arena), store.views(v_arena),
            lr=lr, weight_decay=weight_decay,
        )


# Elements per block of the fused Adam pass: 256 KB of float64, so a block
# of each arena plus the two scratch blocks stay in L2.
_ADAM_BLOCK = 32 * 1024


def adam_step(store: ParameterStore, state: OptimizerState) -> None:
    """One bias-corrected Adam update with decoupled weight decay.

    One pass over the arenas in blocks of ``_ADAM_BLOCK`` elements.  Each
    block runs, in place, the elementwise expressions of the per-tensor
    update in the same order, so the results are the same bits:
    ``m = b1 m + (1-b1) g``, ``v = b2 v + ((1-b2) g) g``, decay
    ``p *= 1 - lr wd`` on the decayed prefix, then
    ``p -= (lr (m/bc1)) / (sqrt(v/bc2) + eps)``.
    """
    state.step += 1
    t = state.step
    # Python floats: a NumPy scalar would upcast a float32 arena (NEP 50)
    beta1, beta2 = float(state.beta1), float(state.beta2)
    lr, eps = float(state.lr), float(state.eps)
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    decay = 1.0 - lr * float(state.weight_decay)
    decay_end = store.n_decayed if state.weight_decay != 0.0 else 0
    params, grads = store.param_arena, store.grad_arena
    size = params.size
    block = max(1, min(_ADAM_BLOCK, size))
    scratch_a = np.empty(block, dtype=params.dtype)
    scratch_b = np.empty(block, dtype=params.dtype)
    finite = np.empty(block, dtype=bool)
    for start in range(0, size, block):
        stop = min(start + block, size)
        n = stop - start
        g = grads[start:stop]
        if not np.isfinite(g, out=finite[:n]).all():
            bad = next(k for k in store.names() if not np.isfinite(store.grads[k]).all())
            raise NumericError(f"gradient of {bad}")
        m = state.m_arena[start:stop]
        v = state.v_arena[start:stop]
        p = params[start:stop]
        a, b = scratch_a[:n], scratch_b[:n]
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=a)
        v += np.multiply(a, g, out=a)
        if start < decay_end:
            p[: decay_end - start] *= decay
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        p -= np.divide(a, b, out=a)


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 4
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = none
    # Accepted for config-file completeness but not implemented:
    lr_schedule: str = "constant"
    early_stopping: bool = False
    gradient_clip: float = 0.0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise TrainingError("epochs must be >= 0 and batch_size >= 1")
        if self.lr_schedule != "constant":
            raise NotImplementedError("learning-rate schedules are unimplemented")
        if self.early_stopping:
            raise NotImplementedError("early stopping is unimplemented")
        if self.gradient_clip:
            raise NotImplementedError("gradient clipping is unimplemented")


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


def encode_corpus(tokenizer: Tokenizer, smiles_list: list[str]) -> list[TokenSequence]:
    """Encode training strings; over-length inputs are an error here because
    truncation would corrupt what the model is supposed to learn."""
    return [tokenizer.encode(s) for s in smiles_list]


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def _checkpoint(store, config, state, directory, filename) -> str:
    path = os.path.join(directory, filename)
    save_model(store, config, path, extra=_pack_optimizer(state))
    return path


def _pack_optimizer(state: OptimizerState) -> list:
    """The optimizer trailer of a checkpoint as buffers for ``save_model`` to
    write in turn: meta JSON, then per parameter its m and v as
    little-endian float64."""
    meta = {
        "lr": state.lr,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
        "weight_decay": state.weight_decay,
        "step": state.step,
        "names": list(state.m),
    }
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks = [struct.pack("<I", len(meta_b)) + meta_b]
    for name in state.m:
        for moment in (state.m[name], state.v[name]):
            chunks.append(memoryview(np.ascontiguousarray(moment, "<f8")).cast("B"))
    return chunks


def unpack_optimizer(blob: bytes, store: ParameterStore) -> OptimizerState:
    if not blob:
        raise TrainingError("checkpoint carries no optimizer state")
    try:
        (meta_len,) = struct.unpack_from("<I", blob, 0)
        meta = json.loads(blob[4:4 + meta_len].decode("utf-8"))
        if meta["names"] != store.names():
            raise TrainingError("optimizer state names do not match the model")
        state = OptimizerState.for_store(store, meta["lr"], meta["weight_decay"])
        state.beta1, state.beta2 = meta["beta1"], meta["beta2"]
        state.eps, state.step = meta["eps"], meta["step"]
        off = 4 + meta_len
        for name in meta["names"]:
            for moment in (state.m[name], state.v[name]):
                moment[...] = np.frombuffer(
                    blob, dtype="<f8", count=moment.size, offset=off
                ).reshape(moment.shape)
                off += 8 * moment.size
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        # bytes missing (struct, np.frombuffer, JSON and UTF-8 decoding) or
        # a meta object without the expected keys
        raise TrainingError("truncated or corrupt optimizer state") from exc
    return state


def load_checkpoint(path) -> tuple[ParameterStore, ModelConfig, OptimizerState | None]:
    store, config, extra = load_model(path)
    try:
        state = unpack_optimizer(extra, store) if extra else None
    except TrainingError as exc:
        raise TrainingError(f"{path}: {exc}") from exc
    return store, config, state


def pretrain(
    store: ParameterStore,
    config: ModelConfig,
    tokenizer: Tokenizer,
    corpus: list[str],
    val_corpus: list[str],
    tcfg: TrainConfig,
    policy: MaskingPolicy,
    checkpoint_dir: str | None = None,
) -> list[EpochLog]:
    """Masked-language-model pretraining with dynamic per-epoch masking.

    Validation uses a fixed mask pattern (its own seed stream, independent of
    the epoch) so the validation loss stays comparable across epochs, and it
    never touches the weights.
    """
    seqs = encode_corpus(tokenizer, corpus)
    val_seqs = encode_corpus(tokenizer, val_corpus)
    val_policy = MaskingPolicy(
        mask_probability=policy.mask_probability,
        mask_fraction=policy.mask_fraction,
        random_fraction=policy.random_fraction,
        keep_fraction=policy.keep_fraction,
        seed=policy.seed + _STREAM_VALIDATION * 1_000_003,
        force_minimum=policy.force_minimum,
    )
    val_masked, val_targets = apply_dynamic_masking(
        val_seqs, val_policy, epoch=0, vocab_size=config.vocab_size
    )
    state = OptimizerState.for_store(store, tcfg.learning_rate, tcfg.weight_decay)
    logs: list[EpochLog] = []
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    best_val = np.inf

    for epoch in range(1, tcfg.epochs + 1):
        started = time.monotonic()
        masked, targets = apply_dynamic_masking(
            seqs, policy, epoch=epoch, vocab_size=config.vocab_size
        )
        shuffle_rng = np.random.default_rng([tcfg.seed, _STREAM_SHUFFLE, epoch])
        order = shuffle_rng.permutation(len(masked))
        dropout_rng = np.random.default_rng([tcfg.seed, _STREAM_DROPOUT, epoch])
        total_loss = 0.0
        total_masked = 0
        try:
            for idx in _batches(order, tcfg.batch_size):
                batch = [masked[i] for i in idx]
                batch_targets = [targets[i] for i in idx]
                n_masked = sum(len(t) for t in batch_targets)
                loss = loss_and_grad(
                    store,
                    config,
                    batch,
                    "mlm",
                    mlm_targets=batch_targets,
                    train_mode=True,
                    rng=dropout_rng,
                )
                adam_step(store, state)
                total_loss += loss * n_masked
                total_masked += n_masked
        except NumericError as exc:
            raise TrainingAborted(epoch, exc) from exc
        train_loss = total_loss / max(total_masked, 1)
        val_loss = _batched_mlm_loss(store, config, val_masked, val_targets, tcfg.batch_size)
        logs.append(
            EpochLog(epoch, "pretrain", train_loss, val_loss, None, time.monotonic() - started)
        )
        if checkpoint_dir:
            _checkpoint(store, config, state, checkpoint_dir, "last.bin")
            if val_loss < best_val:
                best_val = val_loss
                _checkpoint(store, config, state, checkpoint_dir, "best.bin")
            if tcfg.checkpoint_every and epoch % tcfg.checkpoint_every == 0:
                _checkpoint(store, config, state, checkpoint_dir, f"epoch{epoch:04d}.bin")
    return logs


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
    from scipy.special import expit

    from .metrics import prf
    from .model import multilabel_loss_value, predict_logits

    if not seqs:
        return 0.0, 0.0
    logits = predict_logits(store, config, seqs, batch_size)
    loss = multilabel_loss_value(logits, labels.astype(np.float64))
    y_pred = (expit(logits) >= threshold).astype(np.int8)
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
) -> list[EpochLog]:
    """Multi-label fine-tuning; logs validation loss and samples-F1 per epoch
    and keeps the best-validation checkpoint separately from the last."""

    def prepare(molecules: list[LabeledMolecule]):
        seqs = encode_corpus(tokenizer, [m.smiles for m in molecules])
        labels = np.stack([m.labels for m in molecules]).astype(np.float64)
        return seqs, labels

    if splits.train and len(splits.train[0].labels) != config.n_labels:
        raise TrainingError(
            f"dataset has {len(splits.train[0].labels)} labels, model expects "
            f"{config.n_labels}"
        )
    train_seqs, train_labels = prepare(splits.train)
    val_seqs, val_labels = prepare(splits.validation)
    state = OptimizerState.for_store(store, tcfg.learning_rate, tcfg.weight_decay)
    logs: list[EpochLog] = []
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    best_f1 = -1.0

    for epoch in range(1, tcfg.epochs + 1):
        started = time.monotonic()
        shuffle_rng = np.random.default_rng([tcfg.seed, _STREAM_SHUFFLE, epoch])
        order = shuffle_rng.permutation(len(train_seqs))
        dropout_rng = np.random.default_rng([tcfg.seed, _STREAM_DROPOUT, epoch])
        total_loss = 0.0
        try:
            for idx in _batches(order, tcfg.batch_size):
                batch = [train_seqs[i] for i in idx]
                y = train_labels[idx]
                loss = loss_and_grad(
                    store,
                    config,
                    batch,
                    "multilabel",
                    labels=y,
                    train_mode=True,
                    rng=dropout_rng,
                )
                adam_step(store, state)
                total_loss += loss * len(idx)
        except NumericError as exc:
            raise TrainingAborted(epoch, exc) from exc
        train_loss = total_loss / len(train_seqs)
        val_loss, val_f1 = _multilabel_val(
            store, config, val_seqs, val_labels, tcfg.batch_size, threshold
        )
        logs.append(
            EpochLog(epoch, "finetune", train_loss, val_loss, val_f1, time.monotonic() - started)
        )
        if checkpoint_dir:
            _checkpoint(store, config, state, checkpoint_dir, "last.bin")
            if val_f1 > best_f1:
                best_f1 = val_f1
                _checkpoint(store, config, state, checkpoint_dir, "best.bin")
            if tcfg.checkpoint_every and epoch % tcfg.checkpoint_every == 0:
                _checkpoint(store, config, state, checkpoint_dir, f"epoch{epoch:04d}.bin")
    return logs
