import os
import stat
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ontograft import training
from ontograft._io import atomic_copy
from ontograft.dataset import DatasetSplits, LabeledMolecule
from ontograft.model import (
    ModelConfig,
    NumericError,
    ParameterStore,
    init_model,
    load_model,
    loss_and_grad,
    mlm_loss_value,
    predict_probabilities,
    save_model,
)
from ontograft.tokenizer import MASK_ID, N_SPECIALS, TokenSequence, train_bpe
from ontograft.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EpochLog,
    MaskingPolicy,
    OptimizerState,
    TrainConfig,
    TrainingAborted,
    TrainingError,
    _ADAM_BLOCK,
    adam_step,
    append_epoch_logs,
    apply_dynamic_masking,
    finetune,
    pretrain,
)
from ontograft.metrics import binarize, compute_report, prf, write_report
from ontograft.ontology import save_obo

from conftest import WholeGradient, make_graph


def make_sequences(rng, n, vocab_size, min_len=4, max_len=20):
    out = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len))
        ids = (2,) + tuple(
            int(rng.integers(N_SPECIALS, vocab_size)) for _ in range(length)
        ) + (3,)
        out.append(TokenSequence(ids))
    return out


class TestMasking:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(0)
        batch = make_sequences(rng, 5, 20)
        policy = MaskingPolicy(mask_probability=0.0, seed=1)
        masked, targets = apply_dynamic_masking(batch, policy, epoch=1, vocab_size=20)
        assert all(m.ids == b.ids for m, b in zip(masked, batch))
        assert all(t == [] for t in targets)

    def test_probability_one_all_mask(self):
        rng = np.random.default_rng(1)
        batch = make_sequences(rng, 5, 20)
        policy = MaskingPolicy(
            mask_probability=1.0, mask_fraction=1.0, random_fraction=0.0, seed=1,
        )
        masked, targets = apply_dynamic_masking(batch, policy, epoch=1, vocab_size=20)
        for orig, m, t in zip(batch, masked, targets):
            for pos, token in enumerate(orig.ids):
                if token >= N_SPECIALS:
                    assert m.ids[pos] == MASK_ID
                else:
                    assert m.ids[pos] == token
            assert len(t) == sum(1 for tok in orig.ids if tok >= N_SPECIALS)

    def test_masked_fraction_concentrates(self):
        # binomial concentration: 10,000 tokens at p=0.15 stay within [0.13, 0.17]
        rng = np.random.default_rng(2)
        batch = make_sequences(rng, 500, 30, min_len=20, max_len=21)
        total = sum(sum(1 for t in s.ids if t >= N_SPECIALS) for s in batch)
        assert total >= 10000
        policy = MaskingPolicy(seed=3)
        _, targets = apply_dynamic_masking(batch, policy, epoch=1, vocab_size=30)
        fraction = sum(len(t) for t in targets) / total
        assert 0.13 <= fraction <= 0.17

    def test_specials_never_selected(self):
        rng = np.random.default_rng(4)
        batch = make_sequences(rng, 20, 15)
        policy = MaskingPolicy(mask_probability=1.0, seed=5)
        _, targets = apply_dynamic_masking(batch, policy, epoch=1, vocab_size=15)
        for orig, entries in zip(batch, targets):
            for pos, original in entries:
                assert orig.ids[pos] >= N_SPECIALS
                assert original == orig.ids[pos]

    def test_at_least_one_masked_per_sequence(self):
        rng = np.random.default_rng(6)
        batch = make_sequences(rng, 50, 20, min_len=4, max_len=6)
        policy = MaskingPolicy(mask_probability=0.01, seed=7)  # tiny probability
        _, targets = apply_dynamic_masking(batch, policy, epoch=1, vocab_size=20)
        assert all(len(t) >= 1 for t in targets)

    def test_same_seed_epoch_identical(self):
        rng = np.random.default_rng(8)
        batch = make_sequences(rng, 10, 20)
        policy = MaskingPolicy(seed=9)
        a = apply_dynamic_masking(batch, policy, epoch=3, vocab_size=20)
        b = apply_dynamic_masking(batch, policy, epoch=3, vocab_size=20)
        assert [m.ids for m in a[0]] == [m.ids for m in b[0]]
        assert a[1] == b[1]

    def test_masks_differ_across_epochs(self):
        rng = np.random.default_rng(10)
        batch = make_sequences(rng, 20, 20, min_len=15, max_len=25)
        policy = MaskingPolicy(seed=11)
        a = apply_dynamic_masking(batch, policy, epoch=1, vocab_size=20)
        b = apply_dynamic_masking(batch, policy, epoch=2, vocab_size=20)
        assert a[1] != b[1]

    def test_fraction_validation(self):
        # each fraction in [0, 1], together at most 1; the rest is kept
        for mask, rand in ((1.2, -0.1), (-0.1, 0.5), (0.5, 1.5), (0.95, 0.1)):
            with pytest.raises(TrainingError):
                MaskingPolicy(mask_fraction=mask, random_fraction=rand)
        for mask, rand in ((0.5, 0.1), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
            MaskingPolicy(mask_fraction=mask, random_fraction=rand)


def whole_step(store, state, grads):
    """One AdamW step from whole-model gradients: ``adam_step`` on each
    group in turn, from its gradients copied into the optimizer's slots, as
    the backward pass writes them."""
    for k, group in enumerate(store.groups):
        for name in group.names:
            state.grads[name][...] = grads[name]
        adam_step(store, state, k)


class TestAdam:
    def single_param_store(self, value):
        store = ParameterStore({"cls.w": (1, 1)})
        store.params["cls.w"][...] = value
        return store

    def test_first_step_hand_evaluation(self):
        # m_hat = 1, v_hat = 1 after bias correction; update = lr/(1 + eps)
        store = self.single_param_store(1.0)
        state = OptimizerState(store, lr=0.1, weight_decay=0.0)
        state.grads["cls.w"][...] = 1.0
        adam_step(store, state, 0)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        npt.assert_allclose(store.params["cls.w"][0, 0], expected, rtol=0, atol=1e-15)
        assert abs(store.params["cls.w"][0, 0] - 0.9) < 1e-7

    def test_zero_gradient_zero_decay_is_identity(self, tiny_config, tiny_store):
        state = OptimizerState(tiny_store, lr=0.1, weight_decay=0.0)
        before = {n: p.copy() for n, p in tiny_store.params.items()}
        whole_step(tiny_store, state, WholeGradient(tiny_store).grads)
        for name in tiny_store.params:
            npt.assert_array_equal(tiny_store.params[name], before[name])

    def test_decoupled_decay_scales_weights_only(self, tiny_config, tiny_store):
        state = OptimizerState(tiny_store, lr=0.1, weight_decay=0.1)
        before = {n: p.copy() for n, p in tiny_store.params.items()}
        whole_step(tiny_store, state, WholeGradient(tiny_store).grads)
        npt.assert_allclose(
            tiny_store.params["layers.0.attn.wq"], before["layers.0.attn.wq"] * 0.99
        )
        npt.assert_allclose(tiny_store.params["tok_emb"], before["tok_emb"] * 0.99)
        # layer-norm parameters and biases are exempt
        npt.assert_array_equal(tiny_store.params["layers.0.ln1.g"], before["layers.0.ln1.g"])
        npt.assert_array_equal(tiny_store.params["cls.b"], before["cls.b"])
        npt.assert_array_equal(tiny_store.params["mlm_bias"], before["mlm_bias"])

    def test_nan_gradient_names_parameter(self, tiny_store):
        state = OptimizerState(tiny_store, lr=0.1, weight_decay=0.0)
        grads = WholeGradient(tiny_store).grads
        grads["layers.1.ffn.w1"][0, 0] = np.nan
        with pytest.raises(NumericError) as err:
            whole_step(tiny_store, state, grads)
        assert "layers.1.ffn.w1" in str(err.value)


def decayed(name: str) -> bool:
    """Weight matrices and embeddings take decoupled weight decay."""
    last = name.rsplit(".", 1)[-1]
    return name in ("tok_emb", "pos_emb") or last.startswith("w")


def oracle_adam_step(params, grads, m, v, state):
    """The per-tensor AdamW update the fused arena pass must reproduce bit for
    bit: dicts of arrays, one whole-array expression at a time."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, grad in grads.items():
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * grad
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * grad * grad
        p = params[name]
        if state.weight_decay != 0.0 and decayed(name):
            p *= 1.0 - state.lr * state.weight_decay
        p -= state.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)


def random_shapes(rng) -> dict[str, tuple[int, ...]]:
    """Decayed (".w…") and exempt (".b"/".g") tensors, interleaved, of odd
    sizes; one is larger than an Adam block."""
    shapes = {}
    for i in range(int(rng.integers(3, 9))):
        kind = str(rng.choice(["w", "w2", "b", "g"]))
        if rng.random() < 0.5:
            shape = (int(rng.integers(1, 40)) * 2 + 1, int(rng.integers(1, 60)))
        else:
            shape = (int(rng.integers(1, 3000)),)
        shapes[f"t{i}.{kind}"] = shape
    big = int(rng.integers(_ADAM_BLOCK + 1, 2 * _ADAM_BLOCK))
    shapes[str(rng.choice(["big.w", "big.b"]))] = (big,)
    return shapes


class TestFusedAdam:
    """The blocked arena pass against the per-tensor oracle."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_matches_per_tensor_oracle(self, dtype, weight_decay):
        rng = np.random.default_rng(17 + int(weight_decay * 100) + (dtype == np.float32))
        cut = 0
        for _ in range(6):
            store = ParameterStore(random_shapes(rng), dtype)
            cut += any(g.n_decayed % _ADAM_BLOCK != 0 and g.n_decayed > _ADAM_BLOCK
                       for g in store.groups)
            store.param_arena[...] = rng.normal(0.0, 0.5, store.param_arena.size)
            state = OptimizerState(store, lr=0.01, weight_decay=weight_decay)
            params = {n: p.copy() for n, p in store.params.items()}
            m = {n: a.copy() for n, a in store.views(state.m_arena).items()}
            v = {n: a.copy() for n, a in store.views(state.v_arena).items()}
            oracle_state = OptimizerState(store, lr=0.01, weight_decay=weight_decay)
            for _ in range(int(rng.integers(1, 6))):
                grads = store.views(rng.normal(0.0, 1.0, store.param_arena.size).astype(dtype))
                whole_step(store, state, grads)
                oracle_adam_step(params, grads, m, v, oracle_state)
            state_m, state_v = store.views(state.m_arena), store.views(state.v_arena)
            for name in store.params:
                assert np.array_equal(store.params[name], params[name]), name
                assert np.array_equal(state_m[name], m[name]), name
                assert np.array_equal(state_v[name], v[name]), name
            assert state.step == oracle_state.step
        assert cut >= 1  # some case had a block edge inside the decayed prefix

    def test_non_finite_in_a_later_block_names_parameter(self):
        store = ParameterStore({"a.w": (_ADAM_BLOCK + 5,), "b.b": (7,), "c.w": (3, 3)})
        state = OptimizerState(store, lr=0.1, weight_decay=0.01)
        grads = WholeGradient(store).grads
        grads["c.w"][2, 1] = np.inf
        with pytest.raises(NumericError) as err:
            whole_step(store, state, grads)
        assert "c.w" in str(err.value)


class TestAdamInBackward:
    """The update applied group by group inside the backward pass against a
    whole backward pass followed by the per-tensor oracle."""

    @pytest.mark.parametrize("objective", ["multilabel", "mlm"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_matches_whole_backward_then_oracle(self, tiny_config, objective, dtype,
                                                weight_decay):
        config = replace(tiny_config, dtype=dtype)
        assert config.attention_dropout > 0.0  # dropout runs: each step passes an rng
        store = init_model(config)
        rng = np.random.default_rng(23)
        store.param_arena[...] += rng.normal(0.0, 0.1, store.param_arena.size)
        reference = init_model(config)
        reference.param_arena[...] = store.param_arena
        state = OptimizerState(store, lr=0.01, weight_decay=weight_decay)
        oracle_state = OptimizerState(reference, lr=0.01, weight_decay=weight_decay)
        whole = WholeGradient(reference)
        m = {n: np.zeros_like(p) for n, p in reference.params.items()}
        v = {n: np.zeros_like(p) for n, p in reference.params.items()}
        for step in range(4):
            batch = make_sequences(rng, 3, config.vocab_size, min_len=2, max_len=9)
            if objective == "multilabel":
                targets = dict(labels=(rng.random((3, config.n_labels)) < 0.5).astype(float))
            else:
                targets = dict(mlm_targets=[[(pos, s.ids[pos]) for pos in (1, len(s) - 2)]
                                            for s in batch])
            loss = loss_and_grad(store, config, batch, objective, optimizer=state,
                                 rng=np.random.default_rng([5, step]), **targets)
            want = loss_and_grad(reference, config, batch, objective, optimizer=whole,
                                 rng=np.random.default_rng([5, step]), **targets)
            oracle_adam_step(reference.params, whole.grads, m, v, oracle_state)
            assert loss == want
        state_m, state_v = store.views(state.m_arena), store.views(state.v_arena)
        for name in store.params:
            assert np.array_equal(store.params[name], reference.params[name]), name
            assert np.array_equal(state_m[name], m[name]), name
            assert np.array_equal(state_v[name], v[name]), name
            assert store.params[name].dtype == np.dtype(dtype)
        assert state.step == oracle_state.step == 4


class TestArena:
    """Every parameter and moment is a view into its arena."""

    @staticmethod
    def assert_views(views, arena):
        assert sum(a.size for a in views.values()) == arena.size
        for name, array in views.items():
            assert np.shares_memory(array, arena), name

    def assert_store(self, store):
        """The groups tile the arena in the order the backward pass finishes
        them, and each holds its decayed tensors first."""
        self.assert_views(store.params, store.param_arena)
        spans = sorted(group.span.indices(store.param_arena.size) for group in store.groups)
        assert [start for start, _, _ in spans] == [0] + [stop for _, stop, _ in spans[:-1]]
        assert spans[-1][1] == store.param_arena.size
        assert sorted(n for group in store.groups for n in group.names) == sorted(store.params)
        for group in store.groups:
            decayed_prefix = store.param_arena[group.span][: group.n_decayed]
            for name in group.names:
                assert np.shares_memory(store.params[name], store.param_arena[group.span]), name
                assert np.shares_memory(store.params[name], decayed_prefix) == decayed(name), name
        kinds = [{name.split(".")[1] if name.startswith("layers.") else
                  "embeddings" if name.endswith("_emb") else "heads" for name in group.names}
                 for group in store.groups]
        n_layers = len(kinds) - 2
        assert kinds == [{"heads"}, *({str(i)} for i in reversed(range(n_layers))),
                         {"embeddings"}]

    def assert_state(self, store, state):
        m, v = store.views(state.m_arena), store.views(state.v_arena)
        self.assert_views(m, state.m_arena)
        self.assert_views(v, state.v_arena)
        assert list(m) == list(v) == list(store.params)

    def test_init_and_load(self, tiny_config, tiny_store, tmp_path):
        self.assert_store(tiny_store)
        save_model(tiny_store, tiny_config, tmp_path / "m.bin")
        loaded, _, _ = load_model(tmp_path / "m.bin")
        self.assert_store(loaded)
        assert list(loaded.params) == list(tiny_store.params)
        assert np.array_equal(loaded.param_arena, tiny_store.param_arena)

    def test_optimizer_state_and_checkpoint(self, tiny_store):
        """The moments stay views of their arenas across a step.  Checkpoints
        hold no optimizer state: TestPretrain checks what they hold."""
        state = OptimizerState(tiny_store, lr=0.1, weight_decay=0.01)
        self.assert_state(tiny_store, state)
        whole_step(tiny_store, state, tiny_store.views(np.full_like(tiny_store.param_arena, 0.5)))
        self.assert_state(tiny_store, state)
        assert state.step == 1 and state.m_arena.any() and state.v_arena.any()

    def test_group_views_share_one_buffer(self, tiny_store):
        """Each parameter's optimizer slot sits at its offset inside its
        group, so the slots of one group tile the start of the buffer."""
        state = OptimizerState(tiny_store, lr=0.1, weight_decay=0.01)
        sizes = [group.span.stop - group.span.start for group in tiny_store.groups]
        buffer = state.grads["cls.w"].base
        assert buffer.size == max(sizes)
        assert all(slot.base is buffer for slot in state.grads.values())
        for group, size in zip(tiny_store.groups, sizes):
            buffer.fill(0.0)
            for name in group.names:
                state.grads[name][...] += 1.0
            assert np.array_equal(buffer[:size], np.ones(size)), group.names


def toy_setup(seed=0, n=24, n_labels=3):
    rng = np.random.default_rng(seed)
    motifs = ["N", "O", "S"]
    corpus = []
    molecules = []
    for i in range(n):
        present = rng.random(n_labels) < 0.5
        if not present.any():
            present[int(rng.integers(n_labels))] = True
        body = "C" * int(rng.integers(2, 6))
        for j, flag in enumerate(present):
            if flag:
                body += "(" + motifs[j] + ")" + "C" * int(rng.integers(1, 3))
        body += "C" * i  # force uniqueness
        corpus.append(body)
        molecules.append(LabeledMolecule(body, present.astype(np.int8)))
    tok = train_bpe(corpus, target_vocab=30, max_len=64)
    config = ModelConfig(
        vocab_size=len(tok.vocab), n_labels=n_labels, n_layers=1, n_heads=2,
        hidden_dim=16, ffn_dim=32, max_len=64, seed=seed,
    )
    return tok, config, corpus, molecules


class TestPretrain:
    def test_zero_epochs_is_identity(self):
        tok, config, corpus, _ = toy_setup()
        store = init_model(config)
        before = {n: p.copy() for n, p in store.params.items()}
        logs = pretrain(store, config, tok, corpus, [], TrainConfig(epochs=0),
                        MaskingPolicy(seed=1))
        assert logs == []
        for name in store.params:
            npt.assert_array_equal(store.params[name], before[name])

    def test_loss_decreases(self):
        tok, config, corpus, _ = toy_setup()
        store = init_model(config)
        logs = pretrain(
            store, config, tok, corpus, corpus[:4],
            TrainConfig(epochs=8, batch_size=4, learning_rate=1e-3, seed=2),
            MaskingPolicy(seed=2),
        )
        assert logs[-1].train_loss < logs[0].train_loss
        assert all(np.isfinite(l.val_loss) for l in logs)

    def test_reproducible(self):
        tok, config, corpus, _ = toy_setup()
        results = []
        for _ in range(2):
            store = init_model(config)
            logs = pretrain(
                store, config, tok, corpus, [],
                TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=5),
                MaskingPolicy(seed=5),
            )
            results.append((logs, {n: p.copy() for n, p in store.params.items()}))
        assert [l.train_loss for l in results[0][0]] == [l.train_loss for l in results[1][0]]
        for name in results[0][1]:
            npt.assert_array_equal(results[0][1][name], results[1][1][name])

    def test_validation_leaves_parameters_untouched(self):
        tok, config, corpus, _ = toy_setup()
        store = init_model(config)
        seqs = [tok.encode(s) for s in corpus]
        masked, targets = apply_dynamic_masking(
            seqs, MaskingPolicy(seed=3), epoch=0, vocab_size=config.vocab_size
        )
        before = {n: p.copy() for n, p in store.params.items()}
        for _ in range(3):
            mlm_loss_value(store, config, masked, targets)
        for name in store.params:
            npt.assert_array_equal(store.params[name], before[name])

    def test_checkpoints_written_and_loadable(self, tmp_path):
        tok, config, corpus, molecules = toy_setup()
        store = init_model(config)
        pre_logs = pretrain(
            store, config, tok, corpus, corpus[:4],
            TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=1, checkpoint_every=1),
            MaskingPolicy(seed=1),
            checkpoint_dir=str(tmp_path / "pretrain"),
        )
        save_model(store, config, tmp_path / "pretrained.bin")
        splits = DatasetSplits(train=molecules, validation=molecules[:6], test=[])
        fine_logs = finetune(
            store, config, tok, splits,
            TrainConfig(epochs=4, batch_size=4, learning_rate=3e-3, seed=1, checkpoint_every=1),
            checkpoint_dir=str(tmp_path / "finetune"),
        )
        save_model(store, config, tmp_path / "finetuned.bin")
        val_loss = lambda log: log.val_loss
        val_f1 = lambda log: log.val_f1_samples
        # (phase, logs, its final model, best epoch, the epoch a flipped
        # comparison would pick)
        phases = [
            ("pretrain", pre_logs, "pretrained.bin",
             min(pre_logs, key=val_loss).epoch, max(pre_logs, key=val_loss).epoch),
            ("finetune", fine_logs, "finetuned.bin",
             max(fine_logs, key=val_f1).epoch, min(fine_logs, key=val_f1).epoch),
        ]
        for phase, logs, final, best, worst in phases:
            directory = tmp_path / phase
            assert sorted(p.name for p in directory.iterdir()) == sorted(
                ["best.bin", "last.bin"] + [f"epoch{l.epoch:04d}.bin" for l in logs]
            )
            for path in directory.iterdir():
                _, loaded_config, trailing = load_model(path)
                assert trailing == b"", path.name
                assert loaded_config == config
            assert (directory / "last.bin").read_bytes() == (tmp_path / final).read_bytes()
            assert best != worst, phase
            assert (directory / "best.bin").read_bytes() == (
                directory / f"epoch{best:04d}.bin"
            ).read_bytes(), phase

    def test_one_serialization_per_epoch(self, tmp_path, monkeypatch):
        """last.bin, best.bin and epochNNNN.bin of one epoch are one
        save_model call; the other names get its bytes by copy."""
        tok, config, corpus, _ = toy_setup()
        store = init_model(config)
        saved = []

        def counting_save(store, config, path):
            saved.append(path)
            save_model(store, config, path)

        monkeypatch.setattr(training, "save_model", counting_save)
        directory = tmp_path / "ckpt"
        logs = pretrain(
            store, config, tok, corpus, corpus[:4],
            TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=1, checkpoint_every=1),
            MaskingPolicy(seed=1), checkpoint_dir=str(directory),
        )
        assert len(logs) == 3
        assert len(saved) == 3
        assert (directory / "epoch0003.bin").read_bytes() == (directory / "last.bin").read_bytes()
        assert not list(directory.glob("*.tmp"))


class TestFinetune:
    def make_splits(self, molecules):
        return DatasetSplits(train=molecules, validation=molecules[:6], test=[])

    def test_zero_epochs_is_identity(self):
        tok, config, _, molecules = toy_setup()
        store = init_model(config)
        before = {n: p.copy() for n, p in store.params.items()}
        logs = finetune(store, config, tok, self.make_splits(molecules), TrainConfig(epochs=0))
        assert logs == []
        for name in store.params:
            npt.assert_array_equal(store.params[name], before[name])

    def test_overfit_sanity(self):
        # 32 molecules, 3 labels: training-set samples-F1 must exceed 0.95
        tok, config, _, molecules = toy_setup(seed=1, n=32)
        store = init_model(config)
        splits = self.make_splits(molecules)
        finetune(
            store, config, tok, splits,
            TrainConfig(epochs=200, batch_size=8, learning_rate=3e-3, seed=1),
        )
        seqs = [tok.encode(m.smiles) for m in molecules]
        probs = predict_probabilities(store, config, seqs)
        y = np.stack([m.labels for m in molecules])
        _, _, f1 = prf(y, binarize(probs, 0.5), "samples")
        assert f1 >= 0.95

    def test_logs_carry_validation_f1(self):
        tok, config, _, molecules = toy_setup()
        store = init_model(config)
        logs = finetune(
            store, config, tok, self.make_splits(molecules),
            TrainConfig(epochs=2, batch_size=8, seed=3),
        )
        assert len(logs) == 2
        assert all(l.phase == "finetune" for l in logs)
        assert all(0.0 <= l.val_f1_samples <= 1.0 for l in logs)

    def test_label_width_mismatch(self):
        tok, config, _, molecules = toy_setup()
        bad = ModelConfig(
            vocab_size=config.vocab_size, n_labels=7, n_layers=1, n_heads=2,
            hidden_dim=16, ffn_dim=32, max_len=64, seed=0,
        )
        with pytest.raises(TrainingError):
            finetune(init_model(bad), bad, tok, self.make_splits(molecules), TrainConfig(epochs=1))

    @pytest.mark.parametrize("setting", [{"epochs": -1}, {"batch_size": 0},
                                         {"checkpoint_every": -1}])
    def test_setting_out_of_range(self, setting):
        # a negative checkpoint_every would checkpoint every epoch
        with pytest.raises(TrainingError):
            TrainConfig(**{"epochs": 1, **setting})

    def test_non_finite_gradient_aborts_naming_the_parameter(self, monkeypatch):
        """loss_and_grad checks only the loss; a finite loss with a
        non-finite gradient is stopped by the check of the group update
        inside the backward pass, which names the first bad parameter in the
        order the backward pass finishes groups, not in declaration order."""
        tok, config, _, molecules = toy_setup()
        real = OptimizerState.update
        poison = {"layers.0.ln1.g": np.nan,  # declared first, in the last layer group
                  "cls.w": np.inf}  # declared last, in the first group

        def poisoned(self, store, group):
            # the backward pass has written the group's slots; spoil them
            for name in store.groups[group].names:
                if name in poison:
                    self.grads[name].flat[1] = poison[name]
            real(self, store, group)

        monkeypatch.setattr(OptimizerState, "update", poisoned)
        with pytest.raises(TrainingAborted) as err:
            finetune(init_model(config), config, tok, self.make_splits(molecules),
                     TrainConfig(epochs=1))
        assert str(err.value) == (
            "training aborted at epoch 1: non-finite value in gradient of cls.w"
        )


class TestEpochLogCsv:
    def test_append_and_header(self, tmp_path):
        path = tmp_path / "log.csv"
        logs = [EpochLog(1, "pretrain", 2.0, 2.1, None, 0.5)]
        append_epoch_logs(path, logs)
        append_epoch_logs(path, [EpochLog(1, "finetune", 0.4, 0.5, 0.9, 0.2)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,phase,train_loss,val_loss,val_f1_samples,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,pretrain,2,2.1,,")
        assert lines[2].startswith("1,finetune,0.4,0.5,0.9,")


class TestFileModes:
    def test_artifacts_follow_the_umask(self, tmp_path):
        """Every artifact writer creates its file with mode 0o666 & ~umask,
        as open() would, not mkstemp's owner-only 0o600."""
        old = os.umask(0o022)
        try:
            tok, config, corpus, _ = toy_setup()
            store = init_model(config)
            pretrain(
                store, config, tok, corpus, corpus[:4],
                TrainConfig(epochs=1, batch_size=4, seed=1, checkpoint_every=1),
                MaskingPolicy(seed=1), checkpoint_dir=str(tmp_path / "ckpt"),
            )
            save_model(store, config, tmp_path / "model.bin")
            y = np.array([[1, 0], [0, 1]])
            write_report(compute_report(y, y * 0.9), [], [], str(tmp_path / "eval"))
            save_obo(make_graph({"A": {}, "B": {"parents": ["A"]}}), tmp_path / "ext.obo")
            atomic_copy(tmp_path / "model.bin", tmp_path / "copy.bin")
        finally:
            os.umask(old)
        for path in ("model.bin", "ckpt/last.bin", "ckpt/epoch0001.bin",
                     "eval/report.json", "ext.obo", "copy.bin"):
            mode = stat.S_IMODE(os.stat(tmp_path / path).st_mode)
            assert mode == 0o644, (path, oct(mode))
