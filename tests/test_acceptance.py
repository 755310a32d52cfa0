"""Acceptance suite: one test per criterion, each ending with a PASS line.

The toy end-to-end pipeline (criterion 5) runs once through the real CLI and
its artifacts feed criteria 6 and 9.  Everything is seeded; the whole module
is deterministic.
"""

import itertools
import json
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from ontograft.cli import main as cli_main
from ontograft.dataset import (
    LabelIndex,
    largest_remainder_sizes,
    LabeledMolecule,
    load_tsv,
    split_dataset,
)
from ontograft.extension import propose_extensions, extend, ClassificationResult
from ontograft.metrics import AVERAGINGS, binarize, prf, roc_auc_detail
from ontograft.model import (
    ModelConfig,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    predict_probabilities,
)
from ontograft.ontology import save_obo
from ontograft.synthetic import generate_toy_ontology
from ontograft.tokenizer import Tokenizer, TokenSequence, train_bpe
from ontograft.training import TrainConfig, finetune

from conftest import random_dag
from test_metrics import brute_auc, brute_prf

SEED = 3


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: PASS — {message}")


def run_cli(args):
    code = cli_main([str(a) for a in args])
    assert code == 0, f"CLI failed: {args}"


def write_toy_config(path):
    path.write_text(
        f"[run]\nseed = {SEED}\nthreshold = 0.5\n\n"
        "[dataset]\nn_label_classes = 18\nmin_members = 50\n"
        "ratio_train = 0.7\nratio_validation = 0.09\nratio_test = 0.21\n\n"
        "[tokenizer]\ntarget_vocab = 40\nmax_len = 96\n\n"
        "[model]\nn_layers = 2\nn_heads = 4\nhidden_dim = 32\nffn_dim = 64\n\n"
        "[training]\npretrain_epochs = 30\nfinetune_epochs = 100\n"
    )


def run_toy_pipeline(root):
    """build-dataset -> train-tokenizer -> pretrain -> finetune -> evaluate,
    all through the CLI; returns artifact paths and elapsed seconds."""
    started = time.monotonic()
    graph = generate_toy_ontology(seed=SEED, n_leaves=400)
    obo = root / "toy.obo"
    save_obo(graph, obo)
    config = root / "toy.ini"
    write_toy_config(config)
    dataset = root / "dataset"
    tokenizer = root / "tokenizer.txt"
    pretrained = root / "pretrained.bin"
    finetuned = root / "finetuned.bin"
    run_cli(["build-dataset", "--config", config, "--ontology", obo, "--out", dataset])
    run_cli(["train-tokenizer", "--config", config,
             "--input", dataset / "train.tsv", "--out", tokenizer])
    run_cli(["pretrain", "--config", config, "--tokenizer", tokenizer,
             "--train", dataset / "train.tsv",
             "--validation", dataset / "validation.tsv",
             "--labels", dataset / "labels.txt", "--out", pretrained,
             "--batch-size", 4, "--learning-rate", 5e-4,
             "--log", root / "pretrain_log.csv"])
    run_cli(["finetune", "--config", config, "--model", pretrained,
             "--tokenizer", tokenizer, "--dataset", dataset, "--out", finetuned,
             "--batch-size", 8, "--learning-rate", 7e-3,
             "--log", root / "finetune_log.csv"])
    run_cli(["evaluate", "--config", config, "--model", finetuned,
             "--tokenizer", tokenizer, "--test", dataset / "test.tsv",
             "--labels", dataset / "labels.txt", "--out", root / "eval_test"])
    run_cli(["evaluate", "--config", config, "--model", finetuned,
             "--tokenizer", tokenizer, "--test", dataset / "train.tsv",
             "--labels", dataset / "labels.txt", "--out", root / "eval_train"])
    # extension stage feeds the determinism comparison
    queries = root / "queries.smi"
    queries.write_text("CCC(BrBr)CCCc1ccccc1\nCC(nopnop)CCC(OO)C\nCCCCC\n")
    run_cli(["extend", "--config", config, "--model", finetuned,
             "--tokenizer", tokenizer, "--labels", dataset / "labels.txt",
             "--ontology", obo, "--input", queries,
             "--out-ontology", root / "extended.obo",
             "--out-report", root / "changes.json"])
    return {
        "root": root, "config": config, "dataset": dataset, "tokenizer": tokenizer,
        "pretrained": pretrained, "finetuned": finetuned,
        "elapsed": time.monotonic() - started,
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_toy_pipeline(tmp_path_factory.mktemp("toy_run"))


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_check(tiny_config, tiny_store):
    """Analytic vs central-difference gradients on every parameter, both
    objectives, max relative error < 1e-3, under two minutes."""
    started = time.monotonic()
    batch = [
        TokenSequence((2, 5, 6, 7, 8, 9, 3)),
        TokenSequence((2, 10, 11, 3)),
    ]
    cases = {
        "multilabel": dict(labels=np.array([[1, 0, 1], [0, 1, 0]], dtype=float)),
        "mlm": dict(mlm_targets=[[(2, 6), (4, 8)], [(1, 10)]]),
    }
    eps = 1e-4
    worst = 0.0
    for objective, kwargs in cases.items():
        loss_and_grad(tiny_store, tiny_config, batch, objective, **kwargs)
        analytic = {n: g.copy() for n, g in tiny_store.grads.items()}
        for name, param in tiny_store.params.items():
            flat = param.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss_and_grad(tiny_store, tiny_config, batch, objective, **kwargs)
                flat[i] = orig - eps
                down = loss_and_grad(tiny_store, tiny_config, batch, objective, **kwargs)
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                ana = analytic[name].reshape(-1)[i]
                rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
                assert rel < 1e-3, f"{objective} {name}[{i}]: {ana} vs {numeric}"
                worst = max(worst, rel)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(1, f"max relative error {worst:.2e} over "
              f"{2 * tiny_store.n_parameters()} checks in {elapsed:.1f}s")


def test_criterion_02_attention_invariants():
    """1,000 random forward passes: rows sum to 1, attention exactly at each
    sequence's own length, padding never shifts real-position outputs by
    more than 1e-5."""
    config = ModelConfig(vocab_size=30, n_labels=4, n_layers=2, n_heads=2,
                         hidden_dim=16, ffn_dim=32, max_len=24, seed=SEED)
    store = init_model(config)
    rng = np.random.default_rng(SEED)
    n_checked = 0
    batch_size = 8
    while n_checked < 1000:
        batch = []
        for _ in range(min(batch_size, 1000 - n_checked)):
            length = int(rng.integers(1, 12))
            content = tuple(int(rng.integers(5, 30)) for _ in range(length))
            batch.append(TokenSequence((2,) + content + (3,)))
        outs = forward(store, config, batch, capture_attention=True)
        for seq, out in zip(batch, outs):
            att = out.attention
            assert att.shape == (config.n_layers, config.n_heads, len(seq), len(seq))
            npt.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-6)
            alone = forward(store, config, [seq])[0]
            npt.assert_allclose(alone.hidden, out.hidden, atol=1e-5)
            npt.assert_allclose(alone.logits, out.logits, atol=1e-5)
        n_checked += len(batch)
    report(2, f"{n_checked} forward passes, all attention rows normalized and "
              "padding-invariant")


def test_criterion_03_metrics_oracle():
    """500 random prediction matrices: prf equals the brute-force
    per-definition recomputation exactly, roc_auc matches exhaustive pair
    enumeration within 1e-12."""
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, 11))
        y_true = (rng.random((n, k)) < rng.uniform(0.2, 0.6)).astype(np.int8)
        y_score = np.round(rng.random((n, k)), 2)
        y_pred = binarize(y_score, 0.5)
        for averaging in AVERAGINGS:
            got = prf(y_true, y_pred, averaging)
            want = brute_prf(y_true.tolist(), y_pred.tolist(), averaging)
            assert tuple(got) == tuple(want), (averaging, y_true, y_pred)
        want_micro = brute_auc(y_true.reshape(-1).tolist(), y_score.reshape(-1).tolist())
        if want_micro is not None:
            got_micro, _ = roc_auc_detail(y_true, y_score, "micro")
            assert abs(got_micro - want_micro) < 1e-12
        per_col = [brute_auc(y_true[:, j].tolist(), y_score[:, j].tolist())
                   for j in range(k)]
        valid = [a for a in per_col if a is not None]
        got_macro, excluded = roc_auc_detail(y_true, y_score, "macro")
        assert excluded == k - len(valid)
        if valid:
            assert abs(got_macro - sum(valid) / len(valid)) < 1e-12
    # the worked micro example: TP=2 FP=0 FN=1 -> F1 = 0.8
    precision, recall, f1 = prf(
        np.array([[1, 0], [1, 1]]), np.array([[1, 0], [0, 1]]), "micro"
    )
    assert precision == 1.0 and abs(recall - 2 / 3) < 1e-12 and abs(f1 - 0.8) < 1e-12
    report(3, "500 matrices exact vs brute force; worked example F1=0.8 holds")


def test_criterion_04_bpe_properties(tmp_path):
    """Round-trip, deterministic retraining, monotone compression on a
    1,000-string corpus."""
    rng = np.random.default_rng(SEED)
    alphabet = list("CNOSPFIBrcl1()=")
    corpus = []
    for _ in range(1000):
        length = int(rng.integers(3, 50))
        corpus.append("".join(rng.choice(alphabet, size=length)))
    tok = train_bpe(corpus, target_vocab=150, max_len=128)
    baseline = Tokenizer(tok.vocab, (), max_len=128)
    for s in corpus:
        decoded, lossy = tok.decode(tok.encode(s))
        assert decoded == s and not lossy
        assert len(tok.encode(s)) <= len(baseline.encode(s))
    tok.save(tmp_path / "a.txt")
    train_bpe(corpus, target_vocab=150, max_len=128).save(tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    report(4, f"1000-string round-trip, determinism, compression "
              f"({len(tok.merges)} merges)")


def test_criterion_05_toy_end_to_end(pipeline):
    """Synthetic ontology -> dataset -> tokenizer -> pretrain 30 epochs ->
    finetune 100 epochs -> evaluate: test micro F1 >= 0.90, training-set
    samples F1 >= 0.95, inside the 15-minute budget."""
    test_report = json.loads((pipeline["root"] / "eval_test" / "report.json").read_text())
    train_report = json.loads((pipeline["root"] / "eval_train" / "report.json").read_text())
    test_micro = test_report["metrics"]["micro"]["f1"]
    train_samples = train_report["metrics"]["samples"]["f1"]
    assert test_micro >= 0.90, f"test micro F1 {test_micro}"
    assert train_samples >= 0.95, f"train samples F1 {train_samples}"
    assert pipeline["elapsed"] < 900.0
    report(5, f"test micro F1 {test_micro:.3f}, train samples F1 "
              f"{train_samples:.3f}, pipeline {pipeline['elapsed']:.0f}s")


def test_criterion_06_pretraining_effectiveness(pipeline, tmp_path):
    """(a) final MLM training loss < 0.5x the first epoch's; (b) fine-tuning
    from the pretrained checkpoint reaches criterion 5's F1 target in at most
    half the epochs needed from random initialization."""
    # (a) from the pretraining epoch log
    rows = (pipeline["root"] / "pretrain_log.csv").read_text().strip().split("\n")[1:]
    losses = [float(r.split(",")[2]) for r in rows if r.split(",")[1] == "pretrain"]
    assert len(losses) == 30
    ratio = losses[-1] / losses[0]
    assert ratio < 0.5, f"MLM loss ratio {ratio:.3f}"

    # (b) epoch race, identical fine-tuning hyperparameters, only the init differs
    splits, labels = load_tsv(str(pipeline["dataset"]))
    tokenizer = Tokenizer.load(pipeline["tokenizer"])
    pre_store, config, _ = load_model(pipeline["pretrained"])
    test_seqs = [tokenizer.encode(m.smiles) for m in splits.test]
    y_test = np.stack([m.labels for m in splits.test])
    tcfg = lambda epochs: TrainConfig(
        epochs=epochs, batch_size=8, learning_rate=7e-3, seed=SEED, checkpoint_every=1
    )

    def epochs_to_target(store, max_epochs, ckpt_dir):
        os.makedirs(ckpt_dir)
        finetune(store, config, tokenizer, splits, tcfg(max_epochs),
                 checkpoint_dir=str(ckpt_dir))
        curve = []
        for epoch in range(1, max_epochs + 1):
            st, cfg, _ = load_model(ckpt_dir / f"epoch{epoch:04d}.bin")
            probs = predict_probabilities(st, cfg, test_seqs)
            _, _, f1 = prf(y_test, binarize(probs, 0.5), "micro")
            curve.append(f1)
        first = next((e + 1 for e, v in enumerate(curve) if v >= 0.90), None)
        return first, curve

    e_pre, _ = epochs_to_target(pre_store.copy(), 30, tmp_path / "pre")
    assert e_pre is not None, "pretrained fine-tune never reached the F1 target"
    budget = 2 * e_pre
    e_rand, curve = epochs_to_target(init_model(config), budget, tmp_path / "rand")
    # random may reach the target exactly at 2*e_pre, but no earlier
    assert e_rand is None or e_rand >= budget, (
        f"random init reached the target at epoch {e_rand}, "
        f"pretrained needed {e_pre}; transfer margin below 2x"
    )
    report(6, f"MLM loss ratio {ratio:.3f} < 0.5; pretrained reached F1 0.90 at "
              f"epoch {e_pre}, random not before epoch {budget}")


def test_criterion_07_split_arithmetic():
    """Ratios derived from the published split sizes reproduce them exactly
    on n=31,280 via largest-remainder rounding."""
    assert largest_remainder_sizes(31280, (0.7, 0.09, 0.21)) == (21896, 2815, 6569)
    data = [LabeledMolecule(f"C{i}", np.array([1], dtype=np.int8)) for i in range(31280)]
    splits = split_dataset(data, (0.7, 0.09, 0.21), seed=SEED)
    sizes = (len(splits.train), len(splits.validation), len(splits.test))
    assert sizes == (21896, 2815, 6569)
    report(7, f"31,280 molecules split into {sizes}")


def test_criterion_08_extension_safety():
    """200 randomized extend runs: acyclicity, prior graph preserved, added
    classes are leaves, most-specific pruning verified against ancestors()."""
    rng = np.random.default_rng(SEED)
    for run in range(200):
        graph = random_dag(rng, int(rng.integers(6, 40)))
        internal = [c for c in graph.ids() if not graph.is_leaf(c)]
        if not internal:
            continue
        k = min(len(internal), int(rng.integers(1, 6)))
        chosen = [internal[i] for i in rng.choice(len(internal), size=k, replace=False)]
        labels = LabelIndex(tuple(chosen))
        results = []
        for m in range(int(rng.integers(1, 5))):
            probs = rng.random(len(labels))
            accepted = [labels.classes[j] for j in range(len(labels)) if probs[j] >= 0.5]
            results.append(ClassificationResult(
                smiles=f"C{run}N{m}", probabilities=probs, accepted=accepted,
                below_threshold=not accepted,
                top_k=[(labels.classes[0], float(probs[0]))],
            ))
        proposals, skipped = propose_extensions(graph, labels, results, id_prefix="XT:")
        extended, change_report = extend(graph, proposals, skipped)
        # acyclic by construction: the OntologyGraph constructor would raise;
        # make it explicit with a topological sort oracle
        order = []
        remaining = {cid: set(extended[cid].parents) for cid in extended.ids()}
        while remaining:
            ready = [cid for cid, parents in remaining.items() if not parents]
            assert ready, "topological sort stalled: cycle introduced"
            for cid in ready:
                order.append(cid)
                del remaining[cid]
            for parents in remaining.values():
                parents.difference_update(ready)
        for cid in graph.ids():
            assert extended[cid] == graph[cid]
        for prop in proposals:
            assert extended.is_leaf(prop.new_id)
            supers = [cid for cid, _ in prop.superclasses]
            for a, b in itertools.permutations(supers, 2):
                assert a not in extended.ancestors(b) or a == b
            # pruning dropped exactly the ancestors of other accepted classes
            original = next(r for r in results if r.smiles == prop.smiles)
            for cid in original.accepted:
                others = set(original.accepted) - {cid}
                is_redundant = any(cid in graph.ancestors(o) for o in others)
                assert (cid in supers) == (not is_redundant)
        assert len(change_report.added) == len(proposals)
    report(8, "200 randomized extend runs preserved acyclicity, priors, "
              "leaf-ness, and most-specific pruning")


def test_criterion_09_determinism(pipeline, tmp_path_factory):
    """Re-running the criterion-5 pipeline with the same seed yields
    byte-identical checkpoints, reports, and extended ontology files."""
    second = run_toy_pipeline(tmp_path_factory.mktemp("toy_rerun"))
    compared = []
    for rel in (
        "pretrained.bin", "finetuned.bin", "tokenizer.txt",
        "dataset/train.tsv", "dataset/validation.tsv", "dataset/test.tsv",
        "dataset/labels.txt", "dataset/stats.json",
        "eval_test/report.json", "eval_test/per_class_f1.csv",
        "eval_test/per_molecule_f1.csv", "extended.obo", "changes.json",
    ):
        a = (pipeline["root"] / rel).read_bytes()
        b = (second["root"] / rel).read_bytes()
        assert a == b, f"artifact differs between runs: {rel}"
        compared.append(rel)
    report(9, f"{len(compared)} artifacts byte-identical across reruns")


def test_criterion_10_explainability_invariants():
    """Importance sums to 1, share rows sum to 100, uniform cases exact,
    rendering deterministic."""
    from ontograft.attribution import (
        head_token_share,
        render_report,
        token_importance,
    )

    tok = train_bpe(["CNOS"], target_vocab=16)
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n_real = int(rng.integers(1, 5))
        seq = tok.encode("CNOS"[:n_real])
        t = len(seq)
        w = rng.random((2, 3, t, t))
        w /= w.sum(axis=-1, keepdims=True)
        imp = token_importance(w, seq, tok)
        assert abs(imp.scores.sum() - 1.0) < 1e-6
        assert (imp.scores >= 0).all()
        shares = head_token_share(w, seq, tok)
        npt.assert_allclose(shares.matrix.sum(axis=1), 100.0, atol=0.01)
    # uniform symmetry: equal attention -> equal scores, exactly
    seq = tok.encode("CNOS")
    t = len(seq)
    uniform = np.full((2, 3, t, t), 1.0 / t)
    imp = token_importance(uniform, seq, tok)
    npt.assert_array_equal(imp.scores, 0.25)
    shares = head_token_share(uniform, seq, tok)
    npt.assert_allclose(shares.matrix, 25.0, atol=1e-9)
    html_a = render_report("CNOS", imp, shares, [("X", 0.9)])
    html_b = render_report("CNOS", imp, shares, [("X", 0.9)])
    assert html_a == html_b
    report(10, "importance normalization, share rows, uniform symmetry, "
               "deterministic rendering")
