"""Command-line interface: one subcommand per pipeline stage.

    build-dataset | train-tokenizer | pretrain | finetune | evaluate |
    classify | explain | extend

Every subcommand reads an optional INI config (--config) with flag overrides,
requires an explicit seed, writes outputs atomically, and exits nonzero with
a machine-readable ``ERROR<TAB>component<TAB>message`` line on failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import attribution, dataset, extension, metrics, ontology, tokenizer as tok
from ._io import atomic_write_text
from .config import (
    ConfigError,
    ConfigValueError,
    RunConfig,
    build_run_config,
    setting_type,
    write_default_config,
)
from .model import (
    ModelConfig,
    ModelError,
    init_model,
    load_model,
    forward,
    save_model,
)
from .training import (
    MaskingPolicy,
    TrainConfig,
    TrainingError,
    append_epoch_logs,
    finetune as run_finetune,
    pretrain as run_pretrain,
)

logger = logging.getLogger("ontograft.cli")

_COMPONENTS = {
    ontology.OntologyError: "ontology",
    dataset.DatasetError: "dataset",
    tok.TokenizerError: "tokenizer",
    ModelError: "model",
    TrainingError: "training",
    metrics.MetricsError: "evaluation",
    attribution.AttributionError: "explainability",
    extension.ExtensionError: "extension",
    ConfigValueError: "config",  # before ConfigError: the first match names the component
    ConfigError: "cli",
}


class _TabFormatter(logging.Formatter):
    def format(self, record):
        component = record.name.split(".")[-1]
        return f"{record.levelname}\t{component}\t{record.getMessage()}"


def _setup_logging() -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_TabFormatter())
    root = logging.getLogger("ontograft")
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)


def _require_inputs(*paths) -> None:
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"input path does not exist: {path}")


def _read_smiles_file(path) -> list[str]:
    """Newline-delimited SMILES, or the smiles column of a dataset TSV."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        rest = fh.read().split("\n")
    lines = [first.rstrip("\n")] + rest
    lines = [l for l in lines if l.strip()]
    if not lines:
        raise ConfigError(f"{path}: no molecules found")
    if lines[0].startswith("smiles\t") or lines[0] == "smiles":
        return [l.split("\t", 1)[0] for l in lines[1:]]
    return [l.split("\t", 1)[0] for l in lines]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build_dataset(args, cfg: RunConfig) -> None:
    _require_inputs(args.ontology)
    graph = ontology.load_obo(args.ontology)
    logger.info("loaded ontology with %d classes", len(graph))
    labels = dataset.select_label_classes(
        graph, cfg.n_label_classes, cfg.min_members, cfg.seed
    )
    molecules, stats = dataset.build_dataset(graph, labels)
    logger.info(
        "built %d molecules over %d label classes", len(molecules), len(labels)
    )
    splits = dataset.split_dataset(
        molecules, (cfg.ratio_train, cfg.ratio_validation, cfg.ratio_test), cfg.seed
    )
    dataset.save_tsv(splits, labels, args.out)
    stats_doc = {
        "n_molecules": stats.n_molecules,
        "per_class_counts": stats.per_class_counts,
        "labels_per_molecule": {str(k): v for k, v in sorted(stats.labels_per_molecule.items())},
        "split_sizes": {
            "train": len(splits.train),
            "validation": len(splits.validation),
            "test": len(splits.test),
        },
    }
    atomic_write_text(
        os.path.join(args.out, "stats.json"),
        json.dumps(stats_doc, indent=2, sort_keys=True) + "\n",
    )
    logger.info(
        "split sizes: train=%d validation=%d test=%d",
        len(splits.train), len(splits.validation), len(splits.test),
    )


def _cmd_train_tokenizer(args, cfg: RunConfig) -> None:
    _require_inputs(args.input)
    corpus = _read_smiles_file(args.input)
    trained = tok.train_bpe(
        corpus, cfg.target_vocab, max_len=cfg.max_len, min_frequency=cfg.min_frequency
    )
    trained.save(args.out)
    logger.info(
        "trained tokenizer: %d tokens, %d merges", len(trained.vocab), len(trained.merges)
    )


def _cmd_pretrain(args, cfg: RunConfig) -> None:
    _require_inputs(args.tokenizer, args.train, args.validation, args.labels, args.init_model)
    tokenizer = tok.Tokenizer.load(args.tokenizer)
    corpus = _read_smiles_file(args.train)
    val_corpus = _read_smiles_file(args.validation) if args.validation else []
    epochs = cfg.pretrain_epochs if args.epochs is None else args.epochs
    if args.init_model:
        store, mcfg, _ = load_model(args.init_model)
    else:
        if not args.labels:
            raise ConfigError("pretrain needs --labels (or --init-model)")
        n_labels = len(dataset.load_labels(args.labels))
        mcfg = cfg.build(
            ModelConfig, "model",
            vocab_size=len(tokenizer.vocab), n_labels=n_labels, max_len=tokenizer.max_len,
        )
        store = init_model(mcfg)
    logger.info(
        "pretraining %d epochs on %d molecules (%d parameters)",
        epochs, len(corpus), store.n_parameters(),
    )
    policy = cfg.build(MaskingPolicy, "masking")
    tcfg = cfg.build(TrainConfig, "training", epochs=epochs)
    logs = run_pretrain(
        store, mcfg, tokenizer, corpus, val_corpus, tcfg, policy,
        checkpoint_dir=args.checkpoint_dir,
    )
    save_model(store, mcfg, args.out)
    log_path = args.log or os.path.join(os.path.dirname(os.path.abspath(args.out)), "training_log.csv")
    append_epoch_logs(log_path, logs)
    if logs:
        logger.info("final train loss %.4f, val loss %.4f", logs[-1].train_loss, logs[-1].val_loss)


def _cmd_finetune(args, cfg: RunConfig) -> None:
    _require_inputs(args.model, args.tokenizer, args.dataset)
    tokenizer = tok.Tokenizer.load(args.tokenizer)
    store, mcfg, _ = load_model(args.model)
    splits, labels = dataset.load_tsv(args.dataset)
    if len(labels) != mcfg.n_labels:
        raise TrainingError(
            f"dataset has {len(labels)} labels, model expects {mcfg.n_labels}"
        )
    epochs = cfg.finetune_epochs if args.epochs is None else args.epochs
    logger.info(
        "fine-tuning %d epochs on %d molecules, %d labels",
        epochs, len(splits.train), len(labels),
    )
    tcfg = cfg.build(TrainConfig, "training", epochs=epochs)
    logs = run_finetune(
        store, mcfg, tokenizer, splits, tcfg,
        checkpoint_dir=args.checkpoint_dir, threshold=cfg.threshold,
    )
    save_model(store, mcfg, args.out)
    log_path = args.log or os.path.join(os.path.dirname(os.path.abspath(args.out)), "training_log.csv")
    append_epoch_logs(log_path, logs)
    if logs:
        logger.info(
            "final val loss %.4f, val samples-F1 %.4f",
            logs[-1].val_loss, logs[-1].val_f1_samples,
        )


def _cmd_evaluate(args, cfg: RunConfig) -> None:
    _require_inputs(args.model, args.tokenizer, args.test, args.labels)
    tokenizer = tok.Tokenizer.load(args.tokenizer)
    store, mcfg, _ = load_model(args.model)
    molecules, labels = dataset.load_split_tsv(args.test)
    if args.labels:
        labels = dataset.load_labels(args.labels)
    report, class_rows, molecule_rows = metrics.evaluate_model(
        store, mcfg, tokenizer, molecules, labels, threshold=cfg.threshold,
        batch_size=cfg.batch_size,
    )
    metrics.write_report(report, class_rows, molecule_rows, args.out)
    for averaging in metrics.AVERAGINGS:
        vals = report.values[averaging]
        logger.info(
            "%s: f1=%.4f precision=%.4f recall=%.4f roc_auc=%.4f",
            averaging, vals["f1"], vals["precision"], vals["recall"], vals["roc_auc"],
        )


def _cmd_classify(args, cfg: RunConfig) -> None:
    _require_inputs(args.model, args.tokenizer, args.labels, args.input)
    tokenizer = tok.Tokenizer.load(args.tokenizer)
    store, mcfg, _ = load_model(args.model)
    labels = dataset.load_labels(args.labels)
    smiles_list = _read_smiles_file(args.input)
    results = extension.classify_batch(
        store, mcfg, tokenizer, labels, smiles_list,
        threshold=cfg.threshold, top_k=cfg.top_k, batch_size=cfg.batch_size,
    )
    doc = {
        "threshold": cfg.threshold,
        "results": [
            {
                "smiles": r.smiles,
                "accepted": [
                    {"label": cid, "probability": float(r.probabilities[labels.column(cid)])}
                    for cid in r.accepted
                ],
                "below_threshold": r.below_threshold,
                "suggestions": [
                    {"label": cid, "probability": prob} for cid, prob in r.top_k
                ],
                "truncated": r.truncated,
            }
            for r in results
        ],
    }
    atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    n_below = sum(r.below_threshold for r in results)
    logger.info("classified %d molecules (%d below threshold)", len(results), n_below)


def _cmd_explain(args, cfg: RunConfig) -> None:
    _require_inputs(args.model, args.tokenizer, args.labels)
    if (args.smiles is None) == (args.input is None):
        raise ConfigError("explain needs exactly one of --smiles or --input")
    tokenizer = tok.Tokenizer.load(args.tokenizer)
    store, mcfg, _ = load_model(args.model)
    labels = dataset.load_labels(args.labels)
    smiles_list = [args.smiles] if args.smiles else _read_smiles_file(args.input)
    os.makedirs(args.out, exist_ok=True)
    for i, smiles in enumerate(smiles_list):
        seq = tokenizer.encode(smiles, truncate=True)
        output = forward(store, mcfg, [seq], capture_attention=True)[0]
        attrib = attribution.token_importance(output.attention, seq, tokenizer, layer=args.layer)
        shares = attribution.head_token_share(output.attention, seq, tokenizer)
        predictions = [
            (labels.classes[j], float(output.probabilities[j]))
            for j in range(len(labels))
            if output.probabilities[j] >= cfg.threshold
        ]
        predictions.sort(key=lambda item: (-item[1], item[0]))
        html_doc = attribution.render_report(
            smiles, attrib, shares, predictions, threshold=cfg.threshold
        )
        atomic_write_text(os.path.join(args.out, f"explain_{i:04d}.html"), html_doc)
        if args.csv:
            attribution.write_attribution_csv(
                attrib, shares, os.path.join(args.out, f"explain_{i:04d}.csv")
            )
    logger.info("wrote %d explanation report(s) to %s", len(smiles_list), args.out)


def _cmd_extend(args, cfg: RunConfig) -> None:
    _require_inputs(args.model, args.tokenizer, args.labels, args.ontology, args.input)
    tokenizer = tok.Tokenizer.load(args.tokenizer)
    store, mcfg, _ = load_model(args.model)
    labels = dataset.load_labels(args.labels)
    graph = ontology.load_obo(args.ontology)
    smiles_list = _read_smiles_file(args.input)
    results = extension.classify_batch(
        store, mcfg, tokenizer, labels, smiles_list,
        threshold=cfg.threshold, top_k=cfg.top_k, batch_size=cfg.batch_size,
    )
    proposals, skipped = extension.propose_extensions(
        graph, labels, results, id_prefix=cfg.id_prefix, id_width=cfg.id_width
    )
    extended, report = extension.extend(graph, proposals, skipped)
    ontology.save_obo(
        extended, args.out_ontology,
        edge_comments=extension.edge_comment_map(proposals),
    )
    atomic_write_text(args.out_report, report.to_json())
    logger.info(
        "added %d classes (%d below threshold); extended ontology has %d classes",
        len(proposals), len(skipped), len(extended),
    )


# ---------------------------------------------------------------------------
# argument parsing


def _add_setting(sub: argparse.ArgumentParser, flag: str, key: str | None = None,
                 **kwargs) -> None:
    """A flag that overrides the setting ``key`` (default: the flag's name)."""
    key = key or flag[2:].replace("-", "_")
    sub.add_argument(flag, dest=key, type=setting_type(key), **kwargs)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; flags override it")
    _add_setting(sub, "--seed", help="random seed (mandatory here or in config)")
    _add_setting(sub, "--threshold", help="classification threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontograft",
        description="Extend a structure-annotated ontology with a small "
        "SMILES transformer trained on its own annotations.",
    )
    parser.add_argument(
        "--write-default-config", metavar="PATH",
        help="write the documented default config to PATH and exit",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("build-dataset", help="ontology -> labeled TSV splits")
    _add_common(p)
    p.add_argument("--ontology", required=True)
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_setting(p, "--n-labels", "n_label_classes")
    _add_setting(p, "--min-members")
    p.set_defaults(func=_cmd_build_dataset)

    p = subs.add_parser("train-tokenizer", help="learn BPE merges from SMILES")
    _add_common(p)
    p.add_argument("--input", required=True, help="TSV or newline-delimited SMILES")
    p.add_argument("--out", required=True, help="tokenizer file")
    _add_setting(p, "--target-vocab")
    _add_setting(p, "--max-len")
    p.set_defaults(func=_cmd_train_tokenizer)

    p = subs.add_parser("pretrain", help="masked-language-model pretraining")
    _add_common(p)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--train", required=True, help="training TSV or SMILES file")
    p.add_argument("--validation", help="validation TSV or SMILES file")
    p.add_argument("--labels", help="labels.txt fixing the classifier width")
    p.add_argument("--init-model", help="continue from an existing model file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--checkpoint-dir")
    p.add_argument("--log", help="epoch log CSV (default: training_log.csv next to --out)")
    _add_setting(p, "--mask-probability")
    _add_setting(p, "--learning-rate")
    _add_setting(p, "--batch-size")
    p.set_defaults(func=_cmd_pretrain)

    p = subs.add_parser("finetune", help="multi-label fine-tuning")
    _add_common(p)
    p.add_argument("--model", required=True, help="input (pretrained) model file")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--dataset", required=True, help="dataset directory from build-dataset")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--checkpoint-dir")
    p.add_argument("--log")
    _add_setting(p, "--learning-rate")
    _add_setting(p, "--batch-size")
    p.set_defaults(func=_cmd_finetune)

    p = subs.add_parser("evaluate", help="metric report on a labeled split")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--test", required=True, help="labeled TSV to evaluate")
    p.add_argument("--labels", help="labels.txt (defaults to the TSV header)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_evaluate)

    p = subs.add_parser("classify", help="predict classes for unseen SMILES")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--input", required=True, help="newline-delimited SMILES")
    p.add_argument("--out", required=True, help="results JSON")
    _add_setting(p, "--top-k")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("explain", help="attention-based explanation report")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--smiles", help="one molecule to explain")
    p.add_argument("--input", help="newline-delimited SMILES to explain")
    p.add_argument("--out", required=True, help="output directory for HTML reports")
    p.add_argument("--layer", type=int, default=-1, help="encoder layer to aggregate")
    p.add_argument("--csv", action="store_true", help="also dump attribution CSVs")
    p.set_defaults(func=_cmd_explain)

    p = subs.add_parser("extend", help="classify and graft into the ontology")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--input", required=True, help="newline-delimited SMILES")
    p.add_argument("--out-ontology", required=True)
    p.add_argument("--out-report", required=True)
    _add_setting(p, "--id-prefix")
    p.set_defaults(func=_cmd_extend)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.write_default_config:
        write_default_config(args.write_default_config)
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        if args.config:
            _require_inputs(args.config)
        cfg = build_run_config(args.config, vars(args))
        args.func(args, cfg)
        return 0
    except tuple(_COMPONENTS) as exc:
        component = next(
            (name for etype, name in _COMPONENTS.items() if isinstance(exc, etype)),
            "cli",
        )
        print(f"ERROR\t{component}\t{exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"ERROR\tcli\t{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
