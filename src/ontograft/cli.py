"""Command-line interface: one subcommand per pipeline stage.

Every subcommand reads an optional INI config (--config) with flag overrides,
requires an explicit seed, writes outputs atomically, and exits nonzero with
a machine-readable ``ERROR<TAB>component<TAB>message`` line on failure.

Each subcommand is declared once, in ``STAGES``.  Its paths are checked and
its inputs loaded before it runs, so a bad input fails before it writes; a
file operation that fails outside the loaders ends in a ``cli`` error line.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from typing import NamedTuple

import numpy as np

from . import attribution, dataset, extension, metrics, ontology, tokenizer as tok
from ._io import atomic_write_text, read_failure
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
    inference_chunks,
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


def _read_smiles_file(path, need_one: bool = False) -> list[str]:
    """SMILES lines or a dataset TSV's smiles column; a lone header passes unless ``need_one``."""
    with open(path, "r", encoding="utf-8") as fh:
        column = [l.split("\t", 1)[0] for l in fh.read().split("\n") if l.strip()]
    molecules = column[1:] if column[:1] == ["smiles"] else column
    if not column or (need_one and not molecules):
        raise ConfigError(f"{path}: no molecules found")
    return molecules


def _load_model(path):
    """(store, config) of a model file that ends with its last array."""
    store, config, trailing = load_model(path)
    if trailing:
        raise ModelError(f"{path}: {len(trailing)} bytes after the last array")
    return store, config


# Input flag -> (loader, help, the error an unreadable file raises).  Each
# loader looks its function up when it runs, so a replaced module attribute
# (a profiler's wrapper, a test's stub) is the one called.
INPUTS = {
    "ontology": (lambda path: ontology.load_obo(path), "OBO ontology", ontology.OntologyError),
    "tokenizer": (lambda path: tok.Tokenizer.load(path), "tokenizer file from train-tokenizer",
                  tok.TokenizerError),
    "model": (_load_model, "model file", ModelError),
    "dataset": (lambda path: dataset.load_tsv(path), "dataset directory from build-dataset",
                dataset.DatasetError),
    "test": (lambda path: dataset.load_split_tsv(path), "labeled TSV to evaluate",
             dataset.DatasetError),
    "labels": (lambda path: dataset.load_labels(path), "labels.txt, one class id per column",
               dataset.DatasetError),
    "train": (lambda path: _read_smiles_file(path), "training TSV or SMILES file", ConfigError),
    "validation": (lambda path: _read_smiles_file(path), "validation TSV or SMILES file",
                   ConfigError),
    "input": (lambda path: _read_smiles_file(path, need_one=True),
              "TSV or newline-delimited SMILES", ConfigError),
}


class Flag(NamedTuple):
    """``add_argument(flag, **kwargs)``.  An ``output`` flag names a "file" or
    a "directory"; not given, it names its ``default`` file beside --out."""
    flag: str
    kwargs: dict
    output: str | None = None
    default: str | None = None


def _setting(flag: str, help: str | None = None, key: str | None = None) -> Flag:
    """A flag that overrides the setting ``key`` (default: the flag's name)."""
    key = key or flag[2:].replace("-", "_")
    return Flag(flag, {"dest": key, "type": setting_type(key), "help": help})


def _out(help: str, output: str = "file") -> Flag:
    return Flag("--out", {"required": True, "help": help}, output)


class Stage(NamedTuple):
    """A subcommand.  Its inputs (keys of INPUTS) load in the order listed and
    reach ``_cmd_<name>(args, cfg, inputs)`` as attributes of ``inputs``, a
    ``deferred`` one as a function that loads it; ``flags`` in --help order."""
    help: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    deferred: tuple[str, ...] = ()
    flags: tuple[Flag, ...] = ()


_SEED = _setting("--seed", "random seed (mandatory here or in config)")
_THRESHOLD = _setting("--threshold", "classification threshold")
_TRAINING = (
    Flag("--checkpoint-dir", {}, "directory"),
    Flag("--log", {"help": "epoch log CSV (default: training_log.csv next to --out)"}, "file",
         "training_log.csv"),
    _setting("--learning-rate"), _setting("--batch-size"))
# finetune loads its model (360 MB at paper shape) after encoding: a misfit fails first
STAGES = {
    "build-dataset": Stage("ontology -> labeled TSV splits", ("ontology",), flags=(
        _out("output dataset directory", "directory"),
        _setting("--n-labels", key="n_label_classes"), _setting("--min-members"))),
    "train-tokenizer": Stage("learn BPE merges from SMILES", ("input",), flags=(
        _out("tokenizer file"), _setting("--target-vocab"), _setting("--max-len"))),
    "pretrain": Stage("masked-language-model pretraining", ("tokenizer", "train", "labels"),
                      ("validation",), flags=(
        _out("output model file"), _setting("--epochs", key="pretrain_epochs"), *_TRAINING,
        _setting("--mask-probability"))),
    "finetune": Stage("multi-label fine-tuning", ("tokenizer", "model", "dataset"),
                      deferred=("model",), flags=(
        _out("output model file"), _THRESHOLD, _setting("--epochs", key="finetune_epochs"),
        *_TRAINING)),
    "evaluate": Stage("metric report on a labeled split", ("tokenizer", "model", "test"),
                      ("labels",), flags=(
        _out("output directory", "directory"), _THRESHOLD)),
    "classify": Stage("predict classes for unseen SMILES",
                      ("tokenizer", "model", "labels", "input"), flags=(
        _out("results JSON"), _THRESHOLD, _setting("--top-k"))),
    "explain": Stage("attention-based explanation report", ("tokenizer", "model", "labels"),
                     ("input",), flags=(
        _out("output directory for HTML reports", "directory"), _THRESHOLD,
        Flag("--smiles", {"help": "one molecule to explain"}),
        Flag("--layer", {"type": int, "default": -1, "help": "encoder layer to aggregate"}),
        Flag("--csv", {"action": "store_true", "help": "also dump attribution CSVs"}))),
    "extend": Stage("classify and graft into the ontology",
                    ("tokenizer", "model", "labels", "ontology", "input"), flags=(
        _THRESHOLD, Flag("--out-ontology", {"required": True}, "file"),
        Flag("--out-report", {"required": True}, "file"), _setting("--id-prefix"))),
}


def _load_input(key: str, path: str):
    """``INPUTS[key]``'s loader on ``path``; a file it cannot read raises the
    input's own error."""
    load, _, error = INPUTS[key]
    try:
        return load(path)
    except (UnicodeDecodeError, OSError) as exc:
        raise error(read_failure(path, exc)) from exc


def _load_inputs(args) -> argparse.Namespace:
    """The subcommand's inputs, loaded in the declared order (None if not
    given); a deferred input is given as the function that loads it."""
    stage, inputs = STAGES[args.command], {}
    for key in stage.required + stage.optional:
        path = getattr(args, key)
        load = functools.partial(_load_input, key, path)
        inputs[key] = None if path is None else (load if key in stage.deferred else load())
    return argparse.Namespace(**inputs)


def _check_paths(args) -> None:
    """Every given input must exist.  With defaults filled in, no output file may
    be a directory, no output directory a file and no two outputs one path:
    else the stage would fail, or overwrite an output, after all of its work."""
    stage = STAGES[args.command]
    for path in (args.config, *(getattr(args, key) for key in stage.required + stage.optional)):
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"input path does not exist: {path}")
    named = {}  # absolute path -> the flag that names it
    for output in (flag for flag in stage.flags if flag.output):
        dest = output.flag[2:].replace("-", "_")
        if getattr(args, dest) is None and output.default:
            setattr(args, dest, os.path.join(os.path.dirname(os.path.abspath(args.out)),
                                             output.default))
        path, directory = getattr(args, dest), output.output == "directory"
        if path is None:
            continue
        if os.path.exists(path) and os.path.isdir(path) != directory:
            raise ConfigError(f"output path is {'not ' * directory}a directory: {path}")
        other = named.setdefault(os.path.abspath(path), output.flag)
        if other != output.flag:
            raise ConfigError(f"{other} and {output.flag} name the same path: {path}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build_dataset(args, cfg: RunConfig, inputs) -> None:
    graph = inputs.ontology
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
    sizes = {name: len(getattr(splits, name)) for name in ("train", "validation", "test")}
    stats_doc = {
        "n_molecules": stats.n_molecules,
        "per_class_counts": stats.per_class_counts,
        "labels_per_molecule": {str(k): v for k, v in sorted(stats.labels_per_molecule.items())},
        "split_sizes": sizes,
    }
    atomic_write_text(
        os.path.join(args.out, "stats.json"),
        json.dumps(stats_doc, indent=2, sort_keys=True) + "\n",
    )
    logger.info("split sizes: train=%(train)d validation=%(validation)d test=%(test)d", sizes)


def _cmd_train_tokenizer(args, cfg: RunConfig, inputs) -> None:
    trained = tok.train_bpe(
        inputs.input, cfg.target_vocab, max_len=cfg.max_len, min_frequency=cfg.min_frequency
    )
    trained.save(args.out)
    logger.info(
        "trained tokenizer: %d tokens, %d merges", len(trained.vocab), len(trained.merges)
    )


def _cmd_pretrain(args, cfg: RunConfig, inputs) -> None:
    tokenizer = inputs.tokenizer
    policy = cfg.build(MaskingPolicy, "masking")
    tcfg = cfg.build(TrainConfig, "training", epochs=cfg.pretrain_epochs)
    # Encode (without truncation) before the model exists, so a molecule that
    # does not fit fails without allocating it.
    train, validation = (
        [tokenizer.encode(smiles) for smiles in corpus]
        for corpus in (inputs.train, inputs.validation or [])
    )
    mcfg = cfg.build(
        ModelConfig, "model",
        vocab_size=len(tokenizer.vocab), n_labels=len(inputs.labels), max_len=tokenizer.max_len,
    )
    store = init_model(mcfg)
    logger.info(
        "pretraining %d epochs on %d molecules (%d parameters)",
        tcfg.epochs, len(train), store.n_parameters(),
    )
    logs = run_pretrain(
        store, mcfg, tokenizer, train, validation, tcfg, policy,
        checkpoint_dir=args.checkpoint_dir,
    )
    save_model(store, mcfg, args.out)
    append_epoch_logs(args.log, logs)
    if logs:
        logger.info("final train loss %.4f, val loss %.4f", logs[-1].train_loss, logs[-1].val_loss)


def _cmd_finetune(args, cfg: RunConfig, inputs) -> None:
    splits, labels = inputs.dataset
    tcfg = cfg.build(TrainConfig, "training", epochs=cfg.finetune_epochs)
    # no truncation, as in pretraining: an over-length molecule is an error
    encoded = [[inputs.tokenizer.encode(m.smiles) for m in split]
               for split in (splits.train, splits.validation)]
    store, mcfg = inputs.model()
    logger.info(
        "fine-tuning %d epochs on %d molecules, %d labels",
        tcfg.epochs, len(splits.train), len(labels),
    )
    logs = run_finetune(
        store, mcfg, inputs.tokenizer, splits, tcfg,
        checkpoint_dir=args.checkpoint_dir, threshold=cfg.threshold, encoded=encoded,
    )
    save_model(store, mcfg, args.out)
    append_epoch_logs(args.log, logs)
    if logs:
        logger.info(
            "final val loss %.4f, val samples-F1 %.4f",
            logs[-1].val_loss, logs[-1].val_f1_samples,
        )


def _cmd_evaluate(args, cfg: RunConfig, inputs) -> None:
    molecules, labels = inputs.test
    if inputs.labels is not None and inputs.labels != labels:
        # the label columns of the TSV are the header's; another order would
        # score each column against the wrong class
        raise dataset.DatasetError(f"{args.labels} does not match the header of {args.test}")
    store, mcfg = inputs.model
    _, y_score = extension.score_molecules(
        store, mcfg, inputs.tokenizer, labels, [m.smiles for m in molecules], cfg.batch_size
    )
    if not molecules:
        raise metrics.MetricsError("no molecules to evaluate")
    y_true = np.stack([m.labels for m in molecules]).astype(np.int8)
    y_pred = metrics.binarize(y_score, cfg.threshold)
    report = metrics.compute_report(y_true, y_score, cfg.threshold)
    metrics.write_report(
        report, metrics.per_class_f1_rows(y_true, y_pred, labels),
        metrics.per_molecule_f1_rows(y_true, y_pred), args.out,
    )
    for averaging in metrics.AVERAGINGS:
        vals = report.values[averaging]
        logger.info(
            "%s: f1=%.4f precision=%.4f recall=%.4f roc_auc=%.4f",
            averaging, vals["f1"], vals["precision"], vals["recall"], vals["roc_auc"],
        )


def _classify(cfg: RunConfig, inputs) -> list[extension.ClassificationResult]:
    store, mcfg = inputs.model
    return extension.classify_batch(
        store, mcfg, inputs.tokenizer, inputs.labels, inputs.input,
        threshold=cfg.threshold, top_k=cfg.top_k, batch_size=cfg.batch_size,
    )


def _cmd_classify(args, cfg: RunConfig, inputs) -> None:
    results = _classify(cfg, inputs)
    doc = {
        "threshold": cfg.threshold,
        "results": [
            {
                "smiles": r.smiles,
                "accepted": [
                    {"label": cid, "probability": float(r.probabilities[inputs.labels.column(cid)])}
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


def _cmd_explain(args, cfg: RunConfig, inputs) -> None:
    if (args.smiles is None) == (inputs.input is None):
        raise ConfigError("explain needs exactly one of --smiles or --input")
    tokenizer, labels = inputs.tokenizer, inputs.labels
    store, mcfg = inputs.model
    labels.check_fit(mcfg.n_labels)
    attribution.check_layer(args.layer, mcfg.n_layers)
    smiles_list = [args.smiles] if inputs.input is None else inputs.input
    seqs = [tokenizer.encode(smiles, truncate=True) for smiles in smiles_list]
    for smiles, seq in zip(smiles_list, seqs):
        if not attribution.content_positions(seq):
            raise attribution.AttributionError(f"{smiles!r}: sequence has no real tokens")
    os.makedirs(args.out, exist_ok=True)
    # one chunk's attention alive at a time; a molecule's outputs have the
    # bits it gets alone (see model.forward), so the pages do not depend on
    # the chunking
    outputs = (
        (i, output) for chunk in inference_chunks(seqs, mcfg, cfg.batch_size)
        for i, output in zip(chunk, forward(store, mcfg, [seqs[i] for i in chunk],
                                            capture_attention=True))
    )
    for i, output in outputs:
        seq = seqs[i]
        attrib = attribution.token_importance(output.attention, seq, tokenizer, layer=args.layer)
        shares = attribution.head_token_share(output.attention, seq, tokenizer)
        accept = metrics.binarize(output.probabilities, cfg.threshold)
        predictions = [(cid, float(p)) for cid, p, keep
                       in zip(labels.classes, output.probabilities, accept) if keep]
        predictions.sort(key=lambda item: (-item[1], item[0]))
        html_doc = attribution.render_report(
            smiles_list[i], attrib, shares, predictions, threshold=cfg.threshold
        )
        atomic_write_text(os.path.join(args.out, f"explain_{i:04d}.html"), html_doc)
        if args.csv:
            attribution.write_attribution_csv(
                attrib, shares, os.path.join(args.out, f"explain_{i:04d}.csv")
            )
    logger.info("wrote %d explanation report(s) to %s", len(smiles_list), args.out)


def _cmd_extend(args, cfg: RunConfig, inputs) -> None:
    graph, labels = inputs.ontology, inputs.labels
    results = _classify(cfg, inputs)
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
    for name, stage in STAGES.items():
        sub = subs.add_parser(name, help=stage.help)
        sub.add_argument("--config", help="INI config file; flags override it")
        sub.add_argument(_SEED.flag, **_SEED.kwargs)
        for key in stage.required + stage.optional:
            sub.add_argument("--" + key, required=key in stage.required, help=INPUTS[key][1])
        for flag in stage.flags:
            sub.add_argument(flag.flag, **flag.kwargs)
        # looked up now, so a replaced _cmd_* function is the one that runs
        sub.set_defaults(func=globals()["_cmd_" + name.replace("-", "_")])
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
        _check_paths(args)
        cfg = build_run_config(args.config, vars(args))
        args.func(args, cfg, _load_inputs(args))
        return 0
    except (*_COMPONENTS, OSError) as exc:
        component = next(
            (name for etype, name in _COMPONENTS.items() if isinstance(exc, etype)),
            "cli",
        )
        print(f"ERROR\t{component}\t{' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
