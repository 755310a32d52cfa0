"""Run configuration: an INI file of key=value sections, overridable by CLI
flags (flags win).  Defaults follow the reference hyperparameters where the
source states them; everything else is declared here.

The seed is mandatory and never defaults to the clock.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .model import ModelError


class ConfigError(Exception):
    pass


class ConfigValueError(ConfigError):
    """A config value that does not parse or is out of range."""


DEFAULTS: dict[str, dict[str, str]] = {
    "dataset": {
        "n_label_classes": "500",
        "min_members": "20",
        "ratio_train": "0.7",
        "ratio_validation": "0.09",
        "ratio_test": "0.21",
    },
    "tokenizer": {
        "target_vocab": "1395",
        "max_len": "512",
        "min_frequency": "2",
    },
    "model": {
        "n_layers": "6",
        "n_heads": "12",
        "hidden_dim": "768",
        "ffn_dim": "3072",
        "attention_dropout": "0.1",
        "activation": "gelu",
        "mlm_loss": "cross_entropy",
        "dtype": "float64",
    },
    "training": {
        "pretrain_epochs": "100",
        "finetune_epochs": "30",
        "batch_size": "4",
        "learning_rate": "1e-4",
        "weight_decay": "0.01",
        "checkpoint_every": "0",
    },
    "masking": {
        "mask_probability": "0.15",
        "mask_fraction": "0.8",
        "random_fraction": "0.1",
        "keep_fraction": "0.1",
    },
    "extension": {
        "id_prefix": "ONTOGRAFT:",
        "id_width": "6",
        "top_k": "3",
    },
    "run": {
        "threshold": "0.5",
        # seed: intentionally no default
    },
}


@dataclass
class RunConfig:
    """Flattened view of the configuration all subcommands draw from."""

    seed: int
    threshold: float = 0.5
    # dataset
    n_label_classes: int = 500
    min_members: int = 20
    ratios: tuple[float, float, float] = (0.7, 0.09, 0.21)
    # tokenizer
    target_vocab: int = 1395
    max_len: int = 512
    min_frequency: int = 2
    # model
    n_layers: int = 6
    n_heads: int = 12
    hidden_dim: int = 768
    ffn_dim: int = 3072
    attention_dropout: float = 0.1
    activation: str = "gelu"
    mlm_loss: str = "cross_entropy"
    dtype: str = "float64"
    # training
    pretrain_epochs: int = 100
    finetune_epochs: int = 30
    batch_size: int = 4
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    checkpoint_every: int = 0
    # masking
    mask_probability: float = 0.15
    mask_fraction: float = 0.8
    random_fraction: float = 0.1
    keep_fraction: float = 0.1
    # extension
    id_prefix: str = "ONTOGRAFT:"
    id_width: int = 6
    top_k: int = 3

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigValueError(f"threshold must be in (0, 1), got {self.threshold}")


def parse_value(section: str, key: str, raw: str, kind: type):
    """``kind(raw)`` for an INI value; a malformed value names its key."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigValueError(
            f"[{section}] {key}: invalid {kind.__name__} value {raw!r}"
        ) from None


def read_config_file(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = DEFAULTS[section]
        for key in parser[section]:
            if key not in known and not (section == "run" and key == "seed"):
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
        sections[section] = dict(parser[section])
    return sections


def build_run_config(
    config_path: str | None, overrides: dict[str, object]
) -> RunConfig:
    """Merge defaults <- config file <- flag overrides into a RunConfig.

    ``overrides`` uses RunConfig field names; None values are ignored.
    """
    merged: dict[str, dict[str, str]] = {s: dict(v) for s, v in DEFAULTS.items()}
    if config_path:
        for section, values in read_config_file(config_path).items():
            merged[section].update(values)

    def get(section, key, kind=str):
        return parse_value(section, key, merged[section][key], kind)

    values: dict[str, object] = {
        "threshold": get("run", "threshold", float),
        "n_label_classes": get("dataset", "n_label_classes", int),
        "min_members": get("dataset", "min_members", int),
        "ratios": (
            get("dataset", "ratio_train", float),
            get("dataset", "ratio_validation", float),
            get("dataset", "ratio_test", float),
        ),
        "target_vocab": get("tokenizer", "target_vocab", int),
        "max_len": get("tokenizer", "max_len", int),
        "min_frequency": get("tokenizer", "min_frequency", int),
        "n_layers": get("model", "n_layers", int),
        "n_heads": get("model", "n_heads", int),
        "hidden_dim": get("model", "hidden_dim", int),
        "ffn_dim": get("model", "ffn_dim", int),
        "attention_dropout": get("model", "attention_dropout", float),
        "activation": get("model", "activation"),
        "mlm_loss": get("model", "mlm_loss"),
        "dtype": get("model", "dtype"),
        "pretrain_epochs": get("training", "pretrain_epochs", int),
        "finetune_epochs": get("training", "finetune_epochs", int),
        "batch_size": get("training", "batch_size", int),
        "learning_rate": get("training", "learning_rate", float),
        "weight_decay": get("training", "weight_decay", float),
        "checkpoint_every": get("training", "checkpoint_every", int),
        "mask_probability": get("masking", "mask_probability", float),
        "mask_fraction": get("masking", "mask_fraction", float),
        "random_fraction": get("masking", "random_fraction", float),
        "keep_fraction": get("masking", "keep_fraction", float),
        "id_prefix": get("extension", "id_prefix"),
        "id_width": get("extension", "id_width", int),
        "top_k": get("extension", "top_k", int),
    }
    if "seed" in merged["run"]:
        values["seed"] = get("run", "seed", int)

    valid_names = {f.name for f in fields(RunConfig)}
    for key, value in overrides.items():
        if key not in valid_names:
            raise ConfigError(f"unknown override {key!r}")
        if value is not None:
            values[key] = value
    if "seed" not in values or values["seed"] is None:
        raise ConfigError("a seed is required (config [run] seed or --seed)")
    try:
        return RunConfig(**values)  # type: ignore[arg-type]
    except (TypeError, ValueError, ModelError) as exc:
        raise ConfigError(str(exc)) from exc


def write_default_config(path) -> None:
    """Emit the documented default config for users to start from."""
    from ._io import atomic_write_text

    lines = [
        "# ontograft configuration (key = value per section; flags override)",
        "# [run] seed is mandatory and has no default.",
    ]
    for section, values in DEFAULTS.items():
        lines.append("")
        lines.append(f"[{section}]")
        if section == "run":
            lines.append("# seed = 1234")
        for key, value in values.items():
            lines.append(f"{key} = {value}")
    atomic_write_text(path, "\n".join(lines) + "\n")
