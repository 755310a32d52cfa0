"""Run configuration: an INI file of key=value sections, overridable by CLI
flags (flags win).

``SETTINGS`` is the one table of settings: section -> key -> default, and a
value's type is the type of its default.  The ``[model]``, ``[training]`` and
``[masking]`` defaults are read from ``ModelConfig``, ``TrainConfig`` and
``MaskingPolicy``, so each is written once, on the dataclass that uses it.
INI parsing, the unknown-key check, ``--write-default-config`` and the flag
overrides all follow from the table.

The seed is mandatory and never defaults to the clock: its entry is the bare
type ``int``, which marks a setting without a default.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, fields

from .model import ModelConfig
from .training import MaskingPolicy, TrainConfig


class ConfigError(Exception):
    pass


class ConfigValueError(ConfigError):
    """A config value that does not parse or is out of range."""


def _field_defaults(cls, *supplied: str) -> dict[str, object]:
    """The defaults of ``cls``'s fields, except those the run supplies."""
    return {
        f.name: f.default for f in fields(cls)
        if f.default is not MISSING and f.name not in supplied
    }


SETTINGS: dict[str, dict[str, object]] = {
    "dataset": {
        "n_label_classes": 500,
        "min_members": 20,
        "ratio_train": 0.7,
        "ratio_validation": 0.09,
        "ratio_test": 0.21,
    },
    "tokenizer": {
        "target_vocab": 1395,
        "max_len": 512,
        "min_frequency": 2,
    },
    # max_len comes from the tokenizer file and the seed from [run].
    "model": _field_defaults(ModelConfig, "max_len", "seed"),
    "training": {
        "pretrain_epochs": 100,
        "finetune_epochs": 30,
        **_field_defaults(TrainConfig, "seed"),
    },
    "masking": _field_defaults(MaskingPolicy, "seed"),
    "extension": {
        "id_prefix": "ONTOGRAFT:",
        "id_width": 6,
        "top_k": 3,
    },
    "run": {
        "seed": int,
        "threshold": 0.5,
    },
}


def setting_type(key: str) -> type:
    """The type of setting ``key``; keys are unique across sections."""
    for defaults in SETTINGS.values():
        if key in defaults:
            default = defaults[key]
            return default if isinstance(default, type) else type(default)
    raise KeyError(key)


class RunConfig:
    """Resolved settings by section; each key is also an attribute."""

    def __init__(self, sections: dict[str, dict[str, object]]):
        self.sections = sections
        for values in sections.values():
            self.__dict__.update(values)

    def build(self, cls, section: str, **given):
        """``cls`` from the ``[section]`` keys that are its fields, the seed
        and ``given``."""
        names = {f.name for f in fields(cls)}
        values = {k: v for k, v in self.sections[section].items() if k in names}
        return cls(seed=self.seed, **values, **given)


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
        if section not in SETTINGS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in SETTINGS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
        sections[section] = dict(parser[section])
    return sections


def build_run_config(
    config_path: str | None, overrides: dict[str, object]
) -> RunConfig:
    """Merge defaults <- config file <- overrides into a RunConfig.

    Entries of ``overrides`` that name a setting and are not None win; the
    rest are ignored, so an argparse namespace's ``vars`` can be passed whole.
    """
    given = read_config_file(config_path) if config_path else {}
    sections: dict[str, dict[str, object]] = {}
    for section, defaults in SETTINGS.items():
        raw = given.get(section, {})
        values = sections[section] = {}
        for key, default in defaults.items():
            if key in raw:
                values[key] = parse_value(section, key, raw[key], setting_type(key))
            elif not isinstance(default, type):
                values[key] = default
            if overrides.get(key) is not None:
                values[key] = overrides[key]
    if "seed" not in sections["run"]:
        raise ConfigError("a seed is required (config [run] seed or --seed)")
    threshold = sections["run"]["threshold"]
    if not 0.0 < threshold < 1.0:
        raise ConfigValueError(f"threshold must be in (0, 1), got {threshold}")
    for section, key, least in (("training", "batch_size", 1), ("extension", "top_k", 0),
                                ("extension", "id_width", 0)):
        if sections[section][key] < least:
            raise ConfigValueError(
                f"[{section}] {key} must be >= {least}, got {sections[section][key]}")
    return RunConfig(sections)


def write_default_config(path) -> None:
    """Emit the settings table as a config for users to start from."""
    from ._io import atomic_write_text

    lines = [
        "# ontograft configuration (key = value per section; flags override)",
        "# [run] seed is mandatory and has no default.",
    ]
    for section, values in SETTINGS.items():
        lines.append("")
        lines.append(f"[{section}]")
        for key, value in values.items():
            # A setting without a default gets a commented-out example.
            lines.append(f"# {key} = 1234" if isinstance(value, type) else f"{key} = {value}")
    atomic_write_text(path, "\n".join(lines) + "\n")
