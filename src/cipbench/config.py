"""Flat key=value run configuration, derived from the library's dataclasses.

One config file drives a whole pipeline (generate -> train -> eval ->
export/sweep); all randomness flows from the single ``seed`` key.  Unknown
keys are rejected so typos cannot silently fall back to defaults, and so is
a key a file sets twice; a later ``--set`` replaces an earlier one.

The fields of ``SyntheticSpec``, ``LossConfig`` and ``TrainConfig`` are the
only place a default lives: each field is a config key with the field's
default, parsed by its annotation.  Five run keys belong to no dataclass
(``out_dir``, ``train_fraction``, ``loss``, ``f1_cutoff``, ``ndcg_cutoff``),
and the ``loss`` name sets ``TrainConfig.loss`` and the ``use_*`` flags.
Resolving checks the ranges of the keys commands read directly; the
dataclasses check their own fields when built.  Either failure is a
``ConfigError`` that names the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

from .data import SyntheticSpec
from .losses import TERM_NAMES, LossConfig
from .trainer import TrainConfig
from .vectors import KEY_OF_FIELD

__all__ = ["ConfigError", "DEFAULTS", "RunConfig", "config_help_lines", "parse_value"]


class ConfigError(ValueError):
    """Bad config file, key, or value; the CLI maps this to exit code 1."""


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    """Comma-separated ints, none of them empty; ``none`` and the empty
    string (how ``RunConfig.save`` writes ``()``) are no ints."""
    text = text.strip()
    if text in ("", "none"):
        return ()
    return tuple(int(p) for p in text.split(","))


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _auto(parse):
    return lambda text: None if text.strip() == "auto" else parse(text)


# parser of each field annotation, applied to the raw string form
_PARSERS = {int: int, float: _parse_finite, str: str, tuple[int, ...]: _parse_int_tuple}

# fields no key sets directly: the ``loss`` key names the terms to enable
_SET_BY_LOSS_NAME = {"loss", *(f"use_{term}" for term in TERM_NAMES)}


def _keyed_fields(cls):
    """(config key, field) for every field of ``cls`` that a key sets."""
    return [(KEY_OF_FIELD.get(f.name, f.name), f) for f in fields(cls)
            if f.name not in _SET_BY_LOSS_NAME]


def _field_defaults(cls) -> dict[str, tuple]:
    hints = get_type_hints(cls)
    return {key: (f.default, _PARSERS[hints[f.name]]) for key, f in _keyed_fields(cls)}


# (default value, parser) per key; ``seed`` comes from the dataclasses, whose
# ``seed`` fields all take the run seed
DEFAULTS: dict[str, tuple] = {
    "out_dir": ("runs/out", str),
    **_field_defaults(SyntheticSpec),
    "train_fraction": (0.5, _parse_finite),
    "loss": ("cip+softmax", str),
    **_field_defaults(LossConfig),
    **_field_defaults(TrainConfig),
    "f1_cutoff": (None, _auto(int)),
    "ndcg_cutoff": (None, _auto(int)),
}


# range rules of the keys that commands read directly, checked on resolving;
# the dataclasses check their own fields when a command builds them
_RUN_KEY_RULES = {
    "seed": (lambda v: v >= 0, "non-negative"),
    "train_fraction": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "f1_cutoff": (lambda v: v is None or 1 <= v < 2**63, "in [1, 2**63 - 1] or auto"),
    "ndcg_cutoff": (lambda v: v is None or 1 <= v < 2**63, "in [1, 2**63 - 1] or auto"),
}


@dataclass
class RunConfig:
    """Resolved configuration: every DEFAULTS key as an attribute, under its
    field name (``lambda`` is the ``lam`` attribute)."""

    values: dict

    def __getattr__(self, name):
        try:
            return self.values[KEY_OF_FIELD.get(name, name)]
        except KeyError:
            raise AttributeError(name) from None

    @classmethod
    def from_sources(cls, path=None, overrides=()) -> "RunConfig":
        values = {k: v for k, (v, _) in DEFAULTS.items()}
        if path is not None:
            for key, raw, lineno in _read_pairs(Path(path)):
                values[key] = parse_value(key, raw, f"{path}:{lineno}")
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must look like key=value")
            key, raw = item.split("=", 1)
            values[key.strip()] = parse_value(key.strip(), raw.strip(), "--set")
        for key, (ok, rule) in _RUN_KEY_RULES.items():
            if not ok(values[key]):
                raise ConfigError(f"{key} must be {rule}, got {_format(values[key])}")
        return cls(values)

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` (parsed values, by attribute name) in place."""
        return RunConfig({**self.values, **{KEY_OF_FIELD.get(n, n): v for n, v in changes.items()}})

    # ---- builders -------------------------------------------------------

    def _build(self, cls, make=None, **given):
        """``make`` (default ``cls``) called with every key-set field of ``cls``."""
        kwargs = {f.name: self.values[key] for key, f in _keyed_fields(cls)}
        try:
            return (make or cls)(**kwargs, **given)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def synthetic_spec(self) -> SyntheticSpec:
        return self._build(SyntheticSpec)

    def loss_config(self) -> LossConfig:
        return self._build(LossConfig, partial(LossConfig.from_name, self.loss))

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, loss=self.loss_config())

    # ---- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Write the fully resolved config (reproduces this run exactly)."""
        text = "".join(f"{key} = {_format(self.values[key])}\n" for key in DEFAULTS)
        Path(path).write_text(text)


def _format(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def _read_pairs(path: Path):
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot read config file: {path}: {e}") from None
    set_on = {}  # line of each key read so far
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        yield key, raw, lineno


def parse_value(key: str, raw: str, where: str):
    """``raw`` parsed as ``key``'s value; a ``ConfigError`` names ``where`` and ``key``."""
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    _, parser = DEFAULTS[key]
    try:
        return parser(raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: bad value for {key}: {e}") from None


def config_help_lines() -> list[str]:
    """Key/default pairs for --help epilogs."""
    return [f"  {key} = {_format(default)}" for key, (default, _) in DEFAULTS.items()]
