"""Flat key=value run configuration with documented defaults.

One config file drives a whole pipeline (generate -> train -> eval ->
export/sweep); all randomness flows from the single ``seed`` key.  Unknown
keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .data import SyntheticSpec
from .losses import LossConfig
from .trainer import TrainConfig

__all__ = ["ConfigError", "DEFAULTS", "RunConfig", "config_help_lines"]


class ConfigError(ValueError):
    """Bad config file, key, or value; the CLI maps this to exit code 1."""


def _parse_hidden_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "none":
        return ()
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"hidden_dims must be a comma list of ints, got {text!r}") from None


def _parse_auto_float(text: str):
    return None if text.strip() == "auto" else float(text)


def _parse_auto_int(text: str):
    return None if text.strip() == "auto" else int(text)


# (default value, parser) per key; parsers take the raw string form.
# The data/trainer defaults are the standard synthetic benchmark: 10 classes
# of multi-view gaussian clusters embedded into 16 dimensions.
DEFAULTS: dict[str, tuple] = {
    "seed": (0, int),
    "out_dir": ("runs/out", str),
    # synthetic data
    "num_classes": (10, int),
    "objects_per_class": (24, int),
    "views_per_object": (8, int),
    "input_dim": (24, int),
    "class_separation": (2.0, float),
    "object_noise_std": (0.7, float),
    "view_noise_std": (0.35, float),
    "prototype_scheme": ("orthonormal", str),
    "train_fraction": (0.5, float),
    # encoder
    "hidden_dims": ((32,), _parse_hidden_dims),
    "embedding_dim": (16, int),
    "final_activation": ("identity", str),
    "init_std": (0.3, float),
    # loss
    "loss": ("cip+softmax", str),
    "lambda": (1.0, float),
    "d": (2.0, float),
    "softmax_weight": (0.1, float),
    "center_weight": (0.0003, float),
    "ortho_variant": ("centerline", str),
    # trainer
    "batch_size": (50, int),
    "epochs": (30, int),
    "lr0": (0.01, float),
    "lr_drop_epoch": (20, int),
    "lr_drop_factor": (5.0, float),
    "momentum": (0.0, float),
    "weight_decay": (0.0002, float),
    "centerline_lr": (None, _parse_auto_float),
    "centerline_norm_limit": (25.0, float),
    "centerline_collapse_cosine": (0.95, float),
    "collapse_check_epoch": (6, int),
    "stall_check_epoch": (12, int),
    "centerline_growth_ratio": (3.0, float),
    "eval_every": (0, int),
    # evaluation
    "f1_cutoff": (None, _parse_auto_int),
    "ndcg_cutoff": (None, _parse_auto_int),
}


@dataclass
class RunConfig:
    """Resolved configuration: every DEFAULTS key as an attribute.

    The ``lambda`` key (a Python keyword) lands on the ``lam`` attribute.
    """

    values: dict

    def __getattr__(self, name):
        key = "lambda" if name == "lam" else name
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(name) from None

    @classmethod
    def from_sources(cls, path=None, overrides=()) -> "RunConfig":
        values = {k: v for k, (v, _) in DEFAULTS.items()}
        if path is not None:
            for key, raw, lineno in _read_pairs(Path(path)):
                values[key] = _coerce(key, raw, f"{path}:{lineno}")
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must look like key=value")
            key, raw = item.split("=", 1)
            values[key.strip()] = _coerce(key.strip(), raw.strip(), "--set")
        return cls(values)

    # ---- builders -------------------------------------------------------

    def synthetic_spec(self) -> SyntheticSpec:
        try:
            return SyntheticSpec(
                num_classes=self.num_classes,
                objects_per_class=self.objects_per_class,
                views_per_object=self.views_per_object,
                input_dim=self.input_dim,
                class_separation=self.class_separation,
                object_noise_std=self.object_noise_std,
                view_noise_std=self.view_noise_std,
                prototype_scheme=self.prototype_scheme,
                seed=self.seed,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def loss_config(self) -> LossConfig:
        try:
            return LossConfig.from_name(
                self.loss,
                lam=self.lam,
                d=self.d,
                softmax_weight=self.softmax_weight,
                center_weight=self.center_weight,
                ortho_variant=self.ortho_variant,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                batch_size=self.batch_size,
                epochs=self.epochs,
                lr0=self.lr0,
                lr_drop_epoch=self.lr_drop_epoch,
                lr_drop_factor=self.lr_drop_factor,
                momentum=self.momentum,
                weight_decay=self.weight_decay,
                centerline_lr=self.centerline_lr,
                seed=self.seed,
                loss=self.loss_config(),
                hidden_dims=self.hidden_dims,
                embedding_dim=self.embedding_dim,
                final_activation=self.final_activation,
                init_std=self.init_std,
                centerline_norm_limit=self.centerline_norm_limit,
                centerline_collapse_cosine=self.centerline_collapse_cosine,
                collapse_check_epoch=self.collapse_check_epoch,
                stall_check_epoch=self.stall_check_epoch,
                centerline_growth_ratio=self.centerline_growth_ratio,
                eval_every=self.eval_every,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None

    # ---- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Write the fully resolved config (reproduces this run exactly)."""
        lines = []
        for key in DEFAULTS:
            v = self.values[key]
            if v is None:
                text = "auto"
            elif isinstance(v, tuple):
                text = ",".join(str(x) for x in v)
            else:
                text = str(v)
            lines.append(f"{key} = {text}")
        Path(path).write_text("\n".join(lines) + "\n")


def _read_pairs(path: Path):
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        yield key.strip(), raw.strip(), lineno


def _coerce(key: str, raw: str, where: str):
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    _, parser = DEFAULTS[key]
    try:
        return parser(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: bad value for {key}: {e}") from None


def config_help_lines() -> list[str]:
    """Key/default pairs for --help epilogs."""
    out = []
    for key, (default, _) in DEFAULTS.items():
        if default is None:
            shown = "auto"
        elif isinstance(default, tuple):
            shown = ",".join(str(x) for x in default)
        else:
            shown = str(default)
        out.append(f"  {key} = {shown}")
    return out
