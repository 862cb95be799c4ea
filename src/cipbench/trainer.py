"""Mini-batch SGD over the encoder, classifier head and centerline bank.

The reference path is single-threaded and fully deterministic given the
seed: encoder init, centerline init and every epoch's permutation all flow
from one generator.  Divergence (non-finite values, centerline norm
blow-up, or centerline collapse onto a single direction / toward zero) is
detected every epoch and aborts training with the last healthy snapshot
attached to the raised error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder as enc
from .data import Dataset
from .losses import (
    CenterlineBank,
    LabeledBatch,
    LinearClassifier,
    LossConfig,
    loss_report,
)
from .retrieval import evaluate_run, pool_descriptors, rank

__all__ = [
    "Checkpoint",
    "DivergenceError",
    "TrainConfig",
    "TrainResult",
    "iterate_batches",
    "load_checkpoint",
    "lr_at",
    "save_checkpoint",
    "sgd_step",
    "train",
]

CENTERLINE_INIT_STD = 0.01

CHECKPOINT_FORMAT_VERSION = 2

HISTORY_FIELDS = ("epoch", "lr", "cluster", "ortho", "softmax", "center", "total", "map")


class DivergenceError(RuntimeError):
    """Training left the healthy regime; carries a diagnostic + last-good state."""

    def __init__(self, message: str, signal: str, epoch: int, last_good: "TrainResult | None", history):
        super().__init__(message)
        self.signal = signal
        self.epoch = epoch
        self.last_good = last_good
        self.history = list(history)


@dataclass
class TrainConfig:
    """Optimization schedule plus the encoder and loss wiring.

    The learning rate starts at ``lr0`` and is divided once by
    ``lr_drop_factor`` at ``lr_drop_epoch``.  Centerlines follow the same
    schedule unless ``centerline_lr`` pins a constant rate; they never
    receive weight decay (decay would shrink them against the pull term).
    """

    batch_size: int = 100
    epochs: int = 30
    lr0: float = 0.01
    lr_drop_epoch: int = 20
    lr_drop_factor: float = 5.0
    momentum: float = 0.0
    weight_decay: float = 2e-4
    centerline_lr: float | None = None  # None -> follow the lr schedule
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    # encoder
    hidden_dims: tuple[int, ...] = (32,)
    embedding_dim: int = 16
    final_activation: str = "identity"
    init_std: float = 0.01
    num_classes: int | None = None  # None -> inferred from the dataset
    # divergence detector (see _detect_divergence for the signal semantics)
    centerline_norm_limit: float = 25.0
    centerline_collapse_cosine: float = 0.95
    collapse_check_epoch: int = 6
    stall_check_epoch: int = 12
    centerline_growth_ratio: float = 3.0
    # optional evaluation cadence (0 = never during training)
    eval_every: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.lr0 <= 0 or self.lr_drop_factor <= 0 or self.lr_drop_epoch < 1:
            raise ValueError("learning-rate schedule fields must be positive")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight_decay must be non-negative")
        if self.centerline_lr is not None and self.centerline_lr <= 0:
            raise ValueError("centerline_lr must be positive when set")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Schedule value: lr0, divided once by the drop factor at the drop epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} out of range [0, {cfg.epochs})")
    if epoch >= cfg.lr_drop_epoch:
        return cfg.lr0 / cfg.lr_drop_factor
    return cfg.lr0


def sgd_step(param: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
             lr: float | np.ndarray, momentum: float = 0.0,
             weight_decay: float | np.ndarray = 0.0) -> None:
    """In-place momentum update: v <- mom*v - lr*(g + wd*p); p <- p + v.

    ``lr`` and ``weight_decay`` are scalars or per-element arrays.
    """
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    velocity *= momentum
    velocity -= lr * (grad + weight_decay * param)
    param += velocity


@dataclass
class TrainResult:
    """Trained state.  ``params``, ``classifier`` and ``bank`` are views of one
    flat buffer (see ``_bind_views``); ``velocity`` is its momentum buffer."""

    params: enc.MlpParams
    bank: CenterlineBank
    classifier: LinearClassifier | None
    velocity: np.ndarray
    history: list[dict]
    epochs_run: int


def _flat(*tensors: np.ndarray) -> np.ndarray:
    return np.concatenate([t.ravel() for t in tensors])


def _bind_views(theta: np.ndarray, spec: enc.MlpSpec, num_classes: int, softmax: bool):
    """Split ``theta`` into reshaped views, in flat-buffer order: encoder
    weights, encoder biases, classifier weights and bias (softmax only),
    centerlines.  Returns ``(params, bank, classifier)``."""
    dims = spec.layer_dims
    shapes = [(dims[l + 1], dims[l]) for l in range(spec.num_layers)]
    shapes += [(dims[l + 1],) for l in range(spec.num_layers)]
    if softmax:
        shapes += [(num_classes, spec.embedding_dim), (num_classes,)]
    shapes.append((num_classes, spec.embedding_dim))
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(theta[start : start + size].reshape(shape))
        start += size
    layers = spec.num_layers
    params = enc.MlpParams(spec, views[:layers], views[layers : 2 * layers])
    classifier = LinearClassifier(*views[2 * layers : -1]) if softmax else None
    return params, CenterlineBank(views[-1]), classifier


def iterate_batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    """One epoch's batches: a fresh permutation cut into consecutive slices."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def _detect_divergence(params: enc.MlpParams, centers: np.ndarray, epoch: int,
                       cfg: TrainConfig, init_norm: float) -> tuple[str, str] | None:
    """Epoch-end health check on the centerline bank.

    Signals (each threshold is a config field):

    * ``non_finite``       - NaN/Inf anywhere in parameters or centerlines;
    * ``centerline_blowup`` - a centerline norm exceeded the hard limit;
    * ``centerline_collapse`` - the bank grew but its directions merged onto
      one line (max pairwise cosine above the collapse threshold); this is
      the pull-only failure mode, so it is checked when the pull term is on;
    * ``centerline_stall`` - a push-only bank (push enabled, no pull) never
      grew beyond its initialization scale: nothing maintains the
      centerlines, they are effectively abandoned.
    """
    if not np.isfinite(centers).all() or any(not np.isfinite(w).all() for w in params.weights):
        return "non_finite", "non-finite parameter values"
    norms = np.linalg.norm(centers, axis=1)
    if norms.max() > cfg.centerline_norm_limit:
        return (
            "centerline_blowup",
            f"max centerline norm {norms.max():.3g} exceeds limit {cfg.centerline_norm_limit:.3g}",
        )
    grown = norms.max() > cfg.centerline_growth_ratio * init_norm
    if cfg.loss.use_cluster and epoch >= cfg.collapse_check_epoch and grown:
        units = centers / np.maximum(norms, 1e-300)[:, None]
        off = (units @ units.T)[~np.eye(len(centers), dtype=bool)]
        if off.max() > cfg.centerline_collapse_cosine:
            return (
                "centerline_collapse",
                f"centerlines collapsed onto one direction "
                f"(max pairwise cosine {off.max():.5f})",
            )
    push_only = (
        cfg.loss.use_ortho
        and cfg.loss.ortho_variant == "centerline"
        and not (cfg.loss.use_cluster or cfg.loss.use_center)
    )
    if push_only and epoch >= cfg.stall_check_epoch and not grown:
        return (
            "centerline_stall",
            f"push-only centerlines never grew past {cfg.centerline_growth_ratio:.3g}x "
            f"their initialization scale (max norm {norms.max():.3g})",
        )
    return None


def _evaluate_map(params: enc.MlpParams, dataset: Dataset) -> float:
    tags = dataset.view_split_tags()
    mask = tags == "test" if (tags == "test").any() else np.ones(dataset.num_views, bool)
    feats, _ = enc.forward_batch(params, dataset.inputs[mask])
    descs, labels, _ = pool_descriptors(feats, dataset.object_ids[mask], dataset.labels[mask])
    return evaluate_run(rank(descs, labels)).micro.map


def train(dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Run the full schedule; returns the trained state plus epoch history.

    Raises DivergenceError when the detector fires; the error carries the
    last healthy snapshot so callers can still persist a checkpoint.
    """
    tags = dataset.view_split_tags()
    train_mask = tags == "train"
    if not train_mask.any():
        raise ValueError("dataset has no training rows")
    inputs = dataset.inputs[train_mask]
    labels = dataset.labels[train_mask]
    n = inputs.shape[0]

    num_classes = cfg.num_classes or int(dataset.labels.max())
    if labels.max() > num_classes:
        raise ValueError("num_classes is smaller than the largest label present")

    rng = np.random.default_rng(cfg.seed)
    spec = enc.MlpSpec.from_dims(
        (dataset.input_dim, *cfg.hidden_dims, cfg.embedding_dim),
        final=cfg.final_activation,
    )
    softmax = cfg.loss.use_softmax
    init = enc.init_params(spec, rng, cfg.init_std)
    bank0 = CenterlineBank.init_gaussian(num_classes, cfg.embedding_dim, CENTERLINE_INIT_STD, rng)
    head = (np.zeros((num_classes, cfg.embedding_dim)), np.zeros(num_classes)) if softmax else ()
    # every trainable value lives in theta; params/classifier/bank are views of it
    theta = _flat(*init.weights, *init.biases, *head, bank0.centers)
    velocity = np.zeros_like(theta)
    params, bank, classifier = _bind_views(theta, spec, num_classes, softmax)
    on_centers = np.arange(theta.size) >= theta.size - bank0.centers.size
    decay = np.where(on_centers, 0.0, cfg.weight_decay)
    init_norm = float(np.linalg.norm(bank0.centers, axis=1).mean())
    history: list[dict] = []

    def snapshot(epochs_run: int) -> TrainResult:
        views = _bind_views(theta.copy(), spec, num_classes, softmax)
        return TrainResult(*views, velocity.copy(), [dict(h) for h in history], epochs_run)

    last_good = snapshot(0)

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        center_lr = cfg.centerline_lr if cfg.centerline_lr is not None else lr
        rates = np.where(on_centers, center_lr, lr)
        term_sums = {"cluster": 0.0, "ortho": 0.0, "softmax": 0.0, "center": 0.0}
        total_sum = 0.0
        batches = iterate_batches(n, cfg.batch_size, rng)

        for batch_idx in batches:
            feats, cache = enc.forward_batch(params, inputs[batch_idx])
            if not np.isfinite(feats).all():
                raise DivergenceError(
                    f"non-finite embeddings at epoch {epoch}",
                    "non_finite", epoch, last_good, history,
                )
            batch = LabeledBatch(feats, labels[batch_idx])
            report = loss_report(batch, bank, cfg.loss, classifier)
            if not np.isfinite(report.total):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}",
                    "non_finite", epoch, last_good, history,
                )
            grads, _ = enc.backward_batch(params, cache, report.feature_grads)
            grad = _flat(*grads.weights, *grads.biases, *(report.classifier_grads or ()),
                         report.center_grads)
            try:
                sgd_step(theta, velocity, grad, rates, cfg.momentum, decay)
            except ValueError as e:
                raise DivergenceError(
                    f"aborting epoch {epoch}: {e}", "non_finite", epoch, last_good, history
                ) from None
            for name in term_sums:
                term_sums[name] += report.per_term[name]
            total_sum += report.total

        row = {"epoch": epoch, "lr": lr, "total": total_sum / len(batches)}
        for name in term_sums:
            row[name] = term_sums[name] / len(batches)
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            row["map"] = _evaluate_map(params, dataset)
        history.append(row)

        verdict = _detect_divergence(params, bank.centers, epoch, cfg, init_norm)
        if verdict is not None:
            signal, detail = verdict
            raise DivergenceError(
                f"divergence detected at epoch {epoch}: {detail}",
                signal, epoch, last_good, history,
            )
        last_good = snapshot(epoch + 1)

    return last_good


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: enc.MlpParams
    bank: CenterlineBank
    classifier: LinearClassifier | None
    velocity: np.ndarray | None
    meta: dict


def save_checkpoint(result: TrainResult, path, meta: dict | None = None) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "encoder": enc.params_to_dict(result.params),
        "centerlines": result.bank.centers.tolist(),
        "classifier": (
            {
                "weights": result.classifier.weights.tolist(),
                "bias": result.classifier.bias.tolist(),
            }
            if result.classifier is not None
            else None
        ),
        "velocity": result.velocity.tolist(),
        "meta": {"epochs_run": result.epochs_run, **(meta or {})},
    }
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file; a malformed one raises a one-line ValueError."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {doc.get('format_version')}")
    for key in ("encoder", "centerlines"):
        if key not in doc:
            raise ValueError(f"{path}: checkpoint has no {key!r} entry")
    params = enc.params_from_dict(doc["encoder"])
    bank = CenterlineBank(np.asarray(doc["centerlines"], dtype=np.float64))
    tensors = [*params.weights, *params.biases, bank.centers]
    clf = None
    if doc.get("classifier") is not None:
        clf = LinearClassifier(
            np.asarray(doc["classifier"]["weights"], dtype=np.float64),
            np.asarray(doc["classifier"]["bias"], dtype=np.float64),
        )
        if clf.weights.shape != bank.centers.shape:
            raise ValueError(
                f"{path}: classifier shape {clf.weights.shape} does not match "
                f"centerlines shape {bank.centers.shape}"
            )
        tensors += [clf.weights, clf.bias]
    velocity = None
    if doc.get("velocity") is not None:
        velocity = np.asarray(doc["velocity"], dtype=np.float64)
        count = sum(t.size for t in tensors)
        if velocity.shape != (count,):
            raise ValueError(f"{path}: velocity has {velocity.size} values for {count} parameters")
    return Checkpoint(
        params=params,
        bank=bank,
        classifier=clf,
        velocity=velocity,
        meta=doc.get("meta", {}),
    )


def history_to_csv(history: list[dict], path) -> None:
    """Write epoch history with stable columns (blank map when not evaluated)."""
    lines = [",".join(HISTORY_FIELDS)]
    for row in history:
        cells = []
        for name in HISTORY_FIELDS:
            v = row.get(name, "")
            cells.append(format(v, ".17g") if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
