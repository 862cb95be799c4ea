"""Mini-batch SGD over the encoder, classifier head and centerline bank.

The reference path is single-threaded and fully deterministic given the
seed: encoder init, centerline init and every epoch's permutation all flow
from one generator.  Divergence (non-finite values, centerline norm
blow-up, or centerline collapse onto a single direction / toward zero) is
detected every epoch and aborts training with the last healthy state
attached to the raised error: ``train`` keeps one copy of ``theta``,
refreshed after each epoch that passes the check, and builds that state
only when it raises.  Training uses the rows outside
``Dataset.test_mask``; ``evaluate_map`` scores ``Dataset.eval_mask``.
``train`` validates its inputs once at entry; each step then runs the
unchecked encoder loops (``encoder.forward_layers`` and
``backward_layers``) and loss kernels (``losses.accumulate_terms``),
writing the gradients straight into views of one flat gradient buffer in
``theta``'s layout, and reuses one feature-gradient buffer.  The momentum
buffer stays local to ``train``, since nothing resumes training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder as enc
from .data import Dataset, write_csv
from .losses import (
    CenterlineBank,
    LinearClassifier,
    TERM_NAMES,
    LossConfig,
    accumulate_terms,
)
from .losses import LabeledBatch, loss_report  # noqa: F401  bench/workloads.py trace slots
from .retrieval import evaluate_run, pool_descriptors, rank
from .vectors import check_fields

__all__ = [
    "Checkpoint",
    "DivergenceError",
    "TrainConfig",
    "TrainResult",
    "evaluate_map",
    "iterate_batches",
    "load_checkpoint",
    "lr_at",
    "save_checkpoint",
    "sgd_step",
    "train",
]

CENTERLINE_INIT_STD = 0.01

# divergence thresholds; _detect_divergence says what each one bounds
CENTERLINE_NORM_LIMIT = 25.0
COLLAPSE_CHECK_EPOCH = 6
STALL_CHECK_EPOCH = 12
CENTERLINE_GROWTH_RATIO = 3.0

CHECKPOINT_FORMAT_VERSION = 5

HISTORY_FIELDS = ("epoch", "lr", *TERM_NAMES, "total", "map")


class DivergenceError(RuntimeError):
    """Training left the healthy regime at ``epoch``; carries a diagnostic, the
    history up to the failure, and ``last_good``, the state after ``epoch``
    healthy epochs with those ``epoch`` history rows."""

    def __init__(self, message: str, signal: str, epoch: int, last_good: "TrainResult", history):
        super().__init__(message)
        self.signal = signal
        self.epoch = epoch
        self.last_good = last_good
        self.history = list(history)

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return type(self), (self.args[0], self.signal, self.epoch, self.last_good, self.history)


@dataclass
class TrainConfig:
    """Optimization schedule plus the encoder widths and loss wiring.

    The learning rate starts at ``lr0`` and is divided once by
    ``lr_drop_factor`` at ``lr_drop_epoch``.  Centerlines follow the same
    schedule; they never receive weight decay (decay would shrink them
    against the pull term).
    Activations and divergence thresholds are fixed; only the collapse cosine
    is a field, which ``cipbench sweep`` sets to 2.0 to turn that check off.
    The defaults are the standard benchmark's, which the CLI derives from,
    except for ``loss``: the CLI's ``loss`` key defaults to ``cip+softmax``,
    while ``TrainConfig()`` trains ``LossConfig()``, the ``cip`` loss.
    """

    batch_size: int = 50
    epochs: int = 30
    lr0: float = 0.01
    lr_drop_epoch: int = 20
    lr_drop_factor: float = 5.0
    momentum: float = 0.0
    weight_decay: float = 2e-4
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    # encoder
    hidden_dims: tuple[int, ...] = (32,)
    embedding_dim: int = 16
    init_std: float = 0.3
    # divergence detector (see _detect_divergence for the signal semantics)
    centerline_collapse_cosine: float = 0.95
    # optional evaluation cadence (0 = never during training)
    eval_every: int = 0

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        check_fields(self, (
            ("batch_size", self.batch_size >= 1, "positive"),
            ("epochs", self.epochs >= 1, "positive"),
            ("lr0", self.lr0 > 0, "positive"),
            ("lr_drop_epoch", self.lr_drop_epoch >= 1, "positive"),
            ("lr_drop_factor", self.lr_drop_factor > 0, "positive"),
            ("momentum", self.momentum >= 0, "non-negative"),
            ("weight_decay", self.weight_decay >= 0, "non-negative"),
            ("seed", self.seed >= 0, "non-negative"),
            ("hidden_dims", all(h >= 1 for h in self.hidden_dims), "positive widths"),
            ("embedding_dim", self.embedding_dim >= 1, "positive"),
            ("init_std", self.init_std >= 0, "non-negative"),
            ("eval_every", self.eval_every >= 0, "non-negative"),
        ))


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
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
        raise ValueError("non-finite gradient")
    step = weight_decay * param
    step += grad
    step *= lr
    velocity *= momentum
    velocity -= step
    param += velocity


@dataclass
class TrainResult:
    """Trained state.  ``theta`` holds every trainable value; ``params``,
    ``classifier`` and ``bank`` are views of it (see ``_bind_views``), and
    the shapes of ``params``' views are the encoder's layout
    (``params.layer_dims``).  ``history`` has one row per epoch run."""

    theta: np.ndarray
    params: enc.MlpParams
    bank: CenterlineBank
    classifier: LinearClassifier | None
    history: list[dict]


def _shapes(dims: tuple[int, ...], num_classes: int, softmax: bool) -> list[tuple[int, ...]]:
    """Tensor shapes in flat-buffer order for encoder layer widths ``dims``:
    encoder weights, encoder biases, classifier weights and bias (softmax
    only), centerlines."""
    shapes = [*zip(dims[1:], dims[:-1]), *((d,) for d in dims[1:])]
    if softmax:
        shapes += [(num_classes, dims[-1]), (num_classes,)]
    return shapes + [(num_classes, dims[-1])]


def _bind_views(theta: np.ndarray, dims: tuple[int, ...], num_classes: int, softmax: bool):
    """Split ``theta``, of exactly the ``_shapes`` size, into reshaped views in
    that order.  Returns ``(params, bank, classifier)``."""
    shapes = _shapes(dims, num_classes, softmax)
    count = sum(math.prod(shape) for shape in shapes)
    if theta.shape != (count,):
        raise ValueError(f"theta has shape {theta.shape}, the layout needs ({count},)")
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(theta[start : start + size].reshape(shape))
        start += size
    layers = len(dims) - 1
    params = enc.MlpParams(views[:layers], views[layers : 2 * layers])
    classifier = LinearClassifier(*views[2 * layers : -1]) if softmax else None
    return params, CenterlineBank(views[-1]), classifier


def iterate_batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    """One epoch's batches: a fresh permutation cut into consecutive slices."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def _detect_divergence(theta: np.ndarray, centers: np.ndarray, epoch: int,
                       cfg: TrainConfig, init_norm: float) -> tuple[str, str] | None:
    """Epoch-end health check on the flat trainable buffer ``theta`` and its
    centerline view ``centers``.

    Signals, with the module constants as thresholds:

    * ``non_finite``       - NaN/Inf anywhere in ``theta``: encoder weights
      and biases, classifier head, centerlines;
    * ``centerline_blowup`` - a centerline norm exceeded ``CENTERLINE_NORM_LIMIT``;
    * ``centerline_collapse`` - from ``COLLAPSE_CHECK_EPOCH``, the bank grew
      (max norm over ``CENTERLINE_GROWTH_RATIO`` x the initial mean norm) but
      its directions merged onto one line (max pairwise cosine above
      ``cfg.centerline_collapse_cosine``); this is the pull-only failure
      mode, so it is checked when the pull term is on;
    * ``centerline_stall`` - from ``STALL_CHECK_EPOCH``, a push-only bank
      (push enabled, no pull) has not grown: nothing maintains the
      centerlines, they are effectively abandoned.
    """
    if not np.isfinite(theta).all():
        return "non_finite", "non-finite parameter values"
    norms = np.linalg.norm(centers, axis=1)
    if norms.max() > CENTERLINE_NORM_LIMIT:
        return (
            "centerline_blowup",
            f"max centerline norm {norms.max():.3g} exceeds limit {CENTERLINE_NORM_LIMIT:.3g}",
        )
    grown = norms.max() > CENTERLINE_GROWTH_RATIO * init_norm
    if cfg.loss.use_cluster and epoch >= COLLAPSE_CHECK_EPOCH and grown:
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
    if push_only and epoch >= STALL_CHECK_EPOCH and not grown:
        return (
            "centerline_stall",
            f"push-only centerlines never grew past {CENTERLINE_GROWTH_RATIO:.3g}x "
            f"their initialization scale (max norm {norms.max():.3g})",
        )
    return None


def evaluate_map(params: enc.MlpParams, dataset: Dataset) -> float:
    """Micro MAP of leave-one-out retrieval over ``dataset.eval_mask()``."""
    mask = dataset.eval_mask()
    feats, _ = enc.forward_batch(params, dataset.inputs[mask])
    descs, labels, _ = pool_descriptors(feats, dataset.object_ids[mask], dataset.labels[mask])
    return evaluate_run(rank(descs, labels)).micro.map


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is the detector's to report
def train(dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Run the full schedule; returns the trained state plus epoch history.

    Raises DivergenceError when the detector fires; the error carries the
    last healthy state so callers can still persist a checkpoint.  A
    dataset that ``Dataset.check_trainable`` refuses, or with
    ``eval_every`` set one that cannot be scored, is a ValueError before
    the first epoch.
    """
    dataset.check_trainable("dataset")
    if cfg.eval_every:
        dataset.check_scorable("dataset")
    train_mask = ~dataset.test_mask()
    inputs = dataset.inputs[train_mask]
    # a Dataset's labels are contiguous in [1, K]: no step checks them again
    labels0 = dataset.labels[train_mask] - 1
    n = inputs.shape[0]

    num_classes = dataset.num_classes

    rng = np.random.default_rng(cfg.seed)
    dims = (dataset.input_dim, *cfg.hidden_dims, cfg.embedding_dim)
    softmax = cfg.loss.use_softmax
    # every trainable value lives in theta (classifier head starts at zero)
    theta = np.zeros(sum(math.prod(shape) for shape in _shapes(dims, num_classes, softmax)))
    velocity = np.zeros_like(theta)
    params, bank, classifier = _bind_views(theta, dims, num_classes, softmax)
    # each step writes its gradient into views of one buffer in theta's layout
    grad = np.zeros_like(theta)
    grad_params, grad_bank, grad_classifier = _bind_views(grad, dims, num_classes, softmax)
    fgrads_full = np.empty((min(cfg.batch_size, n), cfg.embedding_dim))  # the largest batch
    init = enc.init_params(dims, rng, cfg.init_std)
    for view, value in zip((*params.weights, *params.biases), (*init.weights, *init.biases)):
        view[...] = value
    bank.centers[...] = CenterlineBank.init_gaussian(
        num_classes, cfg.embedding_dim, CENTERLINE_INIT_STD, rng).centers
    on_centers = np.arange(theta.size) >= theta.size - bank.centers.size
    decay = np.where(on_centers, 0.0, cfg.weight_decay)
    init_norm = float(np.linalg.norm(bank.centers, axis=1).mean())
    history: list[dict] = []
    good = theta.copy()  # theta after the last epoch that passed the detector

    def diverged(message: str, signal: str = "non_finite") -> DivergenceError:
        last_good = TrainResult(good, *_bind_views(good, dims, num_classes, softmax),
                                history[:epoch])
        return DivergenceError(message, signal, epoch, last_good, history)

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        term_sums = dict.fromkeys(TERM_NAMES, 0.0)
        total_sum = 0.0
        batches = iterate_batches(n, cfg.batch_size, rng)

        for batch_idx in batches:
            outputs = enc.forward_layers(params.weights, params.biases, inputs[batch_idx])
            feats = outputs[-1]
            if not np.logical_and.reduce(np.isfinite(feats), axis=None):
                raise diverged(f"non-finite embeddings at epoch {epoch}")
            fgrads = fgrads_full[: batch_idx.size]
            fgrads.fill(0.0)
            grad_bank.centers.fill(0.0)
            total, per_term = accumulate_terms(feats, labels0[batch_idx], bank.centers, cfg.loss,
                                               classifier, fgrads, grad_bank.centers,
                                               grad_classifier)
            if not math.isfinite(total):
                raise diverged(f"non-finite loss at epoch {epoch}")
            enc.backward_layers(params.weights, outputs, fgrads, grad_params.weights,
                                grad_params.biases)
            try:
                sgd_step(theta, velocity, grad, lr, cfg.momentum, decay)
            except ValueError as e:
                raise diverged(f"aborting epoch {epoch}: {e}") from None
            for name in term_sums:
                term_sums[name] += per_term[name]
            total_sum += total

        row = {"epoch": epoch, "lr": lr, "total": total_sum / len(batches)}
        for name in term_sums:
            row[name] = term_sums[name] / len(batches)
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            row["map"] = evaluate_map(params, dataset)
        history.append(row)

        verdict = _detect_divergence(theta, bank.centers, epoch, cfg, init_norm)
        if verdict is not None:
            signal, detail = verdict
            raise diverged(f"divergence detected at epoch {epoch}: {detail}", signal)
        np.copyto(good, theta)

    return TrainResult(theta, params, bank, classifier, history)


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint(TrainResult):
    """A checkpoint file's ``TrainResult`` (with an empty history) plus its
    ``meta``, carried as the file gives it."""

    meta: dict


# JSON type of each entry after ``format_version``, in file order
_CHECKPOINT_ENTRIES = {"layer_dims": list, "num_classes": int, "classifier": bool,
                       "theta": list, "meta": dict}


def save_checkpoint(result: TrainResult, path, meta: dict | None = None) -> None:
    """Write the layout, then ``theta`` as a flat list; ``meta`` records the
    epochs run as the history length, then the given entries."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_dims": list(result.params.layer_dims),
        "num_classes": result.bank.num_classes,
        "classifier": result.classifier is not None,
        "theta": result.theta.tolist(),
        "meta": {"epochs_run": len(result.history), **(meta or {})},
    }
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file; a malformed one raises a one-line ValueError
    that starts with the file's path."""
    try:
        return _checkpoint_from_dict(json.loads(Path(path).read_text()))
    except (ValueError, RecursionError) as e:  # RecursionError: JSON nested too deeply
        raise ValueError(f"{path}: {e}") from None


def _checkpoint_from_dict(doc) -> Checkpoint:
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {doc.get('format_version')}")
    # decoded JSON values have exact types, so a boolean is not an int here
    for key, kind in _CHECKPOINT_ENTRIES.items():
        if key not in doc:
            raise ValueError(f"checkpoint has no {key!r} entry")
        if type(doc[key]) is not kind:
            raise ValueError(f"checkpoint {key!r} entry is not of type {kind.__name__}")
    if not all(type(d) is int for d in doc["layer_dims"]):
        raise ValueError("checkpoint 'layer_dims' entry is not a list of integers")
    dims = enc.check_layer_dims(doc["layer_dims"])
    if doc["num_classes"] < 2:
        raise ValueError(f"checkpoint 'num_classes' entry must be at least 2, "
                         f"got {doc['num_classes']}")
    if not all(type(x) in (int, float) for x in doc["theta"]):
        raise ValueError("theta is not an array of numbers")
    try:
        theta = np.array(doc["theta"], dtype=np.float64)
    except OverflowError:  # an integer past the float64 range
        raise ValueError("theta contains non-finite values") from None
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite values")
    views = _bind_views(theta, dims, doc["num_classes"], doc["classifier"])
    return Checkpoint(theta, *views, [], doc["meta"])


def history_to_csv(history: list[dict], path) -> None:
    """Write epoch history with stable columns (blank map when not evaluated)."""
    write_csv(path, HISTORY_FIELDS, ([row.get(name, "") for name in HISTORY_FIELDS] for row in history))
