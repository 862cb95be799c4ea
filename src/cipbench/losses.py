"""Inner-product embedding losses with hand-derived surrogate gradients.

The combined objective couples a pull term (each feature is rewarded for a
large inner product with its own class centerline) with a push term
(features are penalised for positive inner products with other classes'
centerlines, or with other-class features in the batch variant).  Each term
is one array kernel that adds its gradients into the caller's arrays, and
``accumulate_terms`` runs the enabled ones on plain arrays with no checks:
``trainer.train`` validates its inputs once at entry and then calls it on
every batch.  The public functions (``pull_term``, ``push_term``,
``push_batch_term``, ``softmax_ce``, ``center_loss`` and their weighted sum
``loss_report``) validate, then call the same kernels.  All gradients are
closed forms, not autodiff.  Two of them are deliberately not the true
derivatives:

* the pull gradients clip the inner product at zero, which bounds the update
  magnitude near the 1/x pole of the unclipped form;
* the push gradient on a centerline averages the violating features
  (denominator ``1 + count``) instead of summing them.

Conventions: class labels are 1-based, class k owns centerline row k-1, and
batch losses are sums over the batch, so gradient scale grows with batch
size by design.  The pull value is evaluated with the same clipping as its
gradient, keeping reported loss curves consistent with the updates actually
applied.  The literal unclipped forms and per-sample reference gradients
live in ``tests/oracles.py``, where the tests check these functions against
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vectors import as_vector, check_fields

__all__ = [
    "CenterlineBank",
    "LabeledBatch",
    "LinearClassifier",
    "LossConfig",
    "LossReport",
    "accumulate_terms",
    "center_loss",
    "loss_report",
    "normalized_weight_gradient",
    "pull_term",
    "push_batch_term",
    "push_term",
    "softmax_ce",
]

ORTHO_VARIANTS = ("centerline", "batch")

# the loss terms in ``loss_report``'s order (``LossConfig.use_<term>`` enables one)
TERM_NAMES = ("cluster", "ortho", "softmax", "center")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class LabeledBatch:
    """M features (rows) with 1-based class labels.

    Gradient routing is positional: row i of any per-feature gradient array
    belongs to ``features[i]``.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be (M, n), got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a 1-D array aligned with features rows")
        if not np.isfinite(self.features).all():
            raise ValueError("batch features contain non-finite values")
        if self.features.shape[0] > 0 and self.labels.min() < 1:
            raise ValueError("labels are 1-based and must be >= 1")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class CenterlineBank:
    """K learnable direction vectors, one per class (row k-1 for class k)."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2:
            raise ValueError(f"centers must be (K, n), got shape {self.centers.shape}")
        if self.centers.shape[0] < 2:
            raise ValueError("a centerline bank needs at least 2 classes")
        if not np.isfinite(self.centers).all():
            raise ValueError("centerlines contain non-finite values")

    @classmethod
    def init_gaussian(cls, num_classes: int, dim: int, std: float = 0.01, rng=None):
        """Fresh bank drawn from N(0, std^2), the standard starting point."""
        rng = np.random.default_rng(rng)
        return cls(rng.normal(0.0, std, size=(num_classes, dim)))

    @property
    def num_classes(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


@dataclass
class LinearClassifier:
    """K x n softmax head (weights plus per-class bias)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("classifier needs (K, n) weights and (K,) bias")


@dataclass
class LossConfig:
    """Which terms are active and how they are weighted.

    ``lam`` scales the push term against the pull term; ``d`` is the
    pull-term stability constant and must stay positive.  ``softmax_weight``
    and ``center_weight`` scale the auxiliary terms when those are enabled.
    """

    lam: float = 1.0
    d: float = 2.0
    softmax_weight: float = 0.1
    center_weight: float = 0.0003
    ortho_variant: str = "centerline"
    use_cluster: bool = True
    use_ortho: bool = True
    use_softmax: bool = False
    use_center: bool = False

    def __post_init__(self):
        check_fields(self, (
            ("lam", self.lam >= 0, "non-negative"),
            ("d", self.d > 0, "positive"),
            ("softmax_weight", self.softmax_weight >= 0, "non-negative"),
            ("center_weight", self.center_weight >= 0, "non-negative"),
            ("ortho_variant", self.ortho_variant in ORTHO_VARIANTS, f"one of {ORTHO_VARIANTS}"),
        ))
        if not any(getattr(self, f"use_{term}") for term in TERM_NAMES):
            raise ValueError("at least one loss term must be enabled")

    @classmethod
    def from_name(cls, name: str, **overrides) -> "LossConfig":
        """Build a config from a combination name like ``cip+softmax``: each
        ``+``-separated token (case and outer spaces ignored) is one of
        ``TERM_NAMES`` or ``cip`` (cluster + ortho); ``overrides`` are fields."""
        enabled = set()
        for token in name.lower().split("+"):
            token = token.strip()
            terms = ("cluster", "ortho") if token == "cip" else (token,)
            if not set(terms) <= set(TERM_NAMES):
                raise ValueError(f"unknown loss term {token!r} in combination {name!r}")
            enabled.update(terms)
        return cls(**{**{f"use_{term}": term in enabled for term in TERM_NAMES}, **overrides})


@dataclass
class LossReport:
    """One batch evaluation: term values plus gradients of the weighted total.

    ``per_term`` holds unweighted term values (0.0 for disabled terms);
    ``total`` applies the configured weights.  Gradient arrays are gradients
    of ``total`` and are zero wherever no enabled term touches a parameter.
    """

    total: float
    per_term: dict[str, float]
    feature_grads: np.ndarray
    center_grads: np.ndarray
    classifier_grads: tuple[np.ndarray, np.ndarray] | None = None


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _check_batch_bank(batch: LabeledBatch, bank: CenterlineBank):
    if batch.dim != bank.dim:
        raise ValueError(f"feature dim {batch.dim} != centerline dim {bank.dim}")
    if batch.size and (batch.labels.min() < 1 or batch.labels.max() > bank.num_classes):
        raise ValueError(
            f"labels must lie in [1, {bank.num_classes}], got range "
            f"[{batch.labels.min()}, {batch.labels.max()}]"
        )


def _check_classifier(batch: LabeledBatch, classifier: LinearClassifier):
    if classifier.weights.shape[1] != batch.dim:
        raise ValueError("classifier width does not match feature dim")
    num_classes = classifier.weights.shape[0]
    if batch.labels.max(initial=1) > num_classes:
        raise ValueError(f"labels must lie in [1, {num_classes}]")


# ---------------------------------------------------------------------------
# array kernels: no validation; ``labels0`` holds 0-based labels in [0, K)
# and gradients are added into the caller's arrays.  Reductions call the
# ufunc's reduce, which is what np.sum, np.mean and ndarray.max run, without
# their Python wrappers.
# ---------------------------------------------------------------------------


def _pull(feats, labels0, centers, d, fgrads, cgrads) -> float:
    own = centers[labels0]
    denom = np.maximum(np.einsum("ij,ij->i", feats, own), 0.0) + d
    scale = (1.0 / denom**2)[:, None]
    fgrads -= own * scale
    np.subtract.at(cgrads, labels0, feats * scale)
    return float(np.add.reduce(1.0 / denom))


def _push(feats, labels0, centers, weight, fgrads, cgrads) -> float:
    prods = feats @ centers.T
    active = prods > 0.0
    active[np.arange(feats.shape[0]), labels0] = False
    fgrads += weight * (active @ centers)
    cgrads += weight * (active.T @ feats) / (1.0 + np.add.reduce(active, axis=0))[:, None]
    return float(np.add.reduce(prods[active]))


def _push_batch(feats, labels0, weight, fgrads) -> float:
    grams = feats @ feats.T
    active = (grams > 0.0) & (labels0[:, None] != labels0[None, :])
    fgrads += weight * 2.0 * (active @ feats)
    return float(np.add.reduce(grams[active]))


def _softmax(feats, labels0, classifier, weight, fgrads, clf_grads) -> float:
    # the classifier gradients are written, not added: no other term has any
    m = feats.shape[0]
    logits = feats @ classifier.weights.T + classifier.bias
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(shifted), axis=1))
    rows = np.arange(m)
    loss = float(np.add.reduce(logz - shifted[rows, labels0]) / m)
    dlogits = np.exp(shifted - logz[:, None])
    dlogits[rows, labels0] -= 1.0
    dlogits /= m
    fgrads += weight * (dlogits @ classifier.weights)
    np.multiply(weight, dlogits.T @ feats, out=clf_grads.weights)
    np.multiply(weight, np.add.reduce(dlogits, axis=0), out=clf_grads.bias)
    return loss


def _center(feats, labels0, centers, weight, fgrads, cgrads) -> float:
    diff = feats - centers[labels0]
    loss = 0.5 * float(np.add.reduce(diff * diff, axis=None))
    damped = np.zeros_like(centers)
    np.add.at(damped, labels0, -diff)
    damped /= (1.0 + np.bincount(labels0, minlength=centers.shape[0]))[:, None]
    fgrads += weight * diff
    cgrads += weight * damped
    return loss


def accumulate_terms(feats, labels0, centers, cfg: LossConfig, classifier, fgrads, cgrads,
                     clf_grads) -> tuple[float, dict[str, float]]:
    """Every enabled term of ``cfg`` on plain arrays, with no validation.

    ``feats`` is (M, n), ``labels0`` the 0-based labels in [0, K) and
    ``centers`` (K, n).  The gradients of the weighted total are added
    into ``fgrads`` (M, n) and ``cgrads`` (K, n), which must hold zeros on
    entry; with softmax on, ``classifier`` is the head and its gradients
    are written into the arrays of ``clf_grads``, a ``LinearClassifier`` of
    the same shapes.  Returns ``(total, per_term)`` as in ``LossReport``.
    ``total`` starts at 0.0 and adds each enabled term times its weight, in
    ``TERM_NAMES`` order: pull (1), push (``lam``), softmax
    (``softmax_weight``) and center (``center_weight``).
    """
    per_term = dict.fromkeys(TERM_NAMES, 0.0)
    total = 0.0
    if cfg.use_cluster:
        per_term["cluster"] = _pull(feats, labels0, centers, cfg.d, fgrads, cgrads)
        total += per_term["cluster"]
    if cfg.use_ortho:
        if cfg.ortho_variant == "batch":
            per_term["ortho"] = _push_batch(feats, labels0, cfg.lam, fgrads)
        else:
            per_term["ortho"] = _push(feats, labels0, centers, cfg.lam, fgrads, cgrads)
        total += cfg.lam * per_term["ortho"]
    if cfg.use_softmax:
        per_term["softmax"] = _softmax(feats, labels0, classifier, cfg.softmax_weight, fgrads, clf_grads)
        total += cfg.softmax_weight * per_term["softmax"]
    if cfg.use_center:
        per_term["center"] = _center(feats, labels0, centers, cfg.center_weight, fgrads, cgrads)
        total += cfg.center_weight * per_term["center"]
    return total, per_term


# ---------------------------------------------------------------------------
# CIP terms: validate, then run the kernel
# ---------------------------------------------------------------------------


def _identity(like: np.ndarray) -> np.ndarray:
    """A buffer of -0.0, the exact additive identity (-0.0 + x is x, bit for
    bit, for every x, where 0.0 + -0.0 is 0.0): a kernel's sum into it
    returns the bits of the term's gradient expression itself."""
    return np.full_like(like, -0.0)


def pull_term(batch: LabeledBatch, bank: CenterlineBank, d: float):
    """Pull term sum_i 1 / ((f_i . c_{y_i})_+ + d) with its clipped gradients.

    Returns ``(value, feature_grads, center_grads)``.  Row i of the feature
    gradients is -c_{y_i} / ((f_i . c_{y_i})_+ + d)^2, bounded by |c|/d^2;
    centerline k receives the sum of -f_j / ((f_j . c_k)_+ + d)^2 over its
    members j.  The value is clipped the same way as the gradients.
    """
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    _check_batch_bank(batch, bank)
    # the centerline sum starts from 0.0, as it always has
    fgrads, cgrads = _identity(batch.features), np.zeros_like(bank.centers)
    value = _pull(batch.features, batch.labels - 1, bank.centers, d, fgrads, cgrads)
    return value, fgrads, cgrads


def push_term(batch: LabeledBatch, bank: CenterlineBank, weight: float = 1.0):
    """Push term sum_i sum_{k != y_i} max(f_i . c_k, 0) and its gradients.

    Returns ``(value, feature_grads, center_grads)``: the unweighted value
    and the gradients of ``weight * value``.  A feature's gradient is the
    sum of the other-class centerlines it overlaps (the hinge subgradient is
    0).  A centerline's gradient is the surrogate (sum of its violators) /
    (1 + violator count), which bounds its norm by the largest violator's;
    ``weight`` is applied before that division.
    """
    _check_batch_bank(batch, bank)
    fgrads, cgrads = _identity(batch.features), _identity(bank.centers)
    value = _push(batch.features, batch.labels - 1, bank.centers, weight, fgrads, cgrads)
    return value, fgrads, cgrads


def push_batch_term(batch: LabeledBatch, weight: float = 1.0):
    """Centerline-free push term over ordered cross-class feature pairs.

    Returns ``(value, feature_grads)``: the unweighted sum of max(f_i . f_j, 0)
    over ordered pairs with different labels, and the gradient of
    ``weight * value``.  Each unordered pair appears twice, so a feature's
    gradient is 2 * the sum of the other-class features it overlaps.
    """
    fgrads = _identity(batch.features)
    return _push_batch(batch.features, batch.labels - 1, weight, fgrads), fgrads


# ---------------------------------------------------------------------------
# baseline losses
# ---------------------------------------------------------------------------


def softmax_ce(batch: LabeledBatch, classifier: LinearClassifier):
    """Mean cross-entropy of a linear softmax head over the batch.

    Returns ``(loss, (feature_grads, weight_grads, bias_grads))`` where the
    gradients are exact derivatives of the mean cross-entropy.
    """
    _check_classifier(batch, classifier)
    fgrads = _identity(batch.features)
    grads = LinearClassifier(np.empty_like(classifier.weights), np.empty_like(classifier.bias))
    loss = _softmax(batch.features, batch.labels - 1, classifier, 1.0, fgrads, grads)
    return loss, (fgrads, grads.weights, grads.bias)


def center_loss(batch: LabeledBatch, bank: CenterlineBank):
    """Half squared distance of each feature to its class center, summed.

    Returns ``(loss, (feature_grads, center_grads))``.  Feature gradients
    are the exact derivative f - c; center gradients use the conventional
    damped mean update sum(c - f_j) / (1 + count) per class rather than the
    raw sum.
    """
    _check_batch_bank(batch, bank)
    fgrads, cgrads = _identity(batch.features), _identity(bank.centers)
    loss = _center(batch.features, batch.labels - 1, bank.centers, 1.0, fgrads, cgrads)
    return loss, (fgrads, cgrads)


def normalized_weight_gradient(w, f) -> np.ndarray:
    """Gradient of (w.f)/|w| w.r.t. w: f/|w| - (w.f) w / |w|^3.

    Demonstrates why weight normalization is avoided: the result scales as
    1/|w|, so small weights blow the update up (the plain inner-product
    gradient is just f, independent of |w|).
    """
    w = as_vector(w, "w")
    f = as_vector(f, "f")
    if w.shape != f.shape:
        raise ValueError(f"dimension mismatch: {w.shape[0]} vs {f.shape[0]}")
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        raise ValueError("normalized-weight gradient undefined for zero w")
    return f / nw - float(np.dot(w, f)) * w / nw**3


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


def loss_report(
    batch: LabeledBatch,
    bank: CenterlineBank,
    cfg: LossConfig,
    classifier: LinearClassifier | None = None,
) -> LossReport:
    """Evaluate every enabled term and assemble gradients of the weighted total.

    Validates what the enabled terms read, then runs ``accumulate_terms``,
    the kernel ``trainer.train`` runs on each batch.
    """
    if cfg.use_softmax and classifier is None:
        raise ValueError("softmax term enabled but no classifier supplied")
    if cfg.use_cluster or cfg.use_center or (cfg.use_ortho and cfg.ortho_variant == "centerline"):
        _check_batch_bank(batch, bank)
    if cfg.use_softmax:
        _check_classifier(batch, classifier)
    fgrads, cgrads = np.zeros_like(batch.features), np.zeros_like(bank.centers)
    clf_grads = (LinearClassifier(np.empty_like(classifier.weights), np.empty_like(classifier.bias))
                 if cfg.use_softmax else None)
    total, per_term = accumulate_terms(batch.features, batch.labels - 1, bank.centers, cfg,
                                       classifier, fgrads, cgrads, clf_grads)
    return LossReport(
        total=total,
        per_term=per_term,
        feature_grads=fgrads,
        center_grads=cgrads,
        classifier_grads=(clf_grads.weights, clf_grads.bias) if clf_grads else None,
    )
