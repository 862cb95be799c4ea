"""Inner-product embedding losses with hand-derived surrogate gradients.

The combined objective couples a pull term (each feature is rewarded for a
large inner product with its own class centerline) with a push term
(features are penalised for positive inner products with other classes'
centerlines, or with other-class features in the batch variant).  Each
term is one array function that runs no checks and adds its gradients into
the caller's arrays, summing per class with ``group_sums``, one
``np.bincount`` with the bits of ``np.add.at`` into zeros;
``accumulate_terms`` runs the enabled ones, and
``trainer.train`` calls it on every batch after validating its inputs once
at entry.  ``loss_report`` is the checked, object-level entry: it validates
a ``LabeledBatch`` against the bank and classifier, then runs
``accumulate_terms``; a one-term ``LossConfig`` gives one term's value and
gradients.  All gradients are closed forms, not autodiff.  Two of them are
deliberately not the true derivatives:

* the pull gradients clip the inner product at zero, which bounds the update
  magnitude near the 1/x pole of the unclipped form;
* the push gradient on a centerline averages the violating features
  (denominator ``1 + count``) instead of summing them.

Conventions: class labels are 1-based, class k owns centerline row k-1, and
batch losses are sums over the batch, so gradient scale grows with batch
size by design.  The term functions take the 0-based labels.  The pull
value is evaluated with the same clipping as its gradient, keeping reported
loss curves consistent with the updates actually applied.  The literal
unclipped forms, the per-sample reference gradients and the
normalized-weight gradient that the inner-product losses avoid live in
``tests/oracles.py``, where the tests check against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vectors import check_fields

__all__ = [
    "CenterlineBank",
    "LabeledBatch",
    "LinearClassifier",
    "LossConfig",
    "LossReport",
    "accumulate_terms",
    "center_loss",
    "group_sums",
    "loss_report",
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
        check_fields(self, lambda: (
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
    center_grads: np.ndarray | None  # None when ``loss_report`` had no bank
    classifier_grads: tuple[np.ndarray, np.ndarray] | None = None


# ---------------------------------------------------------------------------
# loss terms: one array function each, with no checks (``loss_report`` and
# the domain types run them).  ``feats`` is (M, n), ``labels0`` holds
# 0-based labels in [0, K) and ``centers`` is (K, n).  A term returns its
# unweighted value and adds the gradients of ``weight * value`` into the
# caller's ``fgrads`` (M, n) and ``cgrads`` (K, n).  Reductions call the
# ufunc's reduce, which is what np.sum, np.mean and ndarray.max run,
# without their Python wrappers.
# ---------------------------------------------------------------------------


def group_sums(index, rows, num_groups) -> np.ndarray:
    """(num_groups, n) sums of the (M, n) ``rows`` by group ``index[i]`` in
    [0, num_groups): one ``np.bincount`` over the flat cells, which adds
    each group's rows in row order onto 0.0, the bits of ``np.add.at``
    into zeros.  A group with no rows sums to 0.0."""
    n = rows.shape[1]
    cells = (index[:, None] * n + np.arange(n)).ravel()
    return np.bincount(cells, rows.ravel(), num_groups * n).reshape(num_groups, n)


def pull_term(feats, labels0, centers, d, fgrads, cgrads) -> float:
    """Pull term sum_i 1 / ((f_i . c_{y_i})_+ + d) with its clipped gradients.

    ``d`` must be positive; the term has no weight.  Row i of the feature
    gradients is -c_{y_i} / ((f_i . c_{y_i})_+ + d)^2, bounded by |c|/d^2;
    centerline k receives the sum of -f_j / ((f_j . c_k)_+ + d)^2 over its
    members j.  The value is clipped the same way as the gradients.

    Each class's sum is added in row order onto 0.0 and then added into
    ``cgrads``: where ``cgrads`` holds zeros, as in ``accumulate_terms``,
    the bits are those of ``np.subtract.at(cgrads, labels0, ...)``.
    """
    own = centers[labels0]
    denom = np.maximum(np.einsum("ij,ij->i", feats, own), 0.0) + d
    scale = (1.0 / denom**2)[:, None]
    fgrads -= own * scale
    cgrads += group_sums(labels0, feats * -scale, centers.shape[0])
    return float(np.add.reduce(1.0 / denom))


def push_term(feats, labels0, centers, weight, fgrads, cgrads) -> float:
    """Push term sum_i sum_{k != y_i} max(f_i . c_k, 0) and its gradients.

    A feature's gradient is the sum of the other-class centerlines it
    overlaps (the hinge subgradient is 0).  A centerline's gradient is the
    surrogate (sum of its violators) / (1 + violator count), which bounds
    its norm by the largest violator's; ``weight`` is applied before that
    division.
    """
    prods = feats @ centers.T
    active = prods > 0.0
    active[np.arange(feats.shape[0]), labels0] = False
    fgrads += weight * (active @ centers)
    cgrads += weight * (active.T @ feats) / (1.0 + np.add.reduce(active, axis=0))[:, None]
    return float(np.add.reduce(prods[active]))


def push_batch_term(feats, labels0, weight, fgrads) -> float:
    """Centerline-free push term over ordered cross-class feature pairs.

    The value is the sum of max(f_i . f_j, 0) over ordered pairs with
    different labels.  Each unordered pair appears twice, so a feature's
    gradient is 2 * the sum of the other-class features it overlaps.  No
    centerline receives a gradient.
    """
    grams = feats @ feats.T
    active = (grams > 0.0) & (labels0[:, None] != labels0[None, :])
    fgrads += weight * 2.0 * (active @ feats)
    return float(np.add.reduce(grams[active]))


def softmax_ce(feats, labels0, classifier, weight, fgrads, clf_grads) -> float:
    """Mean cross-entropy of a linear softmax head over the batch.

    ``classifier`` is the (K, n) head.  The gradients are exact derivatives
    of the mean cross-entropy.  The feature gradient is added into
    ``fgrads``; the head's gradients are written, not added, into the
    arrays of ``clf_grads``, a ``LinearClassifier`` of the head's shapes:
    no other term has any.
    """
    m, k = feats.shape[0], classifier.weights.shape[0]
    shifted = feats @ classifier.weights.T
    shifted += classifier.bias
    shifted -= np.maximum.reduce(shifted, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(shifted), axis=1))
    own = np.arange(0, m * k, k) + labels0  # flat index of each row's own class
    loss = float(np.add.reduce(logz - shifted.ravel()[own]) / m)
    shifted -= logz[:, None]
    dlogits = np.exp(shifted, out=shifted)
    dlogits.ravel()[own] -= 1.0
    dlogits /= m
    fgrads += weight * (dlogits @ classifier.weights)
    np.multiply(weight, dlogits.T @ feats, out=clf_grads.weights)
    np.multiply(weight, np.add.reduce(dlogits, axis=0), out=clf_grads.bias)
    return loss


def center_loss(feats, labels0, centers, weight, fgrads, cgrads) -> float:
    """Half squared distance of each feature to its class center, summed.

    Feature gradients are the exact derivative f - c; center gradients use
    the conventional damped mean update sum(c - f_j) / (1 + count) per
    class rather than the raw sum; each class's sum is added in row order
    onto 0.0, the bits of ``np.add.at`` into zeros.
    """
    num_classes = centers.shape[0]
    diff = feats - centers[labels0]
    loss = 0.5 * float(np.add.reduce(diff * diff, axis=None))
    damped = group_sums(labels0, np.negative(diff), num_classes)
    damped /= (1.0 + np.bincount(labels0, minlength=num_classes))[:, None]
    fgrads += weight * diff
    cgrads += weight * damped
    return loss


def accumulate_terms(feats, labels0, centers, cfg: LossConfig, classifier, fgrads, cgrads,
                     clf_grads) -> tuple[float, dict[str, float]]:
    """Every enabled term of ``cfg`` on plain arrays, with no validation.

    ``feats``, ``labels0`` and ``centers`` are as for each term.  The
    gradients of the weighted total are added into ``fgrads`` (M, n) and
    ``cgrads`` (K, n), which must hold zeros on entry; with softmax on,
    ``classifier`` is the head and its gradients are written into the
    arrays of ``clf_grads``, a ``LinearClassifier`` of the same shapes.
    Returns ``(total, per_term)`` as in ``LossReport``.  ``total`` starts at
    0.0 and adds each enabled term times its weight, in ``TERM_NAMES``
    order: pull (1), push (``lam``), softmax (``softmax_weight``) and center
    (``center_weight``).
    """
    per_term = dict.fromkeys(TERM_NAMES, 0.0)
    total = 0.0
    if cfg.use_cluster:
        per_term["cluster"] = pull_term(feats, labels0, centers, cfg.d, fgrads, cgrads)
        total += per_term["cluster"]
    if cfg.use_ortho:
        if cfg.ortho_variant == "batch":
            per_term["ortho"] = push_batch_term(feats, labels0, cfg.lam, fgrads)
        else:
            per_term["ortho"] = push_term(feats, labels0, centers, cfg.lam, fgrads, cgrads)
        total += cfg.lam * per_term["ortho"]
    if cfg.use_softmax:
        per_term["softmax"] = softmax_ce(feats, labels0, classifier, cfg.softmax_weight, fgrads, clf_grads)
        total += cfg.softmax_weight * per_term["softmax"]
    if cfg.use_center:
        per_term["center"] = center_loss(feats, labels0, centers, cfg.center_weight, fgrads, cgrads)
        total += cfg.center_weight * per_term["center"]
    return total, per_term


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


def loss_report(
    batch: LabeledBatch,
    bank: CenterlineBank | None,
    cfg: LossConfig,
    classifier: LinearClassifier | None = None,
) -> LossReport:
    """Evaluate every enabled term and assemble gradients of the weighted total.

    The checked entry to the loss terms: validates what the enabled terms
    read, then runs ``accumulate_terms``, which ``trainer.train`` runs on
    each batch.  A one-term config gives one term's value
    (``per_term[name]``) and the gradients of that term times its weight,
    e.g. ``LossConfig.from_name("softmax", softmax_weight=1.0)``.  ``bank``
    may be None when no enabled term reads centerlines (softmax, the batch
    push variant); ``center_grads`` is then None.
    """
    if cfg.use_softmax and classifier is None:
        raise ValueError("softmax term enabled but no classifier supplied")
    if cfg.use_cluster or cfg.use_center or (cfg.use_ortho and cfg.ortho_variant == "centerline"):
        if bank is None:
            raise ValueError("centerline term enabled but no bank supplied")
        if batch.dim != bank.dim:
            raise ValueError(f"feature dim {batch.dim} != centerline dim {bank.dim}")
        if batch.size and batch.labels.max() > bank.num_classes:
            raise ValueError(f"labels must lie in [1, {bank.num_classes}], got range "
                             f"[{batch.labels.min()}, {batch.labels.max()}]")
    if cfg.use_softmax:
        if classifier.weights.shape[1] != batch.dim:
            raise ValueError("classifier width does not match feature dim")
        num_classes = classifier.weights.shape[0]
        if batch.labels.max(initial=1) > num_classes:
            raise ValueError(f"labels must lie in [1, {num_classes}]")
    centers = None if bank is None else bank.centers
    fgrads = np.zeros_like(batch.features)
    cgrads = None if bank is None else np.zeros_like(centers)
    clf_grads = (LinearClassifier(np.empty_like(classifier.weights), np.empty_like(classifier.bias))
                 if cfg.use_softmax else None)
    total, per_term = accumulate_terms(batch.features, batch.labels - 1, centers, cfg,
                                       classifier, fgrads, cgrads, clf_grads)
    return LossReport(
        total=total,
        per_term=per_term,
        feature_grads=fgrads,
        center_grads=cgrads,
        classifier_grads=(clf_grads.weights, clf_grads.bias) if clf_grads else None,
    )
