"""Inner-product embedding losses with hand-derived surrogate gradients.

The combined objective couples a pull term (each feature is rewarded for a
large inner product with its own class centerline) with a push term
(features are penalised for positive inner products with other classes'
centerlines, or with other-class features in the batch variant).  All
gradients are closed forms, not autodiff.  Two of them are deliberately not
the true derivatives:

* the pull gradients clip the inner product at zero, which bounds the update
  magnitude near the 1/x pole of the unclipped form;
* the push gradient on a centerline averages the violating features
  (denominator ``1 + count``) instead of summing them.

Conventions: class labels are 1-based, class k owns centerline row k-1, and
batch losses are sums over the batch, so gradient scale grows with batch
size by design.  The forward pull value is evaluated with the same clipping
as its gradient, keeping reported loss curves consistent with the updates
actually applied; the literal unclipped value stays available as a
diagnostic (``cluster_forward_unclipped``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vectors import as_vector

__all__ = [
    "CenterlineBank",
    "LabeledBatch",
    "LinearClassifier",
    "LossConfig",
    "LossReport",
    "center_loss",
    "cip_forward",
    "cluster_forward",
    "cluster_forward_unclipped",
    "cluster_grad_centerline",
    "cluster_grad_feature",
    "cluster_grad_feature_origin",
    "loss_report",
    "normalized_weight_gradient",
    "ortho_batch_forward",
    "ortho_batch_grad_feature",
    "ortho_forward",
    "ortho_grad_centerline",
    "ortho_grad_feature",
    "softmax_ce",
    "triplet_loss",
]

ORTHO_VARIANTS = ("centerline", "batch")

SINGULARITY_GUARD = 1e-9  # |f.c + d| below this is treated as the pole itself


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

    def center_for(self, label: int) -> np.ndarray:
        self._check_label(label)
        return self.centers[label - 1]

    def _check_label(self, label: int):
        if not 1 <= int(label) <= self.num_classes:
            raise ValueError(f"label {label} out of range [1, {self.num_classes}]")


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
        if self.d <= 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if self.lam < 0 or self.softmax_weight < 0 or self.center_weight < 0:
            raise ValueError("term weights must be non-negative")
        if self.ortho_variant not in ORTHO_VARIANTS:
            raise ValueError(f"ortho_variant must be one of {ORTHO_VARIANTS}")
        if not (self.use_cluster or self.use_ortho or self.use_softmax or self.use_center):
            raise ValueError("at least one loss term must be enabled")

    @classmethod
    def from_name(cls, name: str, **overrides) -> "LossConfig":
        """Build a config from a combination name like ``cip+softmax``.

        Tokens: cip (= cluster+ortho), cluster, ortho, softmax, center.
        """
        flags = dict(use_cluster=False, use_ortho=False, use_softmax=False, use_center=False)
        for token in name.lower().split("+"):
            token = token.strip()
            if token == "cip":
                flags["use_cluster"] = True
                flags["use_ortho"] = True
            elif token == "cluster":
                flags["use_cluster"] = True
            elif token == "ortho":
                flags["use_ortho"] = True
            elif token == "softmax":
                flags["use_softmax"] = True
            elif token == "center":
                flags["use_center"] = True
            else:
                raise ValueError(f"unknown loss term {token!r} in combination {name!r}")
        flags.update(overrides)
        return cls(**flags)

    def term_weights(self) -> dict[str, float]:
        """Weight applied to each enabled term when summing into the total."""
        w = {}
        if self.use_cluster:
            w["cluster"] = 1.0
        if self.use_ortho:
            w["ortho"] = self.lam
        if self.use_softmax:
            w["softmax"] = self.softmax_weight
        if self.use_center:
            w["center"] = self.center_weight
        return w


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

    def to_jsonable(self) -> dict:
        out = {
            "total": self.total,
            "per_term": dict(self.per_term),
            "feature_grads": self.feature_grads.tolist(),
            "center_grads": self.center_grads.tolist(),
        }
        if self.classifier_grads is not None:
            out["classifier_grads"] = {
                "weights": self.classifier_grads[0].tolist(),
                "bias": self.classifier_grads[1].tolist(),
            }
        return out


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


def _own_center_products(batch: LabeledBatch, bank: CenterlineBank) -> np.ndarray:
    own = bank.centers[batch.labels - 1]
    return np.einsum("ij,ij->i", batch.features, own)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def cluster_forward(batch: LabeledBatch, bank: CenterlineBank, d: float) -> float:
    """Pull term: sum_i 1 / ((f_i . c_{y_i})_+ + d), clipped like its gradient."""
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    _check_batch_bank(batch, bank)
    x = np.maximum(_own_center_products(batch, bank), 0.0)
    return float(np.sum(1.0 / (x + d)))


def cluster_forward_unclipped(batch: LabeledBatch, bank: CenterlineBank, d: float) -> float:
    """Literal pull term sum_i 1 / (f_i . c_{y_i} + d); diagnostic only.

    Unlike the clipped forward this can go negative and blows up near
    f.c = -d, which is exactly the instability the clipped form avoids.
    """
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    _check_batch_bank(batch, bank)
    x = _own_center_products(batch, bank)
    with np.errstate(divide="ignore"):
        return float(np.sum(1.0 / (x + d)))


def ortho_forward(batch: LabeledBatch, bank: CenterlineBank) -> float:
    """Push term: sum_i sum_{k != y_i} max(f_i . c_k, 0)."""
    _check_batch_bank(batch, bank)
    prods = batch.features @ bank.centers.T
    own = np.zeros_like(prods, dtype=bool)
    own[np.arange(batch.size), batch.labels - 1] = True
    return float(np.sum(np.maximum(prods, 0.0)[~own]))


def ortho_batch_forward(batch: LabeledBatch) -> float:
    """Centerline-free push term over ordered cross-class feature pairs.

    Each unordered pair contributes twice because the sum runs over ordered
    (i, j); the doubled gradient below follows from that.
    """
    if batch.size < 2:
        raise ValueError("batch push term needs at least 2 samples")
    grams = batch.features @ batch.features.T
    cross = batch.labels[:, None] != batch.labels[None, :]
    return float(np.sum(np.maximum(grams, 0.0)[cross]))


def cip_forward(batch: LabeledBatch, bank: CenterlineBank, cfg: LossConfig) -> float:
    """Combined pull + lam * push value under the configured push variant."""
    pull = cluster_forward(batch, bank, cfg.d)
    if cfg.ortho_variant == "batch":
        push = ortho_batch_forward(batch)
    else:
        push = ortho_forward(batch, bank)
    return pull + cfg.lam * push


# ---------------------------------------------------------------------------
# gradients w.r.t. features
# ---------------------------------------------------------------------------


def cluster_grad_feature(f, c, d: float) -> np.ndarray:
    """Clipped pull gradient -c / ((f.c)_+ + d)^2; bounded by |c|/d^2."""
    f = as_vector(f, "f")
    c = as_vector(c, "c")
    if f.shape != c.shape:
        raise ValueError(f"dimension mismatch: {f.shape[0]} vs {c.shape[0]}")
    x = max(float(np.dot(f, c)), 0.0)
    return -c / (x + d) ** 2


def cluster_grad_feature_origin(f, c, d: float) -> np.ndarray:
    """Unclipped pull gradient -c / (f.c + d)^2; diagnostic only.

    Diverges as f.c approaches -d; inside a small guard band around the pole
    a ValueError is raised instead of returning a huge vector.  The trainer
    never uses this form.
    """
    f = as_vector(f, "f")
    c = as_vector(c, "c")
    if f.shape != c.shape:
        raise ValueError(f"dimension mismatch: {f.shape[0]} vs {c.shape[0]}")
    denom = float(np.dot(f, c)) + d
    if abs(denom) < SINGULARITY_GUARD:
        raise ValueError(f"pull gradient singular: f.c + d = {denom:.3e}")
    return -c / denom**2


def ortho_grad_feature(f, bank: CenterlineBank, own_label: int) -> np.ndarray:
    """Push gradient on a feature: sum of other-class centerlines it overlaps.

    Only centerlines with a strictly positive inner product contribute
    (the subgradient choice at the hinge is 0).
    """
    f = as_vector(f, "f")
    bank._check_label(own_label)
    if f.shape[0] != bank.dim:
        raise ValueError(f"dimension mismatch: {f.shape[0]} vs {bank.dim}")
    prods = bank.centers @ f
    active = prods > 0.0
    active[own_label - 1] = False
    return bank.centers[active].sum(axis=0) if active.any() else np.zeros_like(f)


def ortho_batch_grad_feature(batch: LabeledBatch, i: int) -> np.ndarray:
    """Gradient of the batch push term w.r.t. feature i.

    2 * sum over other-class features with positive inner product; the
    factor 2 comes from f_i appearing on both sides of the ordered-pair sum.
    """
    if not 0 <= i < batch.size:
        raise ValueError(f"batch index {i} out of range [0, {batch.size})")
    f = batch.features[i]
    prods = batch.features @ f
    active = (prods > 0.0) & (batch.labels != batch.labels[i])
    if not active.any():
        return np.zeros_like(f)
    return 2.0 * batch.features[active].sum(axis=0)


# ---------------------------------------------------------------------------
# gradients w.r.t. centerlines
# ---------------------------------------------------------------------------


def cluster_grad_centerline(
    batch: LabeledBatch, bank: CenterlineBank, class_index: int, d: float
) -> np.ndarray:
    """Clipped pull gradient on centerline of ``class_index`` (1-based)."""
    _check_batch_bank(batch, bank)
    bank._check_label(class_index)
    c = bank.centers[class_index - 1]
    grad = np.zeros_like(c)
    for j in np.flatnonzero(batch.labels == class_index):
        x = max(float(np.dot(batch.features[j], c)), 0.0)
        grad -= batch.features[j] / (x + d) ** 2
    return grad


def ortho_grad_centerline(batch: LabeledBatch, bank: CenterlineBank, class_index: int) -> np.ndarray:
    """Averaged push gradient on a centerline: mean-like over violators.

    (sum of other-class features with positive product) / (1 + violator
    count); the +1 keeps single-violator updates at half strength and bounds
    the norm by the largest violator norm.
    """
    _check_batch_bank(batch, bank)
    bank._check_label(class_index)
    c = bank.centers[class_index - 1]
    prods = batch.features @ c
    viol = (batch.labels != class_index) & (prods > 0.0)
    count = int(viol.sum())
    if count == 0:
        return np.zeros_like(c)
    return batch.features[viol].sum(axis=0) / (1.0 + count)


# ---------------------------------------------------------------------------
# baseline losses
# ---------------------------------------------------------------------------


def softmax_ce(batch: LabeledBatch, classifier: LinearClassifier):
    """Mean cross-entropy of a linear softmax head over the batch.

    Returns ``(loss, (feature_grads, weight_grads, bias_grads))`` where the
    gradients are exact derivatives of the mean cross-entropy.
    """
    if classifier.weights.shape[1] != batch.dim:
        raise ValueError("classifier width does not match feature dim")
    num_classes = classifier.weights.shape[0]
    if batch.labels.max(initial=1) > num_classes:
        raise ValueError(f"labels must lie in [1, {num_classes}]")
    m = batch.size
    logits = batch.features @ classifier.weights.T + classifier.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(m)
    loss = float(np.mean(logz - shifted[rows, batch.labels - 1]))
    probs = np.exp(shifted - logz[:, None])
    dlogits = probs
    dlogits[rows, batch.labels - 1] -= 1.0
    dlogits /= m
    feature_grads = dlogits @ classifier.weights
    weight_grads = dlogits.T @ batch.features
    bias_grads = dlogits.sum(axis=0)
    return loss, (feature_grads, weight_grads, bias_grads)


def center_loss(batch: LabeledBatch, bank: CenterlineBank):
    """Half squared distance of each feature to its class center, summed.

    Returns ``(loss, (feature_grads, center_grads))``.  Feature gradients
    are the exact derivative f - c; center gradients use the conventional
    damped mean update sum(c - f_j) / (1 + count) per class rather than the
    raw sum.
    """
    _check_batch_bank(batch, bank)
    own = bank.centers[batch.labels - 1]
    diff = batch.features - own
    loss = 0.5 * float(np.sum(diff * diff))
    feature_grads = diff.copy()
    center_grads = np.zeros_like(bank.centers)
    for k in range(1, bank.num_classes + 1):
        members = batch.labels == k
        count = int(members.sum())
        if count:
            resid = bank.centers[k - 1] - batch.features[members]
            center_grads[k - 1] = resid.sum(axis=0) / (1.0 + count)
    return loss, (feature_grads, center_grads)


def triplet_loss(anchor, positive, negative, margin: float = 1.0):
    """Squared-Euclidean triplet hinge with subgradients.

    max(0, |a-p|^2 - |a-n|^2 + margin); gradients are zero when the hinge
    is inactive.
    """
    if margin <= 0:
        raise ValueError(f"margin must be > 0, got {margin}")
    a = as_vector(anchor, "anchor")
    p = as_vector(positive, "positive")
    n = as_vector(negative, "negative")
    if not (a.shape == p.shape == n.shape):
        raise ValueError("anchor/positive/negative dimensions differ")
    ap = a - p
    an = a - n
    value = float(ap @ ap - an @ an) + margin
    if value <= 0.0:
        z = np.zeros_like(a)
        return 0.0, (z, z.copy(), z.copy())
    return value, (2.0 * (n - p), -2.0 * ap, 2.0 * an)


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

TERM_NAMES = ("cluster", "ortho", "softmax", "center")


def loss_report(
    batch: LabeledBatch,
    bank: CenterlineBank,
    cfg: LossConfig,
    classifier: LinearClassifier | None = None,
) -> LossReport:
    """Evaluate every enabled term and assemble gradients of the weighted total.

    This is the vectorized path the trainer consumes; the per-sample
    gradient functions above are its reference semantics and the unit tests
    hold the two routes together.
    """
    _check_batch_bank(batch, bank)
    if cfg.use_softmax and classifier is None:
        raise ValueError("softmax term enabled but no classifier supplied")

    feats = batch.features
    labels0 = batch.labels - 1
    per_term = {name: 0.0 for name in TERM_NAMES}
    fgrads = np.zeros_like(feats)
    cgrads = np.zeros_like(bank.centers)
    clf_grads = None

    if cfg.use_cluster:
        own = bank.centers[labels0]
        x = np.maximum(np.einsum("ij,ij->i", feats, own), 0.0)
        denom = x + cfg.d
        per_term["cluster"] = float(np.sum(1.0 / denom))
        scale = 1.0 / denom**2
        fgrads -= own * scale[:, None]
        np.add.at(cgrads, labels0, -feats * scale[:, None])

    if cfg.use_ortho:
        if cfg.ortho_variant == "batch":
            grams = feats @ feats.T
            cross = batch.labels[:, None] != batch.labels[None, :]
            active = (grams > 0.0) & cross
            per_term["ortho"] = float(grams[active].sum())
            fgrads += cfg.lam * 2.0 * (active @ feats)
        else:
            prods = feats @ bank.centers.T
            active = prods > 0.0
            active[np.arange(batch.size), labels0] = False
            per_term["ortho"] = float(prods[active].sum())
            fgrads += cfg.lam * (active @ bank.centers)
            counts = active.sum(axis=0)
            cgrads += cfg.lam * (active.T @ feats) / (1.0 + counts)[:, None]

    if cfg.use_softmax:
        value, (sf, sw, sb) = softmax_ce(batch, classifier)
        per_term["softmax"] = value
        fgrads += cfg.softmax_weight * sf
        clf_grads = (cfg.softmax_weight * sw, cfg.softmax_weight * sb)

    if cfg.use_center:
        value, (of, oc) = center_loss(batch, bank)
        per_term["center"] = value
        fgrads += cfg.center_weight * of
        cgrads += cfg.center_weight * oc

    weights = cfg.term_weights()
    total = sum(weights[name] * per_term[name] for name in weights)
    return LossReport(
        total=float(total),
        per_term=per_term,
        feature_grads=fgrads,
        center_grads=cgrads,
        classifier_grads=clf_grads,
    )
