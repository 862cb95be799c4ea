"""Retrieval evaluation: cosine ranking, IR metrics, and geometry reports.

Rankings are leave-one-out: every descriptor queries all the others, and a
gallery item is relevant iff it carries the query's label.  Metric
conventions pinned here (the upstream benchmarks leave them to their
citations):

* average precision = mean of precision at each relevant rank;
* PR-AUC = trapezoidal area under the precision-recall points sampled at
  every rank, anchored at (recall 0, precision 1);
* NDCG uses binary gains rel_i / log2(i + 1);
* F1 cutoff defaults to the number of relevant items for the query.

``pool_descriptors`` sums every object's views with one ``np.add.at``;
``rank`` sorts and ``evaluate_run`` scores one block of query rows at a
time, so neither holds more than O(block x queries) values beside the
(queries x gallery) rankings and relevance.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import write_csv
from .losses import CenterlineBank

__all__ = [
    "EvalSummary",
    "GeometryReport",
    "MetricsReport",
    "RetrievalRun",
    "aggregate",
    "average_precision",
    "evaluate_run",
    "f1_at",
    "geometry_report",
    "ndcg",
    "pool_descriptors",
    "pr_auc",
    "rank",
]


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

# query rows that ``rank`` sorts and ``evaluate_run`` scores at a time
_BLOCK_ROWS = 64


@dataclass
class RetrievalRun:
    """Every query's ordered gallery with binary relevance flags.

    Row q of ``rankings`` and ``relevance`` belongs to descriptor
    ``query_indices[q]`` and holds each other ranked descriptor once.
    """

    query_indices: np.ndarray  # (Q,) descriptor indices that served as queries
    query_labels: np.ndarray  # (Q,)
    rankings: np.ndarray  # (Q, Q - 1) int: gallery descriptor indices, best first
    relevance: np.ndarray  # (Q, Q - 1) bool: the ranked item carries the query label
    excluded: list[int] = field(default_factory=list)  # zero-norm descriptors

    @property
    def num_queries(self) -> int:
        return len(self.rankings)


def pool_descriptors(features: np.ndarray, object_ids: np.ndarray, labels: np.ndarray):
    """Mean-pool per-view features into per-object descriptors.

    Returns (descriptors, object_labels, unique_object_ids), ordered by
    first appearance of each object; an object's label is its first view's.
    Each object's views are added in row order onto 0.0, as
    ``mean(axis=0)`` adds them, so a descriptor has the same bits as the
    ``mean(axis=0)`` of its views.
    """
    features = np.asarray(features, dtype=np.float64)
    object_ids = np.asarray(object_ids)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.size == 0 or not (
        labels.shape == object_ids.shape == features.shape[:1]
    ):
        raise ValueError("need non-empty (N, n) features with aligned object ids and labels")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ValueError(f"features[{int(np.argmin(finite))}] has non-finite components")
    uniq, first, inverse = np.unique(object_ids, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    slot = np.empty_like(by_first)
    slot[by_first] = np.arange(by_first.size)
    slot = slot[inverse]
    sums = np.zeros((uniq.size, features.shape[1]))
    np.add.at(sums, slot, features)
    counts = np.bincount(slot, minlength=uniq.size)
    return sums / counts[:, None], labels[first[by_first]].astype(np.int64), uniq[by_first]


def mean_pool(views) -> np.ndarray:
    """The (n,) descriptor of one object's (V, n) views: ``pool_descriptors``
    with one object id.

    No library code calls this.  It stays only as the benchmark's trace
    slot: ``bench/workloads.py`` wraps ``retrieval.mean_pool`` by name.
    """
    ids = np.zeros(len(views), dtype=np.int64)
    return pool_descriptors(views, ids, ids)[0][0]


def rank(descriptors: np.ndarray, labels: np.ndarray) -> RetrievalRun:
    """Leave-one-out cosine ranking over one descriptor set.

    Every descriptor queries the remaining ones, ordered by ascending cosine
    distance with ties broken by ascending gallery index.  Zero-norm
    descriptors cannot be ranked; they are excluded with a warning and
    recorded in ``excluded``.

    Queries go in blocks of ``_BLOCK_ROWS`` rows.  The default sort leaves
    equal distances adjacent but in any order, so in a row that holds a tie
    each run of equal distances gets a run number, and sorting the row's
    (run number, index) keys orders each run's indices without moving it.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if descriptors.ndim != 2 or labels.shape != (descriptors.shape[0],):
        raise ValueError("need (N, n) descriptors with aligned labels")
    if not np.isfinite(descriptors).all():
        raise ValueError("descriptors must be finite")
    norms = np.linalg.norm(descriptors, axis=1)
    excluded = [int(i) for i in np.flatnonzero(norms == 0.0)]
    if excluded:
        warnings.warn(
            f"excluding {len(excluded)} zero-norm descriptor(s) from retrieval: {excluded}"
        )
    keep = np.flatnonzero(norms > 0.0)
    if keep.size < 2:
        raise ValueError("need at least two nonzero descriptors to rank")
    unit = descriptors[keep] / norms[keep, None]
    kept_labels = labels[keep]
    q = keep.size
    rankings = np.empty((q, q - 1), dtype=keep.dtype)
    relevance = np.empty((q, q - 1), dtype=bool)
    for lo in range(0, q, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, q)
        dist = unit[lo:hi] @ unit.T
        np.subtract(1.0, dist, out=dist)
        np.fill_diagonal(dist[:, lo:], np.inf)  # each query sorts itself last, then drops it
        order = np.argsort(dist, axis=1)[:, :-1]
        ranked = np.take_along_axis(dist, order, axis=1)
        steps = ranked[:, 1:] != ranked[:, :-1]
        tied = np.flatnonzero(~steps.all(axis=1))
        if tied.size:
            run = np.zeros((tied.size, q - 1), dtype=np.int64)
            np.cumsum(steps[tied], axis=1, out=run[:, 1:])
            keys = run * q + order[tied]
            keys.sort(axis=1)
            order[tied] = keys % q
        np.equal(kept_labels[order], kept_labels[lo:hi, None], out=relevance[lo:hi])
        rankings[lo:hi] = keep[order]
    return RetrievalRun(
        query_indices=keep.copy(),
        query_labels=kept_labels,
        rankings=rankings,
        relevance=relevance,
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# metrics over binary relevance rows, best rank first
# ---------------------------------------------------------------------------


def _check_cutoff(cutoff: int | None) -> None:
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")


def _row_metrics(relevance: np.ndarray, f1_cutoff: int | None = None,
                 ndcg_cutoff: int | None = None) -> dict:
    """AP, PR-AUC, F1 and NDCG of every row of a (Q, L) bool relevance matrix.

    Only the relevant ranks are visited: a row's k-th relevant item, at
    rank i, has k hits in the top i.  ``relevant`` holds each row's count of
    relevant items; a row with none scores NaN AP and PR-AUC and 0 F1 and
    NDCG.
    """
    _check_cutoff(f1_cutoff)
    _check_cutoff(ndcg_cutoff)
    nq, length = relevance.shape
    # each row's relevant ranks, ascending (0-based)
    row, pos = np.divmod(np.flatnonzero(relevance), length)
    total = np.count_nonzero(relevance, axis=1)
    start = np.cumsum(total) - total
    hits = (np.arange(row.size) - start[row] + 1).astype(np.float64)
    precision = hits / (pos + 1)

    ap = np.full(nq, np.nan)
    for count in np.unique(total[total > 0]):
        rows = np.flatnonzero(total == count)
        # a (rows, count) block's row means sum in the pairwise order of a
        # 1-D np.mean, so AP does not depend on which rows share the block
        ap[rows] = precision[start[rows, None] + np.arange(count)].mean(axis=1)

    # trapezoids between consecutive rank-sampled (recall, precision)
    # points; recall only moves at relevant ranks, from (0, 1) at rank 0
    row_total = total[row]
    recall_step = hits / row_total - (hits - 1.0) / row_total
    before = (hits - 1.0) / np.maximum(pos, 1)
    before[pos == 0] = 1.0
    area = np.bincount(row, recall_step * (before + precision) / 2.0, minlength=nq)
    pr_auc = np.where(total > 0, area, np.nan)

    cut = np.minimum(length, np.maximum(total, 1)) if f1_cutoff is None else np.full(nq, f1_cutoff)
    found = np.bincount(row[pos < cut[row]], minlength=nq).astype(np.float64)
    prec_at = found / cut
    rec_at = np.divide(found, total, out=np.zeros(nq), where=total > 0)
    both = prec_at + rec_at
    f1 = np.divide(2.0 * prec_at * rec_at, both, out=np.zeros(nq), where=both != 0.0)

    depth = length if ndcg_cutoff is None else min(ndcg_cutoff, length)
    gain = 1.0 / np.log2(np.arange(2, depth + 2))
    top = pos < depth
    dcg = np.bincount(row[top], gain[pos[top]], minlength=nq)
    ideal = np.concatenate([[0.0], np.cumsum(gain)])[np.minimum(total, depth)]
    ndcg = np.divide(dcg, ideal, out=np.zeros(nq), where=ideal > 0.0)
    return {"map": ap, "pr_auc": pr_auc, "f1": f1, "ndcg": ndcg, "relevant": total}


def _one_row(relevance, f1_cutoff: int | None = None, ndcg_cutoff: int | None = None) -> dict:
    """``_row_metrics`` of one 1-D relevance list, as scalars."""
    r = np.asarray(relevance)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("relevance must be a non-empty 1-D array")
    scores = _row_metrics((r != 0)[None, :], f1_cutoff, ndcg_cutoff)
    return {name: values[0].item() for name, values in scores.items()}


def average_precision(relevance) -> float:
    """Mean of precision at each relevant rank.

    >>> round(average_precision([1, 0, 1]), 5)
    0.83333
    """
    scores = _one_row(relevance)
    if scores["relevant"] == 0:
        raise ValueError("average precision undefined with no relevant items")
    return scores["map"]


def pr_auc(relevance) -> float:
    """Trapezoidal area under the rank-sampled precision-recall curve."""
    scores = _one_row(relevance)
    if scores["relevant"] == 0:
        raise ValueError("PR-AUC undefined with no relevant items")
    return scores["pr_auc"]


def ndcg(relevance, cutoff: int | None = None) -> float:
    """Binary-gain NDCG at ``cutoff`` (full length when omitted).

    >>> round(ndcg([1, 0, 1]), 5)
    0.91972
    """
    return _one_row(relevance, ndcg_cutoff=cutoff)["ndcg"]


def f1_at(relevance, cutoff: int | None = None) -> float:
    """Harmonic mean of precision and recall at ``cutoff``.

    The default cutoff is min(length, number of relevant items), so a
    perfect ranking scores exactly 1.
    """
    return _one_row(relevance, f1_cutoff=cutoff)["f1"]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    map: float
    pr_auc: float
    f1: float
    ndcg: float
    aggregation: str

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate(per_query_metrics: dict, labels, mode: str) -> MetricsReport:
    """Micro (mean over queries) or macro (mean of per-class means) rollup."""
    if mode not in ("micro", "macro"):
        raise ValueError(f"aggregation mode must be micro or macro, got {mode!r}")
    labels = np.asarray(labels)
    values = {k: np.asarray(v, dtype=np.float64) for k, v in per_query_metrics.items()}
    for k, v in values.items():
        if v.shape != labels.shape:
            raise ValueError(f"metric {k!r} not aligned with labels")
    if labels.size == 0:
        raise ValueError("nothing to aggregate")

    def roll(v: np.ndarray) -> float:
        if mode == "micro":
            return float(np.mean(v))
        return float(np.mean([np.mean(v[labels == c]) for c in np.unique(labels)]))

    return MetricsReport(
        map=roll(values["map"]),
        pr_auc=roll(values["pr_auc"]),
        f1=roll(values["f1"]),
        ndcg=roll(values["ndcg"]),
        aggregation=mode,
    )


@dataclass
class EvalSummary:
    micro: MetricsReport
    macro: MetricsReport
    total_queries: int
    skipped_queries: int  # queries with no relevant gallery item

    def to_dict(self) -> dict:
        return asdict(self)

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def save_csv(self, path) -> None:
        """One row per aggregation mode, for spreadsheet-style consumers."""
        write_csv(path, ["aggregation", "map", "pr_auc", "f1", "ndcg", "total_queries",
                         "skipped_queries"],
                  ([r.aggregation, r.map, r.pr_auc, r.f1, r.ndcg, self.total_queries,
                    self.skipped_queries] for r in (self.micro, self.macro)))


def evaluate_run(
    run: RetrievalRun,
    f1_cutoff: int | None = None,
    ndcg_cutoff: int | None = None,
) -> EvalSummary:
    """Score every query and aggregate both micro and macro reports."""
    relevance = np.asarray(run.relevance)
    # a row's scores depend on that row alone, so row blocks keep the bits
    blocks = [_row_metrics(relevance[lo:lo + _BLOCK_ROWS] != 0, f1_cutoff, ndcg_cutoff)
              for lo in range(0, len(relevance), _BLOCK_ROWS)]
    scores = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    kept = scores.pop("relevant") > 0  # a query with no relevant item is skipped
    if not kept.any():
        raise ValueError("no query had any relevant gallery item")
    per = {name: values[kept] for name, values in scores.items()}
    kept_labels = np.asarray(run.query_labels)[kept]
    return EvalSummary(
        micro=aggregate(per, kept_labels, "micro"),
        macro=aggregate(per, kept_labels, "macro"),
        total_queries=run.num_queries,
        skipped_queries=int(np.count_nonzero(~kept)),
    )


# ---------------------------------------------------------------------------
# embedding geometry
# ---------------------------------------------------------------------------


@dataclass
class GeometryReport:
    """How close the embedding sits to the target one-line-per-class layout."""

    centerline_cosines: np.ndarray  # (K, K), unit-direction inner products
    own_cosine_mean: np.ndarray  # (K,) mean cos(feature, own centerline)
    own_cosine_min: np.ndarray  # (K,)
    max_cross_inner: float  # max feature . other-class centerline
    norm_mean: np.ndarray  # (K,) feature norm statistics per class
    norm_min: np.ndarray
    norm_max: np.ndarray

    @property
    def max_pairwise_centerline_cosine(self) -> float:
        k = self.centerline_cosines.shape[0]
        off = ~np.eye(k, dtype=bool)
        return float(self.centerline_cosines[off].max())

    @property
    def mean_own_cosine(self) -> float:
        return float(np.mean(self.own_cosine_mean))

    def to_dict(self) -> dict:
        return {
            "centerline_cosines": self.centerline_cosines.tolist(),
            "own_cosine_mean": self.own_cosine_mean.tolist(),
            "own_cosine_min": self.own_cosine_min.tolist(),
            "max_cross_inner": self.max_cross_inner,
            "norm_mean": self.norm_mean.tolist(),
            "norm_min": self.norm_min.tolist(),
            "norm_max": self.norm_max.tolist(),
            "max_pairwise_centerline_cosine": self.max_pairwise_centerline_cosine,
            "mean_own_cosine": self.mean_own_cosine,
        }

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def save_cosine_csv(self, path) -> None:
        """K x K centerline cosine matrix as CSV for external plotting."""
        k = self.centerline_cosines.shape[0]
        write_csv(path, ["class", *(str(i) for i in range(1, k + 1))],
                  ([i, *row] for i, row in enumerate(self.centerline_cosines.tolist(), start=1)))


def _safe_unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.zeros_like(v)


def geometry_report(features: np.ndarray, labels, bank: CenterlineBank) -> GeometryReport:
    """Measure centerline separation and per-class feature alignment.

    Zero-norm features contribute an own-cosine of 0 (they lie on no line).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError("need (N, n) features with aligned labels")
    k = bank.num_classes
    if labels.min() < 1 or labels.max() > k:
        raise ValueError(f"labels must lie in [1, {k}]")

    units = np.stack([_safe_unit(c) for c in bank.centers])
    cosines = units @ units.T

    fnorm = np.linalg.norm(features, axis=1)
    funit = np.where(fnorm[:, None] > 0, features / np.maximum(fnorm, 1e-300)[:, None], 0.0)
    own_cos = np.einsum("ij,ij->i", funit, units[labels - 1])

    own_mean = np.zeros(k)
    own_min = np.zeros(k)
    nmean, nmin, nmax = np.zeros(k), np.zeros(k), np.zeros(k)
    for idx in range(k):
        members = labels == idx + 1
        if members.any():
            own_mean[idx] = own_cos[members].mean()
            own_min[idx] = own_cos[members].min()
            nmean[idx] = fnorm[members].mean()
            nmin[idx] = fnorm[members].min()
            nmax[idx] = fnorm[members].max()

    inner = features @ bank.centers.T
    cross = np.ones_like(inner, dtype=bool)
    cross[np.arange(features.shape[0]), labels - 1] = False
    return GeometryReport(
        centerline_cosines=cosines,
        own_cosine_mean=own_mean,
        own_cosine_min=own_min,
        max_cross_inner=float(inner[cross].max()),
        norm_mean=nmean,
        norm_min=nmin,
        norm_max=nmax,
    )
