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

``pool_descriptors`` sums every object's views with one ``np.bincount``
(``losses.group_sums``); ``rank`` sorts 64 and ``evaluate_run`` scores 128
query rows at a time.  A call with more than 1472 query rows runs its
blocks on one thread per CPU the process may use, through
``vectors.share_blocks``, which joins them before it returns (the package's
one fan-out module forks only while no other thread is alive).  Each
block writes only its own rows, so the outputs have the same bits on any
thread count, and neither function holds more than O(threads x block x
queries) values beside the (queries x gallery) rankings and relevance.
``rank`` sorts each block once, in place, as float64 keys that pack a
distance with its index, and re-sorts only the runs of keys that share a
distance prefix; a query's own key is +inf, and exact ties, negative ones
too, end in ascending index order.
``evaluate_run`` reads each block once, for the flat indices of its
relevant items, and scores it from those alone.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import write_csv
from .losses import CenterlineBank, group_sums
from .vectors import share_blocks

__all__ = [
    "EvalSummary",
    "GeometryReport",
    "MetricsReport",
    "RetrievalRun",
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

# query rows that ``rank`` sorts at a time
_BLOCK_ROWS = 64
# query rows that ``evaluate_run`` scores at a time
_SCORE_ROWS = 128
# a call with fewer 64-row blocks (at most 1472 query rows) runs on the
# calling thread alone, whatever its own block size: its numpy calls are too
# short for a second thread to overlap them (on a 2-vCPU VM a second
# thread made rank 1.7x slower at 2 blocks, gained nothing at 10-15 and cut
# rank by ~45 % from 25 on)
_MIN_SHARED_BLOCKS = 24


def _shared(rows: int) -> bool:
    """Whether a call over ``rows`` query rows shares its blocks between
    threads (``vectors.share_blocks``): from ``_MIN_SHARED_BLOCKS`` blocks
    of ``_BLOCK_ROWS`` rows on."""
    return -(-rows // _BLOCK_ROWS) >= _MIN_SHARED_BLOCKS


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
    ``losses.group_sums`` adds each object's views in row order onto 0.0,
    as ``mean(axis=0)`` adds them, so a descriptor has the same bits as the
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
    descriptors = group_sums(slot, features, uniq.size)
    descriptors /= np.bincount(slot, minlength=uniq.size)[:, None]
    return descriptors, labels[first[by_first]].astype(np.int64), uniq[by_first]


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

    Queries go in blocks of ``_BLOCK_ROWS`` rows, and each block is sorted
    once, in place, as float64 keys.  A key is a distance's bits with the
    low ``(Q - 1).bit_length()`` bits replaced by the gallery column, and a
    query's own key is +inf, so it sorts last and is dropped only when the
    outputs are written.  The sorted keys' low bits are the block's order.
    Keys with different distance prefixes sort as their distances do, and
    so do a non-negative prefix's keys, in ascending column order on exact
    ties (a zero distance gives a subnormal key, which numpy compares
    exactly); a negative prefix's keys come out in descending column order.
    So only the positions in runs of keys that share a prefix are re-sorted,
    by (run number, distance, index): equal distances end in ascending index
    order whichever way they came.  Blocks run on ``vectors.share_blocks``'
    threads, and each block allocates its own keys, so beside the two
    (Q, Q - 1) outputs the working set is O(threads x block x Q).

    The keys order the distances as ``<`` does because
    ``np.subtract(1.0, x)`` never yields -0.0 (which would sort apart from
    0.0), the descriptors are finite (so no key is NaN), and a row's keys
    are distinct (so the order does not depend on the sort algorithm or on
    numpy's CPU dispatch).  The +inf self key is set after packing: an inf
    with column bits would be a NaN, whose bits numpy's SIMD sort does not
    keep.
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
    # the low bits of a packed key hold its column index
    mask = np.uint64((1 << (q - 1).bit_length()) - 1)
    columns = np.arange(q, dtype=np.uint64)

    def rank_block(lo, hi):
        rows = hi - lo
        dist = unit[lo:hi] @ unit.T
        np.subtract(1.0, dist, out=dist)
        # a distance's bits with its column in the low bits, sorted as a float
        key = np.bitwise_and(dist.view(np.uint64), ~mask)
        np.bitwise_or(key, columns, out=key)
        # each query's own key, +inf, sorts last and is dropped
        np.fill_diagonal(key.view(np.float64)[:, lo:], np.inf)
        key.view(np.float64).sort(axis=1)
        # neighbours that share the distance prefix are in index order
        # (descending when negative), which is their distance order only if
        # their distances are equal
        step = np.bitwise_xor(key[:, 1:], key[:, :-1])
        np.bitwise_and(key, mask, out=key)
        full = key.view(np.int64)  # the block's order: gallery columns, best first
        if step.min() <= mask:  # never at the last, inf, column
            # every position in a run of shared prefixes, and its run's number:
            # a run starts at a position that shares it with the next one but
            # not with the one before (no row's first position follows one)
            follows = np.zeros((rows, q), dtype=bool)
            np.less_equal(step, mask, out=follows[:, 1:])
            at = np.flatnonzero(follows | np.roll(follows, -1))
            run = np.cumsum(~follows.ravel()[at])
            flat = full.ravel()
            index = flat[at]
            # equal distances end in ascending index order, whichever way they came
            by = np.lexsort((index, dist.ravel()[at - at % q + index], run))
            flat[at] = index[by]
        # the labels reuse the distances' buffer once the runs are repaired
        ranked_labels = dist.view(kept_labels.dtype)
        # every index is in range; mode "clip" spares the copy that out= costs
        # under the default mode "raise"
        np.take(kept_labels, full, out=ranked_labels, mode="clip")
        np.equal(ranked_labels[:, :-1], kept_labels[lo:hi, None], out=relevance[lo:hi])
        if excluded:
            np.take(keep, full[:, :-1], out=rankings[lo:hi], mode="clip")
        else:
            rankings[lo:hi] = full[:, :-1]  # keep is 0..q-1

    share_blocks(q, _BLOCK_ROWS, _shared(q), rank_block)
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
    if cutoff is not None and not 1 <= cutoff < 2**63:
        raise ValueError(f"cutoff must be in [1, 2**63 - 1], got {cutoff}")


def _gain_tables(length: int, ndcg_cutoff: int | None) -> tuple[np.ndarray, np.ndarray]:
    """NDCG's binary gain at each 0-based rank of a length-``length`` list,
    and the ideal DCG of 0, 1, ..., ``length`` relevant items.

    The gain is 1 / log2(i + 2) at a rank i above the cutoff and 0 from it
    on.  Adding 0.0 leaves a DCG's bits as they are, so a DCG summed over
    every relevant rank equals the one summed over the ranks above the
    cutoff, and no rank needs a mask.
    """
    depth = length if ndcg_cutoff is None else min(ndcg_cutoff, length)
    gain = np.zeros(length)
    gain[:depth] = 1.0 / np.log2(np.arange(2, depth + 2))
    return gain, np.concatenate([[0.0], np.cumsum(gain)])


def _row_metrics(relevance: np.ndarray, f1_cutoff: int | None, gain: np.ndarray,
                 ideal_dcg: np.ndarray) -> dict:
    """AP, PR-AUC, F1 and NDCG of every row of a (Q, L) bool relevance matrix.

    ``gain`` and ``ideal_dcg`` are ``_gain_tables(L, ndcg_cutoff)``.  The
    matrix is read once, for the flat index of each relevant item; every
    later step works on those indices, one value per relevant item, or on
    one value per row.  A row's items are one run of the indices, found by
    a binary search per row, and its k-th relevant item, at rank i, has k
    hits in the top i.  ``relevant`` holds each row's count of relevant
    items; a row with none scores NaN AP and PR-AUC and 0 F1 and NDCG.  The
    callers check the cutoffs.
    """
    nq, length = relevance.shape
    flat = np.flatnonzero(relevance)
    row_start = np.arange(nq + 1) * length  # the flat index of each row's rank 0
    bounds = np.searchsorted(flat, row_start)
    start, total = bounds[:-1], np.diff(bounds)
    row = np.repeat(np.arange(nq), total)
    pos = flat - np.repeat(row_start[:-1], total)  # each row's relevant ranks, ascending
    hits = np.arange(1, flat.size + 1.0)
    hits -= np.repeat(start, total)
    precision = hits / (pos + 1)

    ap = np.full(nq, np.nan)
    for count in np.unique(total[total > 0]):
        rows = np.flatnonzero(total == count)
        # a (rows, count) block's row means sum in the pairwise order of a
        # 1-D np.mean, so AP does not depend on which rows share the block
        ap[rows] = precision[start[rows, None] + np.arange(count)].mean(axis=1)

    # trapezoids between consecutive rank-sampled (recall, precision)
    # points; recall only moves at relevant ranks, from (0, 1) at rank 0
    recall = hits / np.repeat(total.astype(np.float64), total)
    # a recall step is k / total - (k - 1) / total, and (k - 1) / total is
    # the bits of the recall before it in the row, or 0.0 at the row's first
    area = np.empty_like(recall)
    np.subtract(recall[1:], recall[:-1], out=area[1:])
    heads = start[total > 0]
    area[heads] = recall[heads]
    before = hits - 1.0
    np.divide(before, np.maximum(pos, 1), out=before)
    before[heads[pos[heads] == 0]] = 1.0  # (0, 1) opens a row whose first item is relevant
    before += precision
    area *= before
    area /= 2.0
    pr_auc = np.where(total > 0, np.bincount(row, area, minlength=nq), np.nan)

    cut = np.minimum(length, np.maximum(total, 1)) if f1_cutoff is None else np.full(nq, f1_cutoff)
    # a row's relevant items above its cutoff are those before the flat
    # index of its rank min(cutoff, L)
    found = np.searchsorted(flat, row_start[:-1] + np.minimum(cut, length)) - start
    found = found.astype(np.float64)
    prec_at = found / cut
    rec_at = np.divide(found, total, out=np.zeros(nq), where=total > 0)
    both = prec_at + rec_at
    f1 = np.divide(2.0 * prec_at * rec_at, both, out=np.zeros(nq), where=both != 0.0)

    dcg = np.bincount(row, gain[pos], minlength=nq)
    ideal = ideal_dcg[total]
    ndcg = np.divide(dcg, ideal, out=np.zeros(nq), where=ideal > 0.0)
    return {"map": ap, "pr_auc": pr_auc, "f1": f1, "ndcg": ndcg, "relevant": total}


def _one_row(relevance, f1_cutoff: int | None = None, ndcg_cutoff: int | None = None) -> dict:
    """``_row_metrics`` of one 1-D relevance list, as scalars."""
    r = np.asarray(relevance)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("relevance must be a non-empty 1-D array")
    _check_cutoff(f1_cutoff)
    _check_cutoff(ndcg_cutoff)
    scores = _row_metrics((r != 0)[None, :], f1_cutoff, *_gain_tables(r.size, ndcg_cutoff))
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
                  [[r.aggregation, r.map, r.pr_auc, r.f1, r.ndcg, self.total_queries,
                    self.skipped_queries] for r in (self.micro, self.macro)])


def evaluate_run(
    run: RetrievalRun,
    f1_cutoff: int | None = None,
    ndcg_cutoff: int | None = None,
) -> EvalSummary:
    """Score every query and roll the scored ones up twice.

    A query with no relevant gallery item is skipped.  Micro is the mean of
    each metric over the scored queries; macro is the mean of its per-class
    means over the scored queries.  ``run.query_labels`` needs one label
    per relevance row, and a relevance matrix that is not bool counts its
    nonzero entries as relevant.

    ``_row_metrics`` scores ``_SCORE_ROWS`` rows at a time, on
    ``vectors.share_blocks``' threads, reading a bool matrix in place.  The
    NDCG gain tables are built once per call.  Beside the relevance matrix
    (and its bool copy when it is not bool), a thread holds about a dozen
    arrays of one value per relevant item of its block.
    """
    relevance = np.asarray(run.relevance)
    if relevance.ndim != 2 or len(relevance) == 0:
        raise ValueError("need a (Q, L) relevance matrix with at least one query row")
    labels = np.asarray(run.query_labels)
    if labels.shape != relevance.shape[:1]:
        raise ValueError(f"need one query label per relevance row: {len(relevance)} rows, "
                         f"query_labels of shape {labels.shape}")
    _check_cutoff(f1_cutoff)
    _check_cutoff(ndcg_cutoff)
    if relevance.shape[1] == 0:  # an empty gallery; scoring it would divide by a zero cutoff
        raise ValueError("no query had any relevant gallery item")
    if relevance.dtype != bool:  # the cast and a bool scan beat a scan of wider entries
        relevance = relevance != 0
    gains = _gain_tables(relevance.shape[1], ndcg_cutoff)
    # a row's scores depend on that row alone, so row blocks keep the bits;
    # the list keeps the block order whichever thread scored a block
    blocks = [None] * -(-len(relevance) // _SCORE_ROWS)

    def score_block(lo, hi):
        blocks[lo // _SCORE_ROWS] = _row_metrics(relevance[lo:hi], f1_cutoff, *gains)

    share_blocks(len(relevance), _SCORE_ROWS, _shared(len(relevance)), score_block)
    scores = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    kept = scores.pop("relevant") > 0  # a query with no relevant item is skipped
    if not kept.any():
        raise ValueError("no query had any relevant gallery item")
    per = {name: values[kept] for name, values in scores.items()}
    kept_labels = labels[kept]
    masks = [kept_labels == c for c in np.unique(kept_labels)]
    return EvalSummary(
        micro=MetricsReport(**{k: float(np.mean(v)) for k, v in per.items()},
                            aggregation="micro"),
        macro=MetricsReport(**{k: float(np.mean([np.mean(v[m]) for m in masks]))
                               for k, v in per.items()}, aggregation="macro"),
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
        """The fields in order, arrays as lists, then the two summaries."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}
        out["max_pairwise_centerline_cosine"] = self.max_pairwise_centerline_cosine
        out["mean_own_cosine"] = self.mean_own_cosine
        return out

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def save_cosine_csv(self, path) -> None:
        """K x K centerline cosine matrix as CSV for external plotting."""
        k = self.centerline_cosines.shape[0]
        write_csv(path, ["class", *(str(i) for i in range(1, k + 1))],
                  [[i, *row] for i, row in enumerate(self.centerline_cosines.tolist(), start=1)])


def _safe_unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.zeros_like(v)


def geometry_report(features: np.ndarray, labels, bank: CenterlineBank) -> GeometryReport:
    """Measure centerline separation and per-class feature alignment.

    Zero-norm features contribute an own-cosine of 0 (they lie on no line).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.size == 0 or labels.shape != (features.shape[0],):
        raise ValueError("need non-empty (N, n) features with aligned labels")
    if features.shape[1] != bank.dim:
        raise ValueError(f"features have width {features.shape[1]}, the centerline bank {bank.dim}")
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
