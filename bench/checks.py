"""Output checks for the benchmark: brute-force retrieval oracles and a
ranking checker, written independently of ``cipbench.retrieval``.

The oracles follow the metric conventions in the README: average precision
is the mean precision at each relevant rank; PR-AUC is the trapezoidal area
under the rank-sampled precision-recall points from (0, 1); NDCG uses
binary gains rel_i / log2(i + 1); the F1 cutoff defaults to the number of
relevant items.  They sum in a plain loop, so they agree with the
vectorized library to rounding only: ``metrics_agree`` allows 1e-12
relative error, about 10^4 float64 ulps, which covers the reordered sums
over a ranking of a few thousand items.
"""

from __future__ import annotations

import math

import numpy as np

TIE_TOLERANCE = 1e-12


def ap_oracle(rel) -> float:
    total = sum(1 for r in rel if r)
    acc, hits = 0.0, 0
    for i, r in enumerate(rel, start=1):
        if r:
            hits += 1
            acc += hits / i
    return acc / total


def prauc_oracle(rel) -> float:
    total = sum(1 for r in rel if r)
    points = [(0.0, 1.0)]
    hits = 0
    for i, r in enumerate(rel, start=1):
        hits += 1 if r else 0
        points.append((hits / total, hits / i))
    return sum((x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(points, points[1:]))


def ndcg_oracle(rel) -> float:
    rel = [1 if r else 0 for r in rel]
    dcg = sum(r / math.log2(i + 1) for i, r in enumerate(rel, start=1))
    ideal = sum(r / math.log2(i + 1) for i, r in enumerate(sorted(rel, reverse=True), start=1))
    return dcg / ideal if ideal > 0 else 0.0


def f1_oracle(rel) -> float:
    rel = [1 if r else 0 for r in rel]
    total = sum(rel)
    cutoff = min(len(rel), max(total, 1))
    hits = sum(rel[:cutoff])
    precision = hits / cutoff
    recall = hits / total if total else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def metrics_agree(retrieval, rel) -> list[tuple[str, bool]]:
    """Library metrics for one relevance list against the oracles."""
    pairs = (
        ("map", retrieval.average_precision(rel), ap_oracle(rel)),
        ("pr_auc", retrieval.pr_auc(rel), prauc_oracle(rel)),
        ("ndcg", retrieval.ndcg(rel), ndcg_oracle(rel)),
        ("f1", retrieval.f1_at(rel), f1_oracle(rel)),
    )
    return [(name, math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)) for name, got, want in pairs]


def ranking_faults(descriptors: np.ndarray, labels: np.ndarray, query: int,
                   ranking: np.ndarray, relevance: np.ndarray) -> list[str]:
    """Why one leave-one-out ranking is wrong; empty when it is right.

    The ranking must hold every other descriptor exactly once (no self
    match), in non-decreasing cosine distance, with distances equal to
    within ``TIE_TOLERANCE`` ordered by ascending index, and its relevance
    flags must mark exactly the gallery items that share the query label.
    """
    faults = []
    expected = np.delete(np.arange(len(descriptors)), query)
    if ranking.shape != expected.shape or not np.array_equal(np.sort(ranking), expected):
        faults.append("ranking is not every other descriptor exactly once")
        return faults
    unit = descriptors / np.linalg.norm(descriptors, axis=1)[:, None]
    step = np.diff(1.0 - unit[ranking] @ unit[query])
    if (step < -TIE_TOLERANCE).any():
        faults.append("distance decreases along the ranking")
    if ((np.abs(step) <= TIE_TOLERANCE) & (np.diff(ranking) < 0)).any():
        faults.append("a tie is not broken by ascending index")
    if not np.array_equal(np.asarray(relevance) != 0, labels[ranking] == labels[query]):
        faults.append("relevance flags do not match labels")
    return faults
