"""Independent reference implementations used as test oracles.

Everything here is written as plain sequential Python and numpy (explicit
loops over samples and classes, left-to-right accumulation) on purpose:
these functions must not share any code path with the library they check.
"""

from __future__ import annotations

import math

import numpy as np


def seq_dot(f, g):
    """Left-to-right sequential inner product."""
    acc = 0.0
    for a, b in zip(f, g):
        acc += float(a) * float(b)
    return acc


def seq_mean(rows):
    """Left-to-right sequential component-wise mean."""
    dim = len(rows[0])
    acc = [0.0] * dim
    for row in rows:
        for j in range(dim):
            acc[j] += float(row[j])
    return [a / len(rows) for a in acc]


def central_diff(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn at vector/array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
        it.iternext()
    return grad


def rel_err(approx, exact):
    """Norm-relative error |approx - exact| / max(|exact|, tiny)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(float(np.linalg.norm(exact)), 1e-300)
    return float(np.linalg.norm(approx - exact)) / denom


# ---------------------------------------------------------------------------
# per-sample CIP loss references (labels 1-based, class k owns centers[k-1])
# ---------------------------------------------------------------------------

SINGULARITY_GUARD = 1e-9  # |f.c + d| below this is treated as the pole itself


def cluster_forward_unclipped(features, labels, centers, d):
    """Literal pull term sum_i 1 / (f_i . c_{y_i} + d), without the clip.

    It can go negative and blows up near f.c = -d, which is the instability
    the clipped production form avoids.
    """
    acc = 0.0
    for f, y in zip(features, labels):
        acc += 1.0 / (seq_dot(f, centers[y - 1]) + d)
    return acc


def cluster_grad_feature(f, c, d):
    """Clipped pull gradient on one feature: -c / ((f.c)_+ + d)^2."""
    c = np.asarray(c, dtype=np.float64)
    return -c / (max(seq_dot(f, c), 0.0) + d) ** 2


def cluster_grad_feature_origin(f, c, d):
    """Unclipped pull gradient -c / (f.c + d)^2; raises inside the guard band
    around the pole instead of returning a huge vector."""
    c = np.asarray(c, dtype=np.float64)
    denom = seq_dot(f, c) + d
    if abs(denom) < SINGULARITY_GUARD:
        raise ValueError(f"pull gradient singular: f.c + d = {denom:.3e}")
    return -c / denom**2


def ortho_grad_feature(f, centers, own_label):
    """Push gradient on one feature: the sum of the other-class centerlines
    with a strictly positive inner product."""
    grad = np.zeros(len(f))
    for k, c in enumerate(np.asarray(centers, dtype=np.float64), start=1):
        if k != own_label and seq_dot(f, c) > 0.0:
            grad += c
    return grad


def ortho_batch_grad_feature(features, labels, i):
    """Batch push gradient on feature i: 2 * the sum of the other-class
    features with a positive inner product (ordered pairs count twice)."""
    features = np.asarray(features, dtype=np.float64)
    grad = np.zeros(features.shape[1])
    for f, y in zip(features, labels):
        if y != labels[i] and seq_dot(features[i], f) > 0.0:
            grad += f
    return 2.0 * grad


def cluster_grad_centerline(features, labels, centers, class_index, d):
    """Clipped pull gradient on the centerline of ``class_index``."""
    c = np.asarray(centers, dtype=np.float64)[class_index - 1]
    grad = np.zeros_like(c)
    for f, y in zip(np.asarray(features, dtype=np.float64), labels):
        if y == class_index:
            grad -= f / (max(seq_dot(f, c), 0.0) + d) ** 2
    return grad


def ortho_grad_centerline(features, labels, centers, class_index):
    """Averaged push gradient on a centerline: the sum of its other-class
    violators divided by (1 + violator count)."""
    c = np.asarray(centers, dtype=np.float64)[class_index - 1]
    grad = np.zeros_like(c)
    count = 0
    for f, y in zip(np.asarray(features, dtype=np.float64), labels):
        if y != class_index and seq_dot(f, c) > 0.0:
            grad += f
            count += 1
    return grad / (1.0 + count)


# ---------------------------------------------------------------------------
# brute-force retrieval metrics (binary relevance lists, best rank first)
# ---------------------------------------------------------------------------


def ap_brute(rel):
    total = sum(1 for r in rel if r)
    if total == 0:
        raise ValueError("no relevant items")
    acc = 0.0
    hits = 0
    for i, r in enumerate(rel, start=1):
        if r:
            hits += 1
            acc += hits / i
    return acc / total


def prauc_brute(rel):
    total = sum(1 for r in rel if r)
    if total == 0:
        raise ValueError("no relevant items")
    points = [(0.0, 1.0)]
    hits = 0
    for i, r in enumerate(rel, start=1):
        if r:
            hits += 1
        points.append((hits / total, hits / i))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def ndcg_brute(rel, cutoff=None):
    rel = [1 if r else 0 for r in rel]
    if cutoff is None:
        cutoff = len(rel)
    dcg = 0.0
    for i, r in enumerate(rel[:cutoff], start=1):
        dcg += r / math.log2(i + 1)
    ideal = 0.0
    for i, r in enumerate(sorted(rel, reverse=True)[:cutoff], start=1):
        ideal += r / math.log2(i + 1)
    return dcg / ideal if ideal > 0 else 0.0


def f1_brute(rel, cutoff=None):
    rel = [1 if r else 0 for r in rel]
    total = sum(rel)
    if cutoff is None:
        cutoff = min(len(rel), max(total, 1))
    hits = sum(rel[:cutoff])
    precision = hits / cutoff
    recall = hits / total if total else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# per-object and per-query retrieval loops: the whole-array pooling, ranking
# and scoring in ``cipbench.retrieval`` must reproduce them
# ---------------------------------------------------------------------------


def pool_loop(features, object_ids, labels):
    """One mask and one ``mean(axis=0)`` per object, in first-appearance order."""
    features = np.asarray(features, dtype=np.float64)
    object_ids = np.asarray(object_ids)
    labels = np.asarray(labels)
    uniq, first = np.unique(object_ids, return_index=True)
    order = uniq[np.argsort(first)]
    descs, obj_labels = [], []
    for oid in order:
        mask = object_ids == oid
        descs.append(features[mask].mean(axis=0))
        obj_labels.append(int(labels[mask][0]))
    return np.stack(descs), np.array(obj_labels, dtype=np.int64), order


def rank_loop(descriptors, labels):
    """(query indices, rankings, relevance): one stable sort per query over
    the other nonzero descriptors, which are in ascending index order."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    norms = np.linalg.norm(descriptors, axis=1)
    keep = np.flatnonzero(norms > 0.0)
    unit = descriptors[keep] / norms[keep, None]
    dist = 1.0 - unit @ unit.T
    rankings, rels = [], []
    for qi in range(keep.size):
        others = np.delete(np.arange(keep.size), qi)
        gallery = keep[others[np.argsort(dist[qi, others], kind="stable")]]
        rankings.append(gallery)
        rels.append(labels[gallery] == labels[keep[qi]])
    return keep, np.array(rankings), np.array(rels)


def _query_metrics(rel, f1_cutoff, ndcg_cutoff):
    """AP, PR-AUC, F1 and NDCG of one relevance row, one numpy pass each."""
    r = (np.asarray(rel) != 0).astype(np.float64)
    total = r.sum()
    hits = np.cumsum(r)
    ranks = np.arange(1, r.size + 1)
    ap = float(np.mean((hits / ranks)[r > 0]))
    recall = np.concatenate([[0.0], hits / total])
    precision = np.concatenate([[1.0], hits / ranks])
    prauc = float(np.sum(np.diff(recall) * (precision[:-1] + precision[1:]) / 2.0))
    cutoff = int(min(r.size, max(total, 1))) if f1_cutoff is None else f1_cutoff
    found = float(r[:cutoff].sum())
    p, q = found / cutoff, found / total
    f1 = 0.0 if p + q == 0.0 else 2.0 * p * q / (p + q)
    depth = r.size if ndcg_cutoff is None else ndcg_cutoff
    discounts = np.log2(np.arange(2, min(depth, r.size) + 2))
    ideal = float(np.sum(np.sort(r)[::-1][:depth] / discounts))
    ndcg = float(np.sum(r[:depth] / discounts)) / ideal
    return {"map": ap, "pr_auc": prauc, "f1": f1, "ndcg": ndcg}


def evaluate_loop(relevance, query_labels, f1_cutoff=None, ndcg_cutoff=None):
    """(micro, macro, skipped): per-query metrics of every query with a
    relevant item, rolled up over queries and over per-class means."""
    per = {"map": [], "pr_auc": [], "f1": [], "ndcg": []}
    kept, skipped = [], 0
    for rel, label in zip(relevance, query_labels):
        if np.asarray(rel).sum() == 0:
            skipped += 1
            continue
        for name, value in _query_metrics(rel, f1_cutoff, ndcg_cutoff).items():
            per[name].append(value)
        kept.append(label)
    kept = np.asarray(kept)
    micro = {name: float(np.mean(v)) for name, v in per.items()}
    macro = {
        name: float(np.mean([np.mean(np.asarray(v)[kept == c]) for c in np.unique(kept)]))
        for name, v in per.items()
    }
    return micro, macro, skipped


def generate_loop(spec, prototypes):
    """(inputs, labels, object ids, view indices) of ``cipbench.data.generate``
    with one normal draw per view; ``prototypes`` draws the class prototypes
    from the generator first."""
    rng = np.random.default_rng(spec.seed)
    protos = prototypes(spec, rng)
    rows, labels, oids, vids = [], [], [], []
    oid = 0
    for k in range(1, spec.num_classes + 1):
        for _ in range(spec.objects_per_class):
            oid += 1
            obj = protos[k - 1] + rng.normal(0.0, spec.object_noise_std, spec.input_dim)
            for v in range(1, spec.views_per_object + 1):
                rows.append(obj + rng.normal(0.0, spec.view_noise_std, spec.input_dim))
                labels.append(k)
                oids.append(oid)
                vids.append(v)
    return np.array(rows), np.array(labels), np.array(oids), np.array(vids)
