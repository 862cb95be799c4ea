import itertools

import numpy as np
import pytest

from cipbench.losses import CenterlineBank
from cipbench.retrieval import (
    aggregate,
    average_precision,
    evaluate_run,
    f1_at,
    geometry_report,
    mean_pool,
    ndcg,
    pool_descriptors,
    pr_auc,
    rank,
)

from oracles import (
    ap_brute,
    evaluate_loop,
    f1_brute,
    ndcg_brute,
    pool_loop,
    prauc_brute,
    rank_loop,
    seq_mean,
)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_rank_sorts_by_cosine_distance():
    descs = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
    labels = np.array([1, 1, 2])
    run = rank(descs, labels)
    np.testing.assert_array_equal(run.rankings[0], [1, 2])  # closest first
    np.testing.assert_array_equal(run.relevance[0], [1, 0])


def test_rank_excludes_query_itself():
    descs = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    run = rank(descs, np.array([1, 1, 2]))
    for qi, order in zip(run.query_indices, run.rankings):
        assert qi not in order
        assert len(order) == 2


def test_rank_all_same_class_all_relevant():
    descs = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.3]])
    run = rank(descs, np.array([1, 1, 1]))
    for rel in run.relevance:
        assert rel.sum() == len(rel)


def test_rank_ties_broken_by_ascending_index():
    # items 1 and 2 are identical, so equidistant from the query
    descs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    run = rank(descs, np.array([1, 2, 2]))
    np.testing.assert_array_equal(run.rankings[0], [1, 2])


def test_rank_scale_invariance():
    rng = np.random.default_rng(0)
    descs = rng.standard_normal((8, 4))
    labels = rng.integers(1, 4, 8)
    base = rank(descs, labels)
    scaled = rank(descs * rng.uniform(0.5, 20.0, size=(8, 1)), labels)
    for a, b in zip(base.rankings, scaled.rankings):
        np.testing.assert_array_equal(a, b)


def test_rank_zero_norm_excluded_with_warning():
    descs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
    with pytest.warns(UserWarning, match="zero-norm"):
        run = rank(descs, np.array([1, 1, 2, 1]))
    assert run.excluded == [1]
    assert run.num_queries == 3
    for order in run.rankings:
        assert 1 not in order


def test_rank_needs_two_usable_descriptors():
    with pytest.warns(UserWarning, match="zero-norm"):
        with pytest.raises(ValueError, match="at least two"):
            rank(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1, 1]))


def _assert_rank_matches_loop(descs, labels):
    run = rank(descs, labels)
    keep, rankings, relevance = rank_loop(descs, labels)
    np.testing.assert_array_equal(run.query_indices, keep)
    assert run.rankings.shape == rankings.shape == (keep.size, keep.size - 1)
    assert np.array_equal(run.rankings, rankings)
    assert run.relevance.dtype == bool
    assert np.array_equal(run.relevance, relevance)


def test_rank_equals_per_query_loop_on_random_descriptors():
    # 60 rows are one 64-row block; 150 end in a partial third block
    rng = np.random.default_rng(3)
    _assert_rank_matches_loop(rng.standard_normal((60, 5)), rng.integers(1, 5, 60))
    _assert_rank_matches_loop(rng.standard_normal((150, 5)), rng.integers(1, 5, 150))


def test_rank_equals_per_query_loop_with_exact_ties():
    # duplicated rows give bit-equal distances, and small integer vectors
    # give many parallel pairs: every such tie must break by ascending index
    rng = np.random.default_rng(4)
    base = rng.standard_normal((30, 4))
    descs = base[rng.integers(0, 12, 50)]
    _assert_rank_matches_loop(descs, rng.integers(1, 4, 50))
    _assert_rank_matches_loop(rng.integers(-2, 3, (50, 3)).astype(float) + [0.0, 0.0, 3.0],
                              rng.integers(1, 4, 50))
    # a group of duplicates on both sides of the first block edge (row 64)
    descs = rng.standard_normal((150, 4))
    descs[58:71] = descs[7]
    _assert_rank_matches_loop(descs, rng.integers(1, 4, 150))


def test_rank_equals_per_query_loop_with_zero_norm_rows():
    rng = np.random.default_rng(5)
    descs = rng.standard_normal((40, 4))
    descs[[0, 17, 39]] = 0.0
    descs[20] = descs[21]
    labels = rng.integers(1, 4, 40)
    with pytest.warns(UserWarning, match="zero-norm"):
        run = rank(descs, labels)
    assert run.excluded == [0, 17, 39]
    with pytest.warns(UserWarning, match="zero-norm"):
        _assert_rank_matches_loop(descs, labels)
    # zero-norm rows on both sides of input rows 64 and 128 shift each
    # later 64-row block of ranked rows; duplicates sit among them
    descs = rng.standard_normal((150, 4))
    descs[60:70] = descs[100]
    descs[[3, 63, 64, 66, 127, 130, 131]] = 0.0
    labels = rng.integers(1, 4, 150)
    with pytest.warns(UserWarning, match="zero-norm"):
        run = rank(descs, labels)
    assert run.excluded == [3, 63, 64, 66, 127, 130, 131]
    with pytest.warns(UserWarning, match="zero-norm"):
        _assert_rank_matches_loop(descs, labels)


def test_rank_rejects_non_finite_descriptors():
    with pytest.raises(ValueError, match="finite"):
        rank(np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]), np.array([1, 1, 2]))


# ---------------------------------------------------------------------------
# metric examples
# ---------------------------------------------------------------------------


def test_average_precision_examples():
    assert average_precision([1, 0, 1]) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)
    assert average_precision([1, 1, 1]) == 1.0
    assert average_precision([0, 1, 0, 1]) == pytest.approx(0.5, rel=1e-12)


def test_average_precision_no_relevant_rejected():
    with pytest.raises(ValueError, match="no relevant"):
        average_precision([0, 0, 0])


def test_pr_auc_examples():
    assert pr_auc([1]) == 1.0
    assert pr_auc([1, 1, 1, 0, 0]) == 1.0  # perfect ranking
    # relevant at ranks 2 and 4 of 4: brute-force trapezoid gives 1/3
    assert pr_auc([0, 1, 0, 1]) == pytest.approx(prauc_brute([0, 1, 0, 1]), abs=1e-15)
    assert pr_auc([0, 1, 0, 1]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_ndcg_examples():
    assert ndcg([1, 1, 0]) == 1.0
    expected = 1.5 / (1.0 + 1.0 / np.log2(3.0))
    assert ndcg([1, 0, 1]) == pytest.approx(expected, rel=1e-12)
    assert round(ndcg([1, 0, 1]), 5) == 0.91972
    assert ndcg([0, 0, 0], cutoff=3) == 0.0


def test_ndcg_cutoff_validation():
    with pytest.raises(ValueError, match="cutoff"):
        ndcg([1, 0], cutoff=0)


def test_f1_examples():
    assert f1_at([1, 1, 0, 0], cutoff=2) == 1.0  # perfect at cutoff = #relevant
    # precision 0.5, recall 0.5: 2 relevant total, 1 found in cutoff 2
    assert f1_at([1, 0, 0, 1], cutoff=2) == pytest.approx(0.5, rel=1e-12)
    assert f1_at([0, 0, 0, 1], cutoff=2) == pytest.approx(f1_brute([0, 0, 0, 1], 2), rel=1e-12)
    assert f1_at([0, 0, 0], cutoff=2) == 0.0


def test_f1_default_cutoff_perfect_ranking():
    assert f1_at([1, 1, 1, 0, 0]) == 1.0


# ---------------------------------------------------------------------------
# exhaustive oracle equivalence (every binary pattern up to length 8)
# ---------------------------------------------------------------------------


def test_metrics_match_brute_force_exhaustively():
    for length in range(1, 9):
        for pattern in itertools.product((0, 1), repeat=length):
            if sum(pattern) == 0:
                with pytest.raises(ValueError):
                    average_precision(pattern)
                assert ndcg(pattern) == 0.0
                assert f1_at(pattern, cutoff=1) == 0.0
                continue
            assert average_precision(pattern) == pytest.approx(ap_brute(pattern), abs=1e-14)
            assert pr_auc(pattern) == pytest.approx(prauc_brute(pattern), abs=1e-14)
            assert ndcg(pattern) == pytest.approx(ndcg_brute(pattern), abs=1e-14)
            assert f1_at(pattern) == pytest.approx(f1_brute(pattern), abs=1e-14)
            for cutoff in range(1, length + 1):
                assert ndcg(pattern, cutoff) == pytest.approx(ndcg_brute(pattern, cutoff), abs=1e-14)
                assert f1_at(pattern, cutoff) == pytest.approx(f1_brute(pattern, cutoff), abs=1e-14)


def test_map_invariant_within_equal_relevance_runs():
    # permuting items inside a run of equal flags cannot change AP
    base = [1, 0, 0, 1, 1, 0]
    rng = np.random.default_rng(1)
    reference = average_precision(base)
    for _ in range(20):
        perm = base.copy()
        # swap within the run of zeros at positions 1-2 and ones at 3-4
        if rng.random() < 0.5:
            perm[1], perm[2] = perm[2], perm[1]
        if rng.random() < 0.5:
            perm[3], perm[4] = perm[4], perm[3]
        assert average_precision(perm) == pytest.approx(reference, abs=1e-15)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_micro_vs_macro():
    metrics = {"map": [1.0, 1.0, 0.0], "pr_auc": [1.0, 1.0, 0.0],
               "f1": [1.0, 1.0, 0.0], "ndcg": [1.0, 1.0, 0.0]}
    labels = [1, 1, 2]
    micro = aggregate(metrics, labels, "micro")
    macro = aggregate(metrics, labels, "macro")
    assert micro.map == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert macro.map == pytest.approx(0.5, rel=1e-12)


def test_aggregate_single_class_micro_equals_macro():
    metrics = {"map": [0.4, 0.8], "pr_auc": [0.4, 0.8], "f1": [0.4, 0.8], "ndcg": [0.4, 0.8]}
    micro = aggregate(metrics, [1, 1], "micro")
    macro = aggregate(metrics, [1, 1], "macro")
    assert micro.map == macro.map == pytest.approx(0.6, rel=1e-12)


def test_aggregate_balanced_classes_micro_equals_macro():
    full = {"map": [0.2, 0.4, 0.6, 0.8], "pr_auc": [0.2, 0.4, 0.6, 0.8],
            "f1": [0.2, 0.4, 0.6, 0.8], "ndcg": [0.2, 0.4, 0.6, 0.8]}
    labels = [1, 1, 2, 2]
    assert aggregate(full, labels, "micro").map == pytest.approx(
        aggregate(full, labels, "macro").map, rel=1e-12
    )


def test_aggregate_rejects_unknown_mode():
    with pytest.raises(ValueError, match="micro or macro"):
        aggregate({"map": [1.0], "pr_auc": [1.0], "f1": [1.0], "ndcg": [1.0]}, [1], "median")


def test_evaluate_run_counts_skipped_queries():
    # one singleton class: its query has no relevant gallery items
    descs = np.array([[1.0, 0.0], [0.9, 0.2], [0.0, 1.0]])
    run = rank(descs, np.array([1, 1, 2]))
    summary = evaluate_run(run)
    assert summary.total_queries == 3
    assert summary.skipped_queries == 1
    assert 0.0 <= summary.micro.map <= 1.0


def test_evaluate_run_perfect_embedding():
    descs = np.array([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0], [0.01, 1.0]])
    run = rank(descs, np.array([1, 1, 2, 2]))
    summary = evaluate_run(run)
    assert summary.micro.map == 1.0
    assert summary.macro.map == 1.0
    assert summary.micro.ndcg == 1.0


def _unbalanced_run():
    # three classes of 140, 12 and 1 objects: AP sums 139 precisions (past
    # np.mean's 128-item pairwise block) or 11; the singleton's query has no
    # relevant item and is skipped
    rng = np.random.default_rng(6)
    labels = np.repeat([1, 2, 3], [140, 12, 1])
    centers = rng.standard_normal((3, 6))
    descs = centers[labels - 1] + 0.9 * rng.standard_normal((labels.size, 6))
    return rank(descs, labels)


@pytest.mark.parametrize("f1_cutoff", [None, 1, 5, 500])
@pytest.mark.parametrize("ndcg_cutoff", [None, 1, 5, 500])
def test_evaluate_run_equals_per_query_loop(f1_cutoff, ndcg_cutoff):
    run = _unbalanced_run()
    summary = evaluate_run(run, f1_cutoff, ndcg_cutoff)
    micro, macro, skipped = evaluate_loop(run.relevance, run.query_labels, f1_cutoff, ndcg_cutoff)
    assert (summary.total_queries, summary.skipped_queries) == (153, 1) and skipped == 1
    for report, want in ((summary.micro, micro), (summary.macro, macro)):
        # MAP and F1 sum in the loop's order; PR-AUC and NDCG may round differently
        assert report.map == want["map"]
        assert report.f1 == want["f1"]
        assert report.pr_auc == pytest.approx(want["pr_auc"], rel=1e-12)
        assert report.ndcg == pytest.approx(want["ndcg"], rel=1e-12)


def test_evaluate_run_rejects_cutoff_below_one():
    with pytest.raises(ValueError, match="cutoff"):
        evaluate_run(_unbalanced_run(), f1_cutoff=0)


# ---------------------------------------------------------------------------
# descriptor pooling
# ---------------------------------------------------------------------------


def test_pool_descriptors_means_per_object():
    feats = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
    oids = np.array([7, 7, 9])
    labels = np.array([1, 1, 2])
    descs, dlabels, order = pool_descriptors(feats, oids, labels)
    np.testing.assert_allclose(descs, [[2.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(dlabels, [1, 2])
    np.testing.assert_array_equal(order, [7, 9])


def test_pool_descriptors_equals_per_object_loop_bit_for_bit():
    # interleaved object ids with 1 to 11 views each, and a column of -0.0
    # (whose mean is +0.0, as the loop's mean(axis=0) gives)
    rng = np.random.default_rng(7)
    oids = rng.permutation(np.repeat(rng.permutation(50) + 100, rng.integers(1, 12, 50)))
    labels = oids % 7 + 1
    feats = rng.standard_normal((oids.size, 5)) * 10.0 ** rng.integers(-3, 4, (oids.size, 1))
    feats[:, 2] = -0.0
    got = pool_descriptors(feats, oids, labels)
    want = pool_loop(feats, oids, labels)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pool_descriptors_rejects_non_finite_features(bad):
    feats = np.ones((4, 2))
    feats[2, 1] = bad
    with pytest.raises(ValueError, match=r"features\[2\] has non-finite"):
        pool_descriptors(feats, np.array([1, 1, 2, 2]), np.array([1, 1, 2, 2]))


# ``mean_pool`` is ``pool_descriptors`` of one object's views


def test_mean_pool_two_views():
    np.testing.assert_allclose(mean_pool([np.array([1.0, 0.0]), np.array([3.0, 0.0])]),
                               [2.0, 0.0])


def test_mean_pool_single_view_identity():
    v = np.array([0.4, -1.2, 7.0])
    np.testing.assert_array_equal(mean_pool([v]), v)


def test_mean_pool_symmetric_cancellation():
    v = np.array([2.0, -3.0])
    np.testing.assert_allclose(mean_pool([v, -v]), [0.0, 0.0], atol=1e-15)


def test_mean_pool_empty_rejected():
    with pytest.raises(ValueError, match="need non-empty"):
        mean_pool([])


def test_mean_pool_mixed_dims_rejected():
    with pytest.raises(ValueError, match="inhomogeneous shape"):
        mean_pool([np.ones(2), np.ones(3)])


def test_mean_pool_accumulation_tolerance():
    # descriptor must equal the sequential mean of its views very tightly
    rng = np.random.default_rng(3)
    views = [rng.standard_normal(8) * 10 for _ in range(50)]
    np.testing.assert_allclose(mean_pool(views), seq_mean(views), atol=1e-12 * len(views))


def test_mean_pool_minimizes_summed_squared_distance():
    # grid oracle: scan candidate descriptors on a 2-D lattice around the
    # views; none may beat the pooled mean
    views = [np.array([0.5, 1.0]), np.array([2.0, -1.0]), np.array([-1.0, 0.25])]
    pooled = mean_pool(views)

    def objective(d):
        return sum(float(np.sum((v - d) ** 2)) for v in views)

    best = objective(pooled)
    for gx in np.linspace(-2.0, 2.5, 41):
        for gy in np.linspace(-1.5, 1.5, 41):
            assert objective(np.array([gx, gy])) >= best - 1e-9


# ---------------------------------------------------------------------------
# geometry report
# ---------------------------------------------------------------------------


def test_geometry_perfect_fixture():
    bank = CenterlineBank(np.eye(3) * 2.0)
    feats = np.array([[5.0, 0, 0], [0, 3.0, 0], [0, 0, 1.0]])
    labels = np.array([1, 2, 3])
    geo = geometry_report(feats, labels, bank)
    off = geo.centerline_cosines[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.0, atol=1e-12)
    np.testing.assert_allclose(geo.own_cosine_mean, 1.0, atol=1e-12)
    assert geo.max_pairwise_centerline_cosine == pytest.approx(0.0, abs=1e-12)
    assert geo.mean_own_cosine == pytest.approx(1.0, abs=1e-12)


def test_geometry_45_degree_feature():
    bank = CenterlineBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    feats = np.array([[1.0, 1.0]])
    labels = np.array([1])
    geo = geometry_report(feats, labels, bank)
    assert geo.own_cosine_mean[0] == pytest.approx(np.sqrt(0.5), rel=1e-9)
    assert round(geo.own_cosine_mean[0], 5) == 0.70711


def test_geometry_random_smoke():
    rng = np.random.default_rng(2)
    bank = CenterlineBank(rng.normal(0, 0.01, (4, 6)))
    feats = rng.standard_normal((20, 6))
    labels = rng.integers(1, 5, 20)
    geo = geometry_report(feats, labels, bank)
    assert np.isfinite(geo.centerline_cosines).all()
    assert np.isfinite(geo.max_cross_inner)
    assert np.all(np.abs(geo.centerline_cosines) <= 1.0 + 1e-12)


def test_geometry_serialization(tmp_path):
    bank = CenterlineBank(np.eye(2))
    geo = geometry_report(np.array([[1.0, 0.0]]), np.array([1]), bank)
    geo.save_json(tmp_path / "geometry.json")
    geo.save_cosine_csv(tmp_path / "geometry.csv")
    lines = (tmp_path / "geometry.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + K rows
    import json

    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert "max_pairwise_centerline_cosine" in doc
