import numpy as np
import pytest

from cipbench.losses import (
    CenterlineBank,
    LabeledBatch,
    LinearClassifier,
    LossConfig,
    center_loss,
    loss_report,
    normalized_weight_gradient,
    pull_term,
    push_batch_term,
    push_term,
    softmax_ce,
)

from oracles import (
    central_diff,
    cluster_forward_unclipped,
    cluster_grad_centerline,
    cluster_grad_feature,
    cluster_grad_feature_origin,
    ortho_batch_grad_feature,
    ortho_grad_centerline,
    ortho_grad_feature,
    rel_err,
)


def batch_of(features, labels):
    return LabeledBatch(np.asarray(features, dtype=float), np.asarray(labels))


def bank_of(centers):
    return CenterlineBank(np.asarray(centers, dtype=float))


def one_term(batch, bank, name, classifier=None, **overrides):
    """``loss_report`` with only the term ``name`` enabled."""
    return loss_report(batch, bank, LossConfig.from_name(name, **overrides), classifier)


def push_report(batch, bank):
    return one_term(batch, bank, "ortho", lam=1.0)


def push_batch_report(batch):
    return one_term(batch, None, "ortho", ortho_variant="batch", lam=1.0)


def softmax_report(batch, classifier):
    return one_term(batch, None, "softmax", classifier, softmax_weight=1.0)


def center_report(batch, bank):
    return one_term(batch, bank, "center", center_weight=1.0)


def pull_value(batch, bank, d):
    return one_term(batch, bank, "cluster", d=d).per_term["cluster"]


def push_value(batch, bank):
    return push_report(batch, bank).per_term["ortho"]


def push_batch_value(batch):
    return push_batch_report(batch).per_term["ortho"]


def combined_value(batch, bank, cfg):
    return loss_report(batch, bank, cfg).total


# ---------------------------------------------------------------------------
# pull term forward
# ---------------------------------------------------------------------------


def test_cluster_forward_direct():
    b = batch_of([[1, 0, 0]], [1])
    bank = bank_of([[3, 0, 0], [0, 1, 0]])
    assert pull_value(b, bank, 2.0) == pytest.approx(0.2, abs=1e-12)


def test_cluster_forward_orthogonal_feature():
    b = batch_of([[0, 1, 0]], [1])
    bank = bank_of([[3, 0, 0], [0, 0, 1]])
    assert pull_value(b, bank, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_cluster_forward_clipping_vs_unclipped():
    # f.c = -1: the clipped forward treats it as 0, the literal value does not
    b = batch_of([[1, 0]], [1])
    bank = bank_of([[-1, 0], [0, 1]])
    assert pull_value(b, bank, 2.0) == pytest.approx(0.5, abs=1e-12)
    literal = cluster_forward_unclipped(b.features, b.labels, bank.centers, 2.0)
    assert literal == pytest.approx(1.0, abs=1e-12)


def test_cluster_forward_rejects_bad_d():
    b = batch_of([[1, 0]], [1])
    bank = bank_of([[1, 0], [0, 1]])
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="d must be"):
            pull_value(b, bank, bad)


def test_cluster_forward_rejects_bad_label():
    b = batch_of([[1, 0]], [3])
    bank = bank_of([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"labels must lie in \[1, 2\]"):
        pull_value(b, bank, 2.0)


def test_cluster_forward_range():
    # clipped pull term lies in (0, M/d]
    rng = np.random.default_rng(0)
    for _ in range(50):
        m, k, n, d = 5, 3, 4, 2.0
        b = batch_of(rng.standard_normal((m, n)), rng.integers(1, k + 1, m))
        bank = bank_of(rng.standard_normal((k, n)))
        v = pull_value(b, bank, d)
        assert 0.0 < v <= m / d + 1e-12


# ---------------------------------------------------------------------------
# push term forward
# ---------------------------------------------------------------------------


def test_ortho_forward_indicator_selection():
    b = batch_of([[1, 1, 0]], [1])
    bank = bank_of([[5, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert push_value(b, bank) == pytest.approx(1.0, abs=1e-12)


def test_ortho_forward_fully_obtuse_is_zero():
    b = batch_of([[1, 0], [0, 1]], [1, 2])
    bank = bank_of([[1, -1], [-1, 1]])
    assert push_value(b, bank) == 0.0


def test_ortho_forward_single_negative_center():
    b = batch_of([[2, 0]], [2])
    bank = bank_of([[1, 0], [0, 1]])
    assert push_value(b, bank) == pytest.approx(2.0, abs=1e-12)


def test_ortho_forward_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = batch_of(rng.standard_normal((6, 3)), rng.integers(1, 4, 6))
        bank = bank_of(rng.standard_normal((3, 3)))
        assert push_value(b, bank) >= 0.0
        assert push_batch_value(b) >= 0.0


def test_ortho_batch_forward_ordered_pairs():
    b = batch_of([[1, 0], [1, 1]], [1, 2])
    assert push_batch_value(b) == pytest.approx(2.0, abs=1e-12)


def test_ortho_batch_forward_single_class_zero():
    b = batch_of([[1, 0], [1, 1], [0.5, 0.5]], [1, 1, 1])
    assert push_batch_value(b) == 0.0


def test_ortho_batch_forward_obtuse_zero():
    b = batch_of([[1, 0], [-1, 0.0]], [1, 2])
    assert push_batch_value(b) == 0.0


def test_push_batch_term_singleton_batch_is_zero():
    # a single sample has no cross-class partner: zero value, zero gradient
    report = push_batch_report(batch_of([[1, 0]], [1]))
    assert report.per_term["ortho"] == 0.0
    np.testing.assert_array_equal(report.feature_grads, [[0.0, 0.0]])


# ---------------------------------------------------------------------------
# combined forward
# ---------------------------------------------------------------------------


def test_cip_forward_lambda_zero_is_pull_only():
    rng = np.random.default_rng(2)
    b = batch_of(rng.standard_normal((4, 3)), [1, 2, 1, 2])
    bank = bank_of(rng.standard_normal((2, 3)))
    cfg = LossConfig(lam=0.0, d=2.0)
    assert combined_value(b, bank, cfg) == pytest.approx(pull_value(b, bank, 2.0), rel=1e-12)


def test_cip_forward_weighted_sum():
    # pull 0.2 + 0.25 = 0.45, push 0.6 + 0.4 = 1, lam 0.5 -> 0.95
    b = batch_of([[3, 0, 0], [2, 0, 0]], [1, 1])
    bank = bank_of([[1, 0, 0], [0.2, 0, 0]])
    assert pull_value(b, bank, 2.0) == pytest.approx(0.45, abs=1e-12)
    assert push_value(b, bank) == pytest.approx(1.0, abs=1e-12)
    cfg = LossConfig(lam=0.5, d=2.0)
    assert combined_value(b, bank, cfg) == pytest.approx(0.95, abs=1e-12)


def test_cip_forward_vanishes_with_both_terms():
    # push exactly 0, pull driven toward 0 by a huge own product
    b = batch_of([[1e12, 0], [0, 1e12]], [1, 2])
    bank = bank_of([[1, 0], [0, 1]])
    cfg = LossConfig(lam=1.0, d=2.0)
    assert push_value(b, bank) == 0.0
    assert combined_value(b, bank, cfg) == pytest.approx(0.0, abs=1e-11)


def test_cip_forward_batch_variant_dispatch():
    b = batch_of([[1, 0], [1, 1]], [1, 2])
    bank = bank_of([[1, 0], [0, 1]])
    cfg = LossConfig(lam=2.0, d=2.0, ortho_variant="batch")
    expected = pull_value(b, bank, 2.0) + 2.0 * push_batch_value(b)
    assert combined_value(b, bank, cfg) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# pull gradient w.r.t. features (clipped surrogate vs unclipped origin)
# ---------------------------------------------------------------------------


def test_cluster_grad_feature_positive_product():
    c = np.array([3.0, 0.0, 0.0])
    g = cluster_grad_feature([1.0, 0.0, 0.0], c, 2.0)
    np.testing.assert_allclose(g, -c / 25.0, atol=1e-15)


def test_cluster_grad_feature_clip_boundary():
    c = np.array([0.0, 2.0])
    g = cluster_grad_feature([1.0, 0.0], c, 2.0)
    np.testing.assert_allclose(g, -c / 4.0, atol=1e-15)


def test_cluster_grad_feature_negative_product_clipped():
    # f.c = -5: surrogate stays at -c/4, the unclipped origin gives -c/9
    f = np.array([1.0, 0.0])
    c = np.array([-5.0, 1.0])
    np.testing.assert_allclose(cluster_grad_feature(f, c, 2.0), -c / 4.0, atol=1e-15)
    np.testing.assert_allclose(cluster_grad_feature_origin(f, c, 2.0), -c / 9.0, atol=1e-15)


def test_cluster_grad_origin_positive_agrees():
    f = np.array([1.0, 0.0, 0.0])
    c = np.array([3.0, 0.0, 0.0])
    np.testing.assert_allclose(
        cluster_grad_feature_origin(f, c, 2.0), cluster_grad_feature(f, c, 2.0), atol=1e-15
    )


def test_cluster_grad_origin_boundary_agrees():
    f = np.array([0.0, 1.0])
    c = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        cluster_grad_feature_origin(f, c, 2.0), cluster_grad_feature(f, c, 2.0), atol=1e-15
    )


def test_cluster_grad_origin_singularity_guard():
    # f.c -> -d lands inside the guard band and must raise, not explode
    d = 2.0
    f = np.array([1.0, 0.0])
    c = np.array([-d + 1e-12, 0.0])
    with pytest.raises(ValueError, match="singular"):
        cluster_grad_feature_origin(f, c, d)


def test_cluster_grad_clipping_contract():
    # for f.c < 0 the surrogate is exactly -c/d^2 (norm bound |c|/d^2) while
    # the origin form grows without bound approaching the pole
    rng = np.random.default_rng(3)
    d = 2.0
    for _ in range(50):
        c = rng.standard_normal(4)
        f = -c * rng.uniform(0.1, 2.0) / np.dot(c, c)  # f.c < 0
        g = cluster_grad_feature(f, c, d)
        np.testing.assert_allclose(g, -c / d**2, atol=1e-12)
        assert np.linalg.norm(g) <= np.linalg.norm(c) / d**2 + 1e-12
    c = np.array([1.0, 0.0])
    near, nearer = -d + 1e-3, -d + 1e-6
    g_near = cluster_grad_feature_origin(np.array([near, 0.0]), c, d)
    g_nearer = cluster_grad_feature_origin(np.array([nearer, 0.0]), c, d)
    assert np.linalg.norm(g_nearer) > 1e5 * np.linalg.norm(cluster_grad_feature(np.array([near, 0.0]), c, d))
    assert np.linalg.norm(g_nearer) > np.linalg.norm(g_near)


def test_cluster_descent_property():
    # an infinitesimal step along the negative gradient lowers the pull term
    rng = np.random.default_rng(4)
    d = 2.0
    for _ in range(20):
        c = rng.standard_normal(3)
        f = rng.standard_normal(3)
        if np.dot(f, c) <= 0:
            f = c * rng.uniform(0.5, 2.0)  # force a positive product
        g = cluster_grad_feature(f, c, d)
        before = 1.0 / (max(np.dot(f, c), 0.0) + d)
        after = 1.0 / (max(np.dot(f - 1e-6 * g, c), 0.0) + d)
        assert after < before


# ---------------------------------------------------------------------------
# push gradient w.r.t. features
# ---------------------------------------------------------------------------


def test_ortho_grad_feature_selects_active_centers():
    g = ortho_grad_feature([1.0, 1.0, 0.0], [[5, 0, 0], [0, 1, 0], [0, 0, -1]], 1)
    np.testing.assert_allclose(g, [0.0, 1.0, 0.0], atol=1e-15)


def test_ortho_grad_feature_all_inactive():
    g = ortho_grad_feature([1.0, 1.0], [[1, 0], [-1, 0], [0, -1]], 1)
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_ortho_grad_feature_two_active_centers():
    g = ortho_grad_feature([1.0, 1.0, 0.0], [[0, 0, 5], [1, 0, 0], [0, 1, 0]], 1)
    np.testing.assert_allclose(g, [1.0, 1.0, 0.0], atol=1e-15)


def test_ortho_batch_grad_matches_finite_differences():
    # the doubled form is the true derivative of the ordered-pair push sum
    feats = np.array([[1.0, 0.0], [1.0, 1.0]])
    labels = np.array([1, 2])
    g = ortho_batch_grad_feature(feats, labels, 0)
    np.testing.assert_allclose(g, [2.0, 2.0], atol=1e-15)

    def value(f0):
        return push_batch_value(batch_of(np.vstack([f0, feats[1]]), labels))

    fd = central_diff(value, feats[0], h=1e-6)
    assert rel_err(g, fd) < 1e-8


def test_ortho_batch_grad_all_obtuse():
    np.testing.assert_array_equal(
        ortho_batch_grad_feature([[1.0, 0.0], [-2.0, 0.0]], [1, 2], 0), [0.0, 0.0])


def test_ortho_batch_grad_singleton_batch():
    np.testing.assert_array_equal(ortho_batch_grad_feature([[1.0, 0.0]], [1], 0), [0.0, 0.0])


# ---------------------------------------------------------------------------
# gradients w.r.t. centerlines
# ---------------------------------------------------------------------------


def test_cluster_grad_centerline_single_member():
    f = np.array([1.0, 0.0, 0.0])
    centers = [[3, 0, 0], [0, 1, 0]]
    np.testing.assert_allclose(cluster_grad_centerline([f], [1], centers, 1, 2.0), -f / 25.0, atol=1e-15)


def test_cluster_grad_centerline_empty_class():
    np.testing.assert_array_equal(
        cluster_grad_centerline([[1, 0]], [2], [[1, 0], [0, 1]], 1, 2.0), [0.0, 0.0])


def test_cluster_grad_centerline_two_members():
    # member products 0 and 3 against c1 = (3,0): contributions -f1/4 - f2/25
    f1 = np.array([0.0, 1.0])
    f2 = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        cluster_grad_centerline([f1, f2], [1, 1], [[3, 0], [0, 1]], 1, 2.0),
        -f1 / 4.0 - f2 / 25.0, atol=1e-15,
    )


def test_ortho_grad_centerline_two_violators():
    np.testing.assert_allclose(
        ortho_grad_centerline([[1, 0], [0, 1]], [2, 2], [[1, 1], [0, -1]], 1),
        [1.0 / 3.0, 1.0 / 3.0], rtol=1e-15,
    )


def test_ortho_grad_centerline_no_violators():
    np.testing.assert_array_equal(
        ortho_grad_centerline([[-1, 0], [0, -1]], [2, 2], [[1, 1], [0, -1]], 1), [0.0, 0.0])


def test_ortho_grad_centerline_single_violator_half():
    f = np.array([2.0, 1.0])
    np.testing.assert_allclose(
        ortho_grad_centerline([f], [2], [[1, 0], [0, 1]], 1), f / 2.0, atol=1e-15)


def test_ortho_grad_centerline_norm_bound():
    # averaging keeps the update no larger than the biggest violator
    rng = np.random.default_rng(5)
    for _ in range(100):
        m, k, n = 8, 3, 4
        b = batch_of(rng.standard_normal((m, n)) * rng.uniform(0.1, 5), rng.integers(1, k + 1, m))
        bank = bank_of(rng.standard_normal((k, n)))
        max_norm = np.linalg.norm(b.features, axis=1).max()
        for g in push_report(b, bank).center_grads:
            assert np.linalg.norm(g) <= max_norm + 1e-12


# ---------------------------------------------------------------------------
# baseline losses
# ---------------------------------------------------------------------------


def test_softmax_uniform_logits():
    clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
    b = batch_of([[1, 2, 3]], [1])
    value = softmax_report(b, clf).per_term["softmax"]
    assert value == pytest.approx(np.log(2.0), rel=1e-12)


def test_softmax_confident_logit_limit():
    clf = LinearClassifier(np.array([[50.0], [0.0]]), np.zeros(2))
    b = batch_of([[1.0]], [1])
    value = softmax_report(b, clf).per_term["softmax"]
    assert value == pytest.approx(0.0, abs=1e-20)


def test_softmax_direct_example():
    # logits (1, 0), true class 1
    clf = LinearClassifier(np.array([[1.0], [0.0]]), np.zeros(2))
    b = batch_of([[1.0]], [1])
    value = softmax_report(b, clf).per_term["softmax"]
    assert value == pytest.approx(np.log(1.0 + np.exp(-1.0)), rel=1e-12)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((5, 4))
    labels = rng.integers(1, 4, 5)
    w = rng.standard_normal((3, 4))
    bias = rng.standard_normal(3)
    report = softmax_report(batch_of(feats, labels), LinearClassifier(w, bias))
    gf, (gw, gb) = report.feature_grads, report.classifier_grads

    fd_f = central_diff(lambda F: softmax_report(batch_of(F, labels), LinearClassifier(w, bias)).total, feats)
    fd_w = central_diff(lambda W: softmax_report(batch_of(feats, labels), LinearClassifier(W, bias)).total, w)
    fd_b = central_diff(lambda B: softmax_report(batch_of(feats, labels), LinearClassifier(w, B)).total, bias)
    assert rel_err(gf, fd_f) < 1e-6
    assert rel_err(gw, fd_w) < 1e-6
    assert rel_err(gb, fd_b) < 1e-6


def test_center_loss_at_center():
    b = batch_of([[1.0, 2.0]], [1])
    bank = bank_of([[1, 2], [0, 0]])
    report = center_report(b, bank)
    assert report.per_term["center"] == 0.0
    np.testing.assert_array_equal(report.feature_grads, [[0.0, 0.0]])


def test_center_loss_half_squared_distance():
    b = batch_of([[1.0, 0.0]], [1])
    bank = bank_of([[0, 0], [5, 5]])
    report = center_report(b, bank)
    assert report.per_term["center"] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(report.feature_grads, [[1.0, 0.0]])
    # damped mean center update: (c - f) / (1 + 1)
    np.testing.assert_allclose(report.center_grads[0], [-0.5, 0.0])


def test_center_loss_additivity():
    bank = bank_of([[0, 0], [9, 9]])
    b1 = batch_of([[1.0, 0.0]], [1])
    b2 = batch_of([[0.0, 1.0]], [1])
    both = batch_of([[1.0, 0.0], [0.0, 1.0]], [1, 1])
    assert center_report(both, bank).per_term["center"] == pytest.approx(
        center_report(b1, bank).per_term["center"] + center_report(b2, bank).per_term["center"],
        rel=1e-12,
    )


# ---------------------------------------------------------------------------
# weight-normalization instability diagnostic
# ---------------------------------------------------------------------------


def test_normalized_weight_gradient_orthogonal():
    g = normalized_weight_gradient([1.0, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-15)


def test_normalized_weight_gradient_small_weight_blows_up():
    g = normalized_weight_gradient([0.1, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(g, [0.0, 10.0], rtol=1e-12)


def test_normalized_weight_gradient_parallel_vanishes():
    w = np.array([2.0, -1.0])
    np.testing.assert_allclose(normalized_weight_gradient(w, 3.0 * w), [0.0, 0.0], atol=1e-12)


def test_normalized_weight_gradient_zero_weight_rejected():
    with pytest.raises(ValueError, match="zero"):
        normalized_weight_gradient([0.0, 0.0], [1.0, 0.0])


def test_normalized_weight_gradient_inverse_scaling_identity():
    # scaling w by s scales the gradient norm by exactly 1/s
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.standard_normal(5)
        f = rng.standard_normal(5)
        base = np.linalg.norm(normalized_weight_gradient(w, f))
        for s in (2.0, 10.0, 0.25):
            scaled = np.linalg.norm(normalized_weight_gradient(s * w, f))
            assert scaled == pytest.approx(base / s, rel=1e-9)


# ---------------------------------------------------------------------------
# config and report plumbing
# ---------------------------------------------------------------------------


def test_loss_config_rejects_bad_d():
    with pytest.raises(ValueError, match="d must be"):
        LossConfig(d=0.0)


def test_loss_config_from_name():
    cases = {
        "cip+softmax": {"cluster", "ortho", "softmax"},
        "center+softmax": {"softmax", "center"},
        "cluster": {"cluster"},
        "ortho": {"ortho"},
        "softmax": {"softmax"},
        "center": {"center"},
        "cip": {"cluster", "ortho"},
        "cip+cip": {"cluster", "ortho"},
        " CIP + Center ": {"cluster", "ortho", "center"},
    }
    for name, enabled in cases.items():
        cfg = LossConfig.from_name(name)
        terms = {t for t in ("cluster", "ortho", "softmax", "center") if getattr(cfg, f"use_{t}")}
        assert terms == enabled, name
    with pytest.raises(ValueError, match="unknown loss term 'frobnicate' in combination 'cip\\+frobnicate'"):
        LossConfig.from_name("cip+frobnicate")


def test_loss_report_total_is_weighted_sum():
    # the documented order: from 0.0, each term times its weight, added left
    # to right; over several draws, a different order gives different bits
    for seed in range(9, 29):
        rng = np.random.default_rng(seed)
        b = batch_of(rng.standard_normal((6, 3)), rng.integers(1, 4, 6))
        bank = bank_of(rng.standard_normal((3, 3)))
        clf = LinearClassifier(rng.standard_normal((3, 3)), rng.standard_normal(3))
        lam, sw, cw = (0.7, 0.1, 0.0003) if seed == 9 else rng.uniform(0.1, 1.0, 3)
        cfg = LossConfig(lam=lam, d=2.0, softmax_weight=sw, center_weight=cw,
                         use_softmax=True, use_center=True)
        report = loss_report(b, bank, cfg, clf)
        expected = (
            0.0
            + report.per_term["cluster"]
            + lam * report.per_term["ortho"]
            + sw * report.per_term["softmax"]
            + cw * report.per_term["center"]
        )
        assert report.total == expected, seed


def test_loss_report_zero_grads_for_disabled_terms():
    rng = np.random.default_rng(10)
    b = batch_of(rng.standard_normal((4, 3)), [1, 2, 1, 2])
    bank = bank_of(rng.standard_normal((2, 3)))
    clf = LinearClassifier(rng.standard_normal((2, 3)), np.zeros(2))
    report = loss_report(b, bank, LossConfig.from_name("softmax"), clf)
    np.testing.assert_array_equal(report.center_grads, np.zeros((2, 3)))
    assert report.per_term["cluster"] == 0.0
    assert report.classifier_grads is not None
    # and with no centerline-touching term, feature grads come from softmax only
    gf = softmax_report(b, clf).feature_grads
    np.testing.assert_allclose(report.feature_grads, 0.1 * gf, rtol=1e-12)


def test_loss_report_requires_classifier_for_softmax():
    b = batch_of([[1.0, 0.0]], [1])
    bank = bank_of([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="classifier"):
        loss_report(b, bank, LossConfig.from_name("cip+softmax"))


def test_loss_report_needs_a_bank_only_for_centerline_terms():
    b = batch_of(np.ones((2, 3)), [1, 2])
    clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
    for name in ("softmax", "ortho", "softmax+ortho"):
        report = loss_report(b, None, LossConfig.from_name(name, ortho_variant="batch"), clf)
        assert report.center_grads is None
        assert np.isfinite(report.total) and report.feature_grads.shape == (2, 3)
    for name in ("cluster", "ortho", "center", "cip+softmax"):
        with pytest.raises(ValueError, match="^centerline term enabled but no bank supplied$"):
            loss_report(b, None, LossConfig.from_name(name), clf)


def test_loss_report_matches_per_sample_ops():
    # the vectorized path must reproduce the per-sample reference functions
    rng = np.random.default_rng(11)
    m, k, n = 7, 4, 5
    b = batch_of(rng.standard_normal((m, n)), rng.integers(1, k + 1, m))
    bank = bank_of(rng.standard_normal((k, n)))
    lam, d = 0.6, 2.0
    report = loss_report(b, bank, LossConfig(lam=lam, d=d))

    feats, labels, centers = b.features, b.labels, bank.centers
    feat_expected = np.zeros((m, n))
    for i in range(m):
        own = centers[labels[i] - 1]
        feat_expected[i] = cluster_grad_feature(feats[i], own, d)
        feat_expected[i] += lam * ortho_grad_feature(feats[i], centers, int(labels[i]))
    np.testing.assert_allclose(report.feature_grads, feat_expected, atol=1e-12)

    center_expected = np.zeros((k, n))
    for cls in range(1, k + 1):
        center_expected[cls - 1] = cluster_grad_centerline(feats, labels, centers, cls, d)
        center_expected[cls - 1] += lam * ortho_grad_centerline(feats, labels, centers, cls)
    np.testing.assert_allclose(report.center_grads, center_expected, atol=1e-12)

    pull = sum(1.0 / (max(np.dot(f, centers[y - 1]), 0.0) + d) for f, y in zip(feats, labels))
    push = sum(max(np.dot(f, c), 0.0)
               for f, y in zip(feats, labels) for k_, c in enumerate(centers, 1) if k_ != y)
    assert report.per_term["cluster"] == pytest.approx(pull, rel=1e-12)
    assert report.per_term["ortho"] == pytest.approx(push, rel=1e-12)


def test_loss_report_batch_variant_matches_per_sample():
    rng = np.random.default_rng(12)
    m, k, n = 6, 3, 4
    b = batch_of(rng.standard_normal((m, n)), rng.integers(1, k + 1, m))
    bank = bank_of(rng.standard_normal((k, n)))
    cfg = LossConfig(lam=1.5, d=2.0, ortho_variant="batch", use_cluster=False)
    report = loss_report(b, bank, cfg)
    expected = np.stack([1.5 * ortho_batch_grad_feature(b.features, b.labels, i) for i in range(m)])
    np.testing.assert_allclose(report.feature_grads, expected, atol=1e-12)
    np.testing.assert_array_equal(report.center_grads, np.zeros((k, n)))


def test_term_functions_add_into_the_callers_arrays():
    # a term function returns loss_report's value and adds its gradients to
    # what the caller's arrays hold; the softmax head's are written over them
    rng = np.random.default_rng(13)
    b = batch_of(rng.standard_normal((6, 3)), rng.integers(1, 4, 6))
    bank = bank_of(rng.standard_normal((3, 3)))
    clf = LinearClassifier(rng.standard_normal((3, 3)), rng.standard_normal(3))
    feats, labels0, centers = b.features, b.labels - 1, bank.centers
    head = LinearClassifier(np.full((3, 3), np.nan), np.full(3, np.nan))
    cases = [
        ("cluster", {"d": 2.0}, lambda f, c: pull_term(feats, labels0, centers, 2.0, f, c)),
        ("ortho", {"lam": 0.5}, lambda f, c: push_term(feats, labels0, centers, 0.5, f, c)),
        ("ortho", {"lam": 0.5, "ortho_variant": "batch"},
         lambda f, c: push_batch_term(feats, labels0, 0.5, f)),
        ("softmax", {"softmax_weight": 0.5},
         lambda f, c: softmax_ce(feats, labels0, clf, 0.5, f, head)),
        ("center", {"center_weight": 0.5},
         lambda f, c: center_loss(feats, labels0, centers, 0.5, f, c)),
    ]
    for name, overrides, term in cases:
        report = one_term(b, bank, name, clf, **overrides)
        start_f, start_c = rng.standard_normal(feats.shape), rng.standard_normal(centers.shape)
        fgrads, cgrads = start_f.copy(), start_c.copy()
        assert term(fgrads, cgrads) == report.per_term[name], name
        np.testing.assert_allclose(fgrads, start_f + report.feature_grads, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cgrads, start_c + report.center_grads, rtol=0, atol=1e-12)
        if name == "softmax":
            np.testing.assert_array_equal(head.weights, report.classifier_grads[0])
            np.testing.assert_array_equal(head.bias, report.classifier_grads[1])
