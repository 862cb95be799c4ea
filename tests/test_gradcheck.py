"""Finite-difference verification of every closed-form gradient.

Random instances are screened away from the hinge/clip kinks (margin 1e-3)
so central differences see a smooth function; within that region the
surrogate gradients coincide with the true derivatives and must match.
"""

import numpy as np
import pytest

from cipbench.encoder import MlpParams, backward_batch, forward_batch, init_params
from cipbench.losses import (
    CenterlineBank,
    LabeledBatch,
    LossConfig,
    loss_report,
)

from oracles import central_diff, rel_err

KINK_MARGIN = 1e-3


def sample_away_from_kinks(rng, m=5, k=3, n=4, positive_own=False):
    """Batch + bank with every product at least KINK_MARGIN from zero.

    With ``positive_own`` the own-class products are forced positive (by
    flipping feature signs, which preserves all product magnitudes); the
    clipped pull gradient equals the true derivative only on that side.
    """
    while True:
        feats = rng.standard_normal((m, n))
        labels = rng.integers(1, k + 1, m)
        centers = rng.standard_normal((k, n))
        if positive_own:
            own = np.einsum("ij,ij->i", feats, centers[labels - 1])
            feats[own < 0] *= -1.0
        prods = feats @ centers.T
        grams = feats @ feats.T
        off = ~np.eye(m, dtype=bool)
        if np.abs(prods).min() > KINK_MARGIN and np.abs(grams[off]).min() > KINK_MARGIN:
            return LabeledBatch(feats, labels), CenterlineBank(centers)


def test_cluster_gradient_matches_fd_in_positive_region():
    rng = np.random.default_rng(20)
    d = 2.0
    checked = 0
    while checked < 60:
        c = rng.standard_normal(4)
        f = rng.standard_normal(4)
        if np.dot(f, c) < KINK_MARGIN:
            continue
        checked += 1
        batch = LabeledBatch(f[None, :], np.array([1]))
        bank = CenterlineBank(np.vstack([c, -c]))
        pull = LossConfig.from_name("cluster", d=d)

        def value(fv):
            return loss_report(LabeledBatch(fv[None, :], np.array([1])), bank, pull).total

        fd = central_diff(value, f)
        assert rel_err(loss_report(batch, bank, pull).feature_grads[0], fd) < 1e-5


def test_ortho_gradient_matches_fd_away_from_kinks():
    rng = np.random.default_rng(21)
    push = LossConfig.from_name("ortho", lam=1.0)
    for _ in range(40):
        batch, bank = sample_away_from_kinks(rng)

        def value(fv, i=0):
            feats = batch.features.copy()
            feats[i] = fv
            return loss_report(LabeledBatch(feats, batch.labels), bank, push).total

        grads = loss_report(batch, bank, push).feature_grads
        for i in range(batch.size):
            fd = central_diff(lambda fv: value(fv, i), batch.features[i])
            g = grads[i]
            if np.linalg.norm(fd) == 0:
                np.testing.assert_allclose(g, 0, atol=1e-12)
            else:
                assert rel_err(g, fd) < 1e-5


def test_ortho_batch_gradient_matches_fd_away_from_kinks():
    rng = np.random.default_rng(22)
    push_batch = LossConfig.from_name("ortho", ortho_variant="batch", lam=1.0)
    for _ in range(40):
        batch, bank = sample_away_from_kinks(rng)

        def value(fv, i=0):
            feats = batch.features.copy()
            feats[i] = fv
            return loss_report(LabeledBatch(feats, batch.labels), bank, push_batch).total

        grads = loss_report(batch, bank, push_batch).feature_grads
        for i in range(batch.size):
            fd = central_diff(lambda fv: value(fv, i), batch.features[i])
            g = grads[i]
            if np.linalg.norm(fd) == 0:
                np.testing.assert_allclose(g, 0, atol=1e-12)
            else:
                assert rel_err(g, fd) < 1e-5


def test_combined_report_feature_grads_match_fd():
    # total-loss feature gradients against finite differences of the total
    rng = np.random.default_rng(23)
    cfg = LossConfig(lam=0.8, d=2.0)
    for _ in range(10):
        batch, bank = sample_away_from_kinks(rng, m=4, k=3, n=3, positive_own=True)
        report = loss_report(batch, bank, cfg)

        def total_at(feats):
            return loss_report(LabeledBatch(feats, batch.labels), bank, cfg).total

        fd = central_diff(total_at, batch.features)
        assert rel_err(report.feature_grads, fd) < 1e-5


def test_encoder_end_to_end_gradient_check():
    # d(total loss)/d(params) through backward + loss gradients vs FD,
    # screened away from relu and hinge kinks
    rng = np.random.default_rng(24)
    dims = (4, 6, 3)
    cfg = LossConfig(lam=1.0, d=2.0)
    checked = 0
    while checked < 5:
        params = init_params(dims, rng=rng, std=0.8)
        xs = rng.standard_normal((4, 4))
        labels = rng.integers(1, 4, 4)
        centers = rng.standard_normal((3, 3))
        bank = CenterlineBank(centers)
        feats, cache = forward_batch(params, xs)
        pre = xs @ params.weights[0].T + params.biases[0]
        prods = feats @ centers.T
        own = prods[np.arange(4), labels - 1]
        if np.abs(pre).min() < 1e-2 or np.abs(prods).min() < 1e-2 or own.min() < 1e-2:
            continue
        checked += 1
        report = loss_report(LabeledBatch(feats, labels), bank, cfg)
        grads, _ = backward_batch(params, cache, report.feature_grads)

        def total_from_weights(w0, layer):
            ws = [w.copy() for w in params.weights]
            ws[layer] = w0
            p2 = MlpParams(ws, params.biases)
            f2, _ = forward_batch(p2, xs)
            return loss_report(LabeledBatch(f2, labels), bank, cfg).total

        for layer in range(2):
            fd = central_diff(lambda w: total_from_weights(w, layer), params.weights[layer], h=1e-6)
            assert rel_err(grads.weights[layer], fd) < 1e-5
