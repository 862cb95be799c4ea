"""Acceptance suite: one test per shipped claim, at pinned tolerances.

Each test prints a PASS line with its runtime (visible under ``pytest -s``)
and enforces the runtime budget it was designed against.  The synthetic
benchmark configurations are pinned here, in full, so the suite is
reproducible from this file alone; criterion 5 runs ``cipbench sweep``,
whose defaults are the same standard benchmark.
"""

import itertools
import time

import numpy as np
import pytest

from cipbench import cli
from cipbench import encoder as enc
from cipbench.data import SyntheticSpec, generate, split
from cipbench.losses import (
    CenterlineBank,
    LabeledBatch,
    LinearClassifier,
    LossConfig,
    loss_report,
)
from cipbench.retrieval import (
    average_precision,
    f1_at,
    geometry_report,
    ndcg,
    pr_auc,
)
from cipbench.trainer import DivergenceError, TrainConfig, evaluate_map, train

from oracles import (
    ap_brute,
    central_diff,
    cluster_grad_feature_origin,
    f1_brute,
    ndcg_brute,
    normalized_weight_gradient,
    prauc_brute,
    rel_err,
)

KINK_MARGIN = 1e-3


def _stamp(name: str, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {limit:g}s)")
    assert elapsed < limit, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# pinned benchmark configurations
# ---------------------------------------------------------------------------


def geometry_dataset(seed: int):
    """Six classes in three antipodal input directions, 3-D embeddings."""
    return generate(SyntheticSpec(
        num_classes=6, objects_per_class=50, views_per_object=6, input_dim=3,
        class_separation=2.0, object_noise_std=0.2, view_noise_std=0.1,
        prototype_scheme="antipodal", seed=seed,
    ))


def geometry_config(seed: int) -> TrainConfig:
    """The standard schedule with batches of 20 and a linear 3-D encoder."""
    return TrainConfig(batch_size=20, seed=seed, loss=LossConfig(), hidden_dims=(),
                       embedding_dim=3, init_std=0.2)


def benchmark_dataset(seed: int):
    """The standard ordering benchmark, ``SyntheticSpec()``: 10 classes, 16-D
    embedding target."""
    return split(generate(SyntheticSpec(seed=seed)), 0.5, seed)


# ---------------------------------------------------------------------------
# 1. gradient-formula golden tests
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_golden_values():
    t0 = time.perf_counter()
    tol = 1e-12
    push = LossConfig.from_name("ortho", lam=1.0)

    # push gradient on a feature: sum of strictly violated other centerlines
    one = LabeledBatch(np.array([[1.0, 1.0, 0.0]]), np.array([1]))
    bank = CenterlineBank(np.array([[5.0, 0, 0], [0.0, 1, 0], [0.0, 0, -1]]))
    np.testing.assert_allclose(loss_report(one, bank, push).feature_grads[0], [0.0, 1.0, 0.0], atol=tol)
    np.testing.assert_allclose(
        loss_report(one, CenterlineBank(np.array([[0.0, 0, 5], [1.0, 0, 0], [0.0, 1, 0]])),
                    push).feature_grads[0],
        [1.0, 1.0, 0.0], atol=tol)

    # clipped pull gradient on a feature
    def pull_grad(f, c, d=2.0):
        bank = CenterlineBank(np.stack([c, np.zeros_like(c)]))
        return loss_report(LabeledBatch(np.array([f]), np.array([1])), bank,
                           LossConfig.from_name("cluster", d=d)).feature_grads[0]

    c = np.array([3.0, 0.0, 0.0])
    np.testing.assert_allclose(pull_grad([1.0, 0, 0], c), -c / 25.0, atol=tol)
    c2 = np.array([0.0, 2.0])
    np.testing.assert_allclose(pull_grad([1.0, 0.0], c2), -c2 / 4.0, atol=tol)
    c3 = np.array([-5.0, 1.0])
    np.testing.assert_allclose(pull_grad([1.0, 0.0], c3), -c3 / 4.0, atol=tol)

    # clipped pull gradient on a centerline (two members, products 0 and 3)
    f1, f2 = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    batch = LabeledBatch(np.stack([f1, f2]), np.array([1, 1]))
    bank2 = CenterlineBank(np.array([[3.0, 0.0], [0.0, 1.0]]))
    pull = LossConfig.from_name("cluster", d=2.0)
    np.testing.assert_allclose(
        loss_report(batch, bank2, pull).center_grads[0], -f1 / 4.0 - f2 / 25.0, atol=tol)
    np.testing.assert_allclose(
        loss_report(LabeledBatch(f2[None], np.array([2])), bank2, pull).center_grads[0],
        [0.0, 0.0], atol=tol)

    # averaged push gradient on a centerline
    viol = LabeledBatch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2, 2]))
    bank3 = CenterlineBank(np.array([[1.0, 1.0], [0.0, -1.0]]))
    np.testing.assert_allclose(
        loss_report(viol, bank3, push).center_grads[0], [1.0 / 3.0, 1.0 / 3.0], atol=tol)
    single = LabeledBatch(np.array([[2.0, 1.0]]), np.array([2]))
    bank4 = CenterlineBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(loss_report(single, bank4, push).center_grads[0], [1.0, 0.5], atol=tol)
    none = LabeledBatch(np.array([[-1.0, 0.0]]), np.array([2]))
    np.testing.assert_allclose(loss_report(none, bank4, push).center_grads[0], [0.0, 0.0], atol=tol)

    # surrogate vs unclipped original: bounded vs exploding near the pole
    d = 2.0
    c = np.array([1.0, 0.0])
    f_near = np.array([-d + 1e-3, 0.0])  # f.c within 1e-3 of the pole
    surrogate = pull_grad(f_near, c, d)
    origin = cluster_grad_feature_origin(f_near, c, d)
    assert np.linalg.norm(origin) > 1e3 * np.linalg.norm(surrogate)
    np.testing.assert_allclose(surrogate, -c / d**2, atol=tol)

    _stamp("1 (gradient golden values)", t0, 1.0)


# ---------------------------------------------------------------------------
# 2. finite-difference suite: 200 instances away from kinks
# ---------------------------------------------------------------------------


def test_criterion_2_finite_difference_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    d = 2.0
    loss_tol, enc_tol = 1e-5, 1e-6
    pull = LossConfig.from_name("cluster", d=d)
    push = LossConfig.from_name("ortho", lam=1.0)
    push_batch = LossConfig.from_name("ortho", ortho_variant="batch", lam=1.0)
    softmax = LossConfig.from_name("softmax", softmax_weight=1.0)
    center = LossConfig.from_name("center", center_weight=1.0)

    def kink_free_instance(m=4, k=3, n=4):
        while True:
            feats = rng.standard_normal((m, n))
            labels = rng.integers(1, k + 1, m)
            centers = rng.standard_normal((k, n))
            own = np.einsum("ij,ij->i", feats, centers[labels - 1])
            feats[own < 0] *= -1.0  # positive own products, magnitudes kept
            prods = feats @ centers.T
            grams = feats @ feats.T
            off = ~np.eye(m, dtype=bool)
            own = prods[np.arange(m), labels - 1]
            if (np.abs(prods).min() > KINK_MARGIN
                    and np.abs(grams[off]).min() > KINK_MARGIN
                    and own.min() > KINK_MARGIN):
                return LabeledBatch(feats, labels), CenterlineBank(centers)

    for trial in range(200):
        batch, bank = kink_free_instance()

        # pull loss vs its feature gradient
        def pull_value(feats):
            return loss_report(LabeledBatch(feats, batch.labels), bank, pull).total

        got = loss_report(batch, bank, pull).feature_grads
        assert rel_err(got, central_diff(pull_value, batch.features)) < loss_tol

        # push loss vs its feature gradient
        def push_value(feats):
            return loss_report(LabeledBatch(feats, batch.labels), bank, push).total

        got = loss_report(batch, bank, push).feature_grads
        fd = central_diff(push_value, batch.features)
        if np.linalg.norm(fd) > 0:
            assert rel_err(got, fd) < loss_tol

        # batch push loss vs its doubled feature gradient
        def push_batch_value(feats):
            return loss_report(LabeledBatch(feats, batch.labels), bank, push_batch).total

        got = loss_report(batch, bank, push_batch).feature_grads
        fd = central_diff(push_batch_value, batch.features)
        if np.linalg.norm(fd) > 0:
            assert rel_err(got, fd) < loss_tol

        # softmax cross-entropy (smooth everywhere)
        clf = LinearClassifier(rng.standard_normal((3, 4)), rng.standard_normal(3))
        gf = loss_report(batch, bank, softmax, clf).feature_grads
        fd = central_diff(lambda F: loss_report(LabeledBatch(F, batch.labels), bank, softmax, clf).total,
                          batch.features)
        assert rel_err(gf, fd) < loss_tol

        # center loss feature gradient (exact derivative side)
        cf = loss_report(batch, bank, center).feature_grads
        fd = central_diff(lambda F: loss_report(LabeledBatch(F, batch.labels), bank, center).total,
                          batch.features)
        assert rel_err(cf, fd) < loss_tol

    # encoder backward against finite differences, away from relu kinks
    dims = (4, 6, 3)
    checked = 0
    while checked < 20:
        params = enc.init_params(dims, rng=rng, std=0.8)
        xs = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 3))
        feats, cache = enc.forward_batch(params, xs)
        if np.abs(xs @ params.weights[0].T + params.biases[0]).min() < 1e-2:
            continue
        checked += 1
        grads, gin = enc.backward_batch(params, cache, g)

        def scalar(ws, layer):
            w2 = [w.copy() for w in params.weights]
            w2[layer] = ws
            out, _ = enc.forward_batch(enc.MlpParams(w2, params.biases), xs)
            return float(np.sum(g * out))

        for layer in range(2):
            fd = central_diff(lambda w: scalar(w, layer), params.weights[layer])
            assert rel_err(grads.weights[layer], fd) < enc_tol
        fd_in = central_diff(
            lambda x: float(np.sum(g * enc.forward_batch(params, x)[0])), xs)
        assert rel_err(gin, fd_in) < enc_tol

    _stamp("2 (finite-difference suite)", t0, 10.0)


# ---------------------------------------------------------------------------
# 3. geometry reproduction: 6 classes filling 3-D space
# ---------------------------------------------------------------------------


def test_criterion_3_geometry_reproduction():
    t0 = time.perf_counter()
    hits = 0
    details = []
    for seed in range(5):
        ds = geometry_dataset(seed)
        result = train(ds, geometry_config(seed))
        feats, _ = enc.forward_batch(result.params, ds.inputs)
        geo = geometry_report(feats, ds.labels, result.bank)
        ok = (geo.max_pairwise_centerline_cosine <= 0.05
              and geo.mean_own_cosine >= 0.95)
        hits += ok
        details.append((seed, round(geo.max_pairwise_centerline_cosine, 3),
                        round(geo.mean_own_cosine, 3), ok))
    print(f"  geometry per seed (maxcos, own): {details}")
    assert hits >= 4, f"only {hits}/5 seeds reached the target geometry: {details}"
    _stamp("3 (geometry reproduction)", t0, 120.0)


# ---------------------------------------------------------------------------
# 4. loss-ordering reproduction on the standard benchmark
# ---------------------------------------------------------------------------


def test_criterion_4_loss_ordering():
    t0 = time.perf_counter()
    cip_sm_wins = 0
    cip_wins = 0
    rows = []
    max_cosines = []  # cip+softmax's max pairwise centerline cosine per seed
    for seed in range(10):
        ds = benchmark_dataset(seed)
        maps = {}
        for name, loss in (
            ("cip+softmax", LossConfig.from_name("cip+softmax")),
            ("softmax", LossConfig.from_name("softmax", softmax_weight=1.0)),
            ("cip", LossConfig.from_name("cip")),
            ("center+softmax", LossConfig.from_name(
                "center+softmax", softmax_weight=1.0, center_weight=0.003)),
        ):
            result = train(ds, TrainConfig(seed=seed, loss=loss))
            maps[name] = evaluate_map(result.params, ds)
            if name == "cip+softmax":
                mask = ds.eval_mask()
                feats, _ = enc.forward_batch(result.params, ds.inputs[mask])
                geo = geometry_report(feats, ds.labels[mask], result.bank)
                max_cosines.append(geo.max_pairwise_centerline_cosine)
        cip_sm_wins += maps["cip+softmax"] > maps["softmax"]
        cip_wins += maps["cip"] > maps["center+softmax"]
        rows.append({k: round(v, 3) for k, v in maps.items()})
    orthogonal = sum(c <= 0.11 for c in max_cosines)
    print(f"  per-seed MAPs: {rows}")
    print(f"  orderings: cip+softmax>softmax {cip_sm_wins}/10, cip>center+softmax {cip_wins}/10")
    print(f"  cip+softmax max pairwise centerline cosine per seed: "
          f"{[round(c, 3) for c in max_cosines]}, <= 0.11 on {orthogonal}/10")
    assert cip_sm_wins >= 9
    assert cip_wins >= 8
    assert orthogonal == 10
    _stamp("4 (loss ordering)", t0, 600.0)


# ---------------------------------------------------------------------------
# 5. lambda / d sensitivity sweep
# ---------------------------------------------------------------------------


def test_criterion_5_lambda_d_sensitivity(tmp_path):
    t0 = time.perf_counter()
    # the sweep command's defaults are the standard benchmark (seed 0): it
    # trains the combined loss alone at each grid point, with the
    # geometric-quality collapse signal off, and scores the test split
    code = cli.main(["sweep", "--lambdas", "0.1,0.5,1,5,10", "--ds", "2,1",
                     "--set", "batch_size=25", "--set", "seed=0", "--set", "loss=cip",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,d,converged,final_total,map"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    spreads = {}
    for d in (2.0, 1.0):
        by_lam = {float(lam): (ok, float(final), float(m)) for lam, d_, ok, final, m in rows
                  if float(d_) == d}
        for lam, (ok, final, _) in by_lam.items():
            assert ok == "1" and np.isfinite(final), f"non-finite final loss at lambda={lam}, d={d}"
        maps = [m for _, _, m in by_lam.values()]
        spreads[d] = max(maps) - min(maps)
        print(f"  d={d}: MAP by lambda {dict(zip(by_lam, [round(m, 3) for m in maps]))} "
              f"spread {spreads[d]:.3f}")
    print(f"  spread comparison (reported, not asserted): d=1 {spreads[1.0]:.3f} "
          f"vs d=2 {spreads[2.0]:.3f}")
    _stamp("5 (lambda/d sensitivity)", t0, 900.0)


# ---------------------------------------------------------------------------
# 6. metric oracle equivalence, exhaustive to length 8
# ---------------------------------------------------------------------------


def test_criterion_6_metric_oracle_equivalence():
    t0 = time.perf_counter()
    for length in range(1, 9):
        for pattern in itertools.product((0, 1), repeat=length):
            if sum(pattern) == 0:
                assert ndcg(pattern) == 0.0
                assert f1_at(pattern, cutoff=1) == 0.0
                continue
            assert average_precision(pattern) == pytest.approx(ap_brute(pattern), abs=1e-14)
            assert pr_auc(pattern) == pytest.approx(prauc_brute(pattern), abs=1e-14)
            assert ndcg(pattern) == pytest.approx(ndcg_brute(pattern), abs=1e-14)
            assert f1_at(pattern) == pytest.approx(f1_brute(pattern), abs=1e-14)
    _stamp("6 (metric oracle equivalence)", t0, 5.0)


# ---------------------------------------------------------------------------
# 7. weight-normalization instability diagnostic
# ---------------------------------------------------------------------------


def test_criterion_7_normalization_instability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.standard_normal(6)
        f = rng.standard_normal(6)
        base = np.linalg.norm(normalized_weight_gradient(w, f))
        for s in (1.0, 0.1, 0.01):
            scaled = np.linalg.norm(normalized_weight_gradient(s * w, f))
            assert scaled == pytest.approx(base / s, rel=1e-9)
            # the plain inner-product gradient is f regardless of the scale
            assert rel_err(central_diff(lambda v: v @ f, s * w), f) < 1e-6
    _stamp("7 (normalization instability)", t0, 1.0)


# ---------------------------------------------------------------------------
# 8. divergence documentation: pull-only and push-only training fail loudly
# ---------------------------------------------------------------------------


def test_criterion_8_divergence_detection():
    t0 = time.perf_counter()
    ds = benchmark_dataset(0)

    with pytest.raises(DivergenceError) as cluster_err:
        train(ds, TrainConfig(seed=0, loss=LossConfig.from_name("cluster")))
    assert cluster_err.value.epoch < 30
    print(f"  cluster-only: {cluster_err.value.signal} at epoch {cluster_err.value.epoch}")

    with pytest.raises(DivergenceError) as ortho_err:
        train(ds, TrainConfig(seed=0, loss=LossConfig.from_name("ortho")))
    assert ortho_err.value.epoch < 30
    print(f"  ortho-only: {ortho_err.value.signal} at epoch {ortho_err.value.epoch}")

    _stamp("8 (divergence detection)", t0, 120.0)
