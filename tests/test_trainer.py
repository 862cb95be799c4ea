import numpy as np
import pytest

from cipbench.data import SyntheticSpec, generate, split
from cipbench.losses import CenterlineBank, LabeledBatch, LossConfig, loss_report
from cipbench.trainer import (
    DivergenceError,
    TrainConfig,
    history_to_csv,
    iterate_batches,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
    train,
)


def bench_dataset(seed=0, **kw):
    base = dict(num_classes=4, objects_per_class=8, views_per_object=4, input_dim=8,
                class_separation=2.0, object_noise_std=0.4, view_noise_std=0.2, seed=seed)
    base.update(kw)
    return generate(SyntheticSpec(**base))


def quick_config(seed=0, **kw):
    base = dict(batch_size=16, epochs=4, seed=seed, hidden_dims=(8,), embedding_dim=4,
                init_std=0.3, loss=LossConfig(lam=1.0, d=2.0))
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_values():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == pytest.approx(0.01, rel=1e-15)
    assert lr_at(19, cfg) == pytest.approx(0.01, rel=1e-15)
    assert lr_at(20, cfg) == pytest.approx(0.002, rel=1e-12)
    assert lr_at(29, cfg) == pytest.approx(0.002, rel=1e-12)


def test_lr_out_of_range():
    cfg = TrainConfig()
    for epoch in (-1, 30, 99):
        with pytest.raises(ValueError, match="out of range"):
            lr_at(epoch, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError, match="centerline_lr"):
        TrainConfig(centerline_lr=-1.0)


# ---------------------------------------------------------------------------
# SGD primitive
# ---------------------------------------------------------------------------


def test_sgd_vanilla_step():
    p = np.array([1.0, 2.0])
    v = np.zeros(2)
    sgd_step(p, v, np.array([0.5, -1.0]), lr=0.1)
    np.testing.assert_allclose(p, [0.95, 2.1], atol=1e-15)


def test_sgd_zero_grad_zero_velocity_is_noop():
    p = np.array([1.0, -3.0])
    v = np.zeros(2)
    sgd_step(p, v, np.zeros(2), lr=0.5, momentum=0.0, weight_decay=0.0)
    np.testing.assert_array_equal(p, [1.0, -3.0])


def test_sgd_momentum_unrolled():
    # two unit gradients at momentum 0.5, lr 1: parameter drops 1 then 1.5
    p = np.array([0.0])
    v = np.zeros(1)
    sgd_step(p, v, np.array([1.0]), lr=1.0, momentum=0.5)
    assert p[0] == pytest.approx(-1.0, abs=1e-15)
    sgd_step(p, v, np.array([1.0]), lr=1.0, momentum=0.5)
    assert p[0] == pytest.approx(-2.5, abs=1e-15)


def test_sgd_weight_decay_pulls_toward_zero():
    p = np.array([10.0])
    v = np.zeros(1)
    sgd_step(p, v, np.zeros(1), lr=0.1, weight_decay=0.5)
    assert p[0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0, rel=1e-12)


def test_sgd_flat_buffer_matches_per_tensor_steps():
    # one step over a flat buffer with per-element rate and decay equals
    # separate steps per tensor, bit for bit: the centerline slice runs at its
    # own rate with zero decay, everything else at lr with weight decay
    rng = np.random.default_rng(7)
    shapes = [(8, 5), (4, 8), (8,), (4,), (3, 4), (3,), (3, 4)]
    params = [rng.normal(size=s) for s in shapes]
    vels = [rng.normal(size=s) for s in shapes]
    grads = [rng.normal(size=s) for s in shapes]
    lr, center_lr, momentum, wd = 0.01, 0.037, 0.5, 2e-4
    flat_p = np.concatenate([p.ravel() for p in params])
    flat_v = np.concatenate([v.ravel() for v in vels])
    flat_g = np.concatenate([g.ravel() for g in grads])
    on_centers = np.arange(flat_p.size) >= flat_p.size - params[-1].size
    sgd_step(flat_p, flat_v, flat_g, np.where(on_centers, center_lr, lr), momentum,
             np.where(on_centers, 0.0, wd))
    for p, v, g in zip(params[:-1], vels[:-1], grads[:-1]):
        sgd_step(p, v, g, lr, momentum, wd)
    sgd_step(params[-1], vels[-1], grads[-1], center_lr, momentum, 0.0)
    assert flat_p.tobytes() == np.concatenate([p.ravel() for p in params]).tobytes()
    assert flat_v.tobytes() == np.concatenate([v.ravel() for v in vels]).tobytes()


def test_sgd_rejects_non_finite_gradient():
    p = np.zeros(2)
    v = np.zeros(2)
    with pytest.raises(ValueError, match="non-finite"):
        sgd_step(p, v, np.array([np.nan, 0.0]), lr=0.1)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_iterate_batches_is_permutation():
    rng = np.random.default_rng(0)
    for n, bs in ((100, 16), (50, 50), (7, 3)):
        batches = iterate_batches(n, bs, rng)
        flat = np.concatenate(batches)
        assert len(flat) == n
        np.testing.assert_array_equal(np.sort(flat), np.arange(n))
        assert all(len(b) <= bs for b in batches)


def test_iterate_batches_reshuffles_each_epoch():
    rng = np.random.default_rng(1)
    first = np.concatenate(iterate_batches(64, 16, rng))
    second = np.concatenate(iterate_batches(64, 16, rng))
    assert not np.array_equal(first, second)


# ---------------------------------------------------------------------------
# end-to-end training behaviour
# ---------------------------------------------------------------------------


def test_centerline_bank_init_scale():
    # banks start as N(0, 0.01^2) draws from the configured seed
    a = CenterlineBank.init_gaussian(40, 50, rng=123)
    b = CenterlineBank.init_gaussian(40, 50, rng=123)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert 0.008 < a.centers.std() < 0.012
    assert abs(a.centers.mean()) < 0.001


def test_train_is_deterministic():
    ds = bench_dataset()
    a = train(ds, quick_config())
    b = train(ds, quick_config())
    assert a.history == b.history  # bitwise-identical floats
    for wa, wb in zip(a.params.weights, b.params.weights):
        np.testing.assert_array_equal(wa, wb)
    np.testing.assert_array_equal(a.bank.centers, b.bank.centers)


def test_train_history_has_all_terms():
    ds = bench_dataset()
    res = train(ds, quick_config(loss=LossConfig.from_name("cip+softmax")))
    assert len(res.history) == 4
    for row in res.history:
        for key in ("epoch", "lr", "cluster", "ortho", "softmax", "center", "total"):
            assert key in row
        assert row["softmax"] > 0.0
        assert row["center"] == 0.0


def test_train_eval_every_records_map():
    ds = split(bench_dataset(), 0.5, 0)
    res = train(ds, quick_config(eval_every=2))
    assert "map" in res.history[1] and "map" not in res.history[0]
    assert 0.0 <= res.history[1]["map"] <= 1.0


def test_train_uses_train_split_only():
    ds = split(bench_dataset(), 0.5, 0)
    res = train(ds, quick_config())
    assert res.epochs_run == 4


def test_train_respects_num_classes_override():
    ds = bench_dataset()
    res = train(ds, quick_config(num_classes=6))
    assert res.bank.num_classes == 6


def test_train_rejects_too_small_num_classes():
    ds = bench_dataset()
    with pytest.raises(ValueError, match="num_classes"):
        train(ds, quick_config(num_classes=2))


def test_centerline_without_gradient_is_unchanged():
    # a class absent from the batch and obtuse to every feature receives no
    # gradient, so (at zero momentum) one update leaves it untouched
    feats = np.array([[1.0, 0.0], [0.5, 0.5]])
    labels = np.array([1, 2])
    bank = CenterlineBank(np.array([[1.0, 0.0], [0.0, 1.0], [-5.0, -5.0]]))
    before = bank.centers[2].copy()
    report = loss_report(LabeledBatch(feats, labels), bank, LossConfig(lam=1.0, d=2.0))
    np.testing.assert_array_equal(report.center_grads[2], [0.0, 0.0])
    vel = np.zeros_like(bank.centers)
    sgd_step(bank.centers, vel, report.center_grads, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_array_equal(bank.centers[2], before)
    assert not np.array_equal(bank.centers[0], np.array([1.0, 0.0]))  # touched one did move


def test_single_class_cluster_softmax_monotone_decrease():
    # dataset holds one class; the bank still has two (labels stay in range)
    ds = generate(SyntheticSpec(num_classes=1, objects_per_class=30, views_per_object=4,
                                input_dim=8, class_separation=2.0, object_noise_std=0.3,
                                view_noise_std=0.15, seed=3))
    cfg = TrainConfig(batch_size=30, epochs=6, seed=0, num_classes=2,
                      loss=LossConfig.from_name("cluster+softmax"),
                      hidden_dims=(16,), embedding_dim=4, init_std=0.3,
                      centerline_collapse_cosine=2.0)
    res = train(ds, cfg)
    totals = [row["total"] for row in res.history]
    smoothed = [(totals[i] + totals[i + 1]) / 2 for i in range(5)]
    assert all(smoothed[i + 1] < smoothed[i] for i in range(4))


# ---------------------------------------------------------------------------
# divergence handling
# ---------------------------------------------------------------------------


def bench10(seed=0):
    spec = SyntheticSpec(num_classes=10, objects_per_class=24, views_per_object=8,
                         input_dim=24, class_separation=2.0, object_noise_std=0.7,
                         view_noise_std=0.35, seed=seed)
    return split(generate(spec), 0.5, seed)


def bench10_config(loss_name, seed=0, epochs=30, **lkw):
    return TrainConfig(batch_size=50, epochs=epochs, seed=seed, hidden_dims=(32,),
                       embedding_dim=16, init_std=0.3,
                       loss=LossConfig.from_name(loss_name, **lkw))


def test_cluster_only_trips_collapse_detector():
    with pytest.raises(DivergenceError) as err:
        train(bench10(), bench10_config("cluster", epochs=10))
    assert err.value.signal == "centerline_collapse"
    assert err.value.last_good is not None
    assert len(err.value.history) >= 1


def test_ortho_only_trips_stall_detector():
    with pytest.raises(DivergenceError) as err:
        train(bench10(), bench10_config("ortho", epochs=15))
    assert err.value.signal == "centerline_stall"


def test_momentum_heavy_run_diverges():
    # the same config is healthy at zero momentum (see below); heavy momentum
    # amplifies the pull/push feedback past stability at this scale
    cfg = bench10_config("cip+softmax", epochs=10)
    cfg.momentum = 0.9
    with pytest.raises(DivergenceError) as err:
        train(bench10(), cfg)
    assert err.value.signal in ("centerline_blowup", "non_finite")
    assert err.value.last_good is not None


def test_healthy_cip_run_completes():
    res = train(bench10(), bench10_config("cip", epochs=8))
    assert res.epochs_run == 8
    assert np.isfinite(res.history[-1]["total"])


# ---------------------------------------------------------------------------
# checkpoints and history files
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    ds = bench_dataset()
    res = train(ds, quick_config(loss=LossConfig.from_name("cip+softmax")))
    path = tmp_path / "ckpt.json"
    save_checkpoint(res, path, meta={"seed": 0})
    loaded = load_checkpoint(path)
    for wa, wb in zip(res.params.weights, loaded.params.weights):
        np.testing.assert_array_equal(wa, wb)
    np.testing.assert_array_equal(res.bank.centers, loaded.bank.centers)
    np.testing.assert_array_equal(res.classifier.weights, loaded.classifier.weights)
    # optimizer state travels with the checkpoint
    np.testing.assert_array_equal(res.velocity, loaded.velocity)
    assert loaded.meta["seed"] == 0
    assert loaded.meta["epochs_run"] == 4


def test_checkpoint_version_check(tmp_path):
    ds = bench_dataset()
    res = train(ds, quick_config())
    path = tmp_path / "ckpt.json"
    save_checkpoint(res, path)
    import json

    doc = json.loads(path.read_text())
    doc["format_version"] = 42
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(path)


def test_checkpoint_views_share_one_buffer():
    res = train(bench_dataset(), quick_config(loss=LossConfig.from_name("cip+softmax")))
    tensors = (*res.params.weights, *res.params.biases, res.classifier.weights,
               res.classifier.bias, res.bank.centers)
    base = res.bank.centers.base
    assert base is not None and all(t.base is base for t in tensors)
    assert base.size == res.velocity.size == sum(t.size for t in tensors)


def _corrupt(doc, case):
    if case in ("encoder", "centerlines"):
        del doc[case]
    elif case == "velocity":
        doc["velocity"] = doc["velocity"][:-1]
    else:
        doc["classifier"]["weights"] = [row[:-1] for row in doc["classifier"]["weights"]]


@pytest.mark.parametrize("case, message", [
    ("encoder", "no 'encoder' entry"),
    ("centerlines", "no 'centerlines' entry"),
    ("velocity", "velocity has"),
    ("classifier", "classifier shape"),
])
def test_checkpoint_schema_check(tmp_path, case, message):
    import json

    res = train(bench_dataset(), quick_config(loss=LossConfig.from_name("cip+softmax")))
    path = tmp_path / "ckpt.json"
    save_checkpoint(res, path)
    doc = json.loads(path.read_text())
    _corrupt(doc, case)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_history_csv_layout(tmp_path):
    ds = bench_dataset()
    res = train(ds, quick_config())
    path = tmp_path / "history.csv"
    history_to_csv(res.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,cluster,ortho,softmax,center,total,map"
    assert len(lines) == 1 + len(res.history)
