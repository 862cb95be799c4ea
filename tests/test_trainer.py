import copy
import dataclasses
import pickle

import numpy as np
import pytest

from cipbench import encoder, losses, trainer
from cipbench.data import Dataset, SyntheticSpec, generate, split
from cipbench.losses import CenterlineBank, LabeledBatch, LossConfig, LossReport, loss_report
from cipbench.trainer import (
    DivergenceError,
    TrainConfig,
    TrainResult,
    _bind_views,
    _detect_divergence,
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


def test_train_with_a_batch_larger_than_the_data_is_the_one_batch_run():
    # a batch_size past the training rows means one batch per epoch; the
    # step buffers are sized by the rows, not by batch_size
    ds = split(bench_dataset(objects_per_class=4), 0.5, 0)
    n = int(np.count_nonzero(~ds.test_mask()))
    big = train(ds, quick_config(batch_size=2**62, epochs=1))
    whole = train(ds, quick_config(batch_size=n, epochs=1))
    assert big.theta.tobytes() == whole.theta.tobytes()
    assert big.history == whole.history


def test_train_history_has_all_terms():
    ds = bench_dataset()
    res = train(ds, quick_config(loss=LossConfig.from_name("cip+softmax")))
    assert len(res.history) == 4
    for row in res.history:
        for key in ("epoch", "lr", "cluster", "ortho", "softmax", "center", "total"):
            assert key in row
        assert row["softmax"] > 0.0
        assert row["center"] == 0.0


TERM_FUNCTIONS = ("pull_term", "push_term", "push_batch_term", "softmax_ce", "center_loss")


@pytest.mark.parametrize("loss", ["cip+softmax", "cip+center", "softmax+center"])
def test_train_validates_once_and_builds_no_per_step_objects(monkeypatch, loss):
    # train checks its inputs at entry; a step builds no LabeledBatch and no
    # LossReport, and calls each enabled term function once; a call builds
    # one TrainResult, its return value
    built = {"LabeledBatch": 0, "LossReport": 0, "TrainResult": 0}
    calls = dict.fromkeys(("sgd_step", *TERM_FUNCTIONS), 0)

    def counted(counts, name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(LabeledBatch, "__post_init__", counted(built, "LabeledBatch", LabeledBatch.__post_init__))
    monkeypatch.setattr(LossReport, "__init__", counted(built, "LossReport", LossReport.__init__))
    monkeypatch.setattr(TrainResult, "__init__", counted(built, "TrainResult", TrainResult.__init__))
    monkeypatch.setattr(trainer, "sgd_step", counted(calls, "sgd_step", trainer.sgd_step))
    for name in TERM_FUNCTIONS:
        monkeypatch.setattr(losses, name, counted(calls, name, getattr(losses, name)))
    res = train(bench_dataset(), quick_config(loss=LossConfig.from_name(loss)))
    assert len(res.history) == 4
    assert built == {"LabeledBatch": 0, "LossReport": 0, "TrainResult": 1}
    steps = calls.pop("sgd_step")
    assert steps == 4 * 8  # 128 training rows in batches of 16
    enabled = {"cip+softmax": {"pull_term", "push_term", "softmax_ce"},
               "cip+center": {"pull_term", "push_term", "center_loss"},
               "softmax+center": {"softmax_ce", "center_loss"}}[loss]
    assert calls == {name: steps if name in enabled else 0 for name in TERM_FUNCTIONS}
    # the counters do see a construction
    loss_report(LabeledBatch(np.ones((1, 2)), np.array([1])), CenterlineBank(np.eye(2)),
                LossConfig.from_name("cip"))
    assert built == {"LabeledBatch": 1, "LossReport": 1, "TrainResult": 1}


def test_train_steps_run_the_encoder_loops_not_the_checked_entries(monkeypatch):
    # a step calls neither forward_batch nor backward_batch nor layer_dims;
    # the only calls left are evaluate_map's forward_batch and its layer_dims
    calls = dict.fromkeys(("forward_batch", "backward_batch", "layer_dims"), 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(encoder, "forward_batch", counted("forward_batch", encoder.forward_batch))
    monkeypatch.setattr(encoder, "backward_batch", counted("backward_batch", encoder.backward_batch))
    monkeypatch.setattr(encoder.MlpParams, "layer_dims",
                        property(counted("layer_dims", encoder.MlpParams.layer_dims.fget)))
    ds = split(bench_dataset(), 0.5, 0)
    train(ds, quick_config())
    assert calls == {"forward_batch": 0, "backward_batch": 0, "layer_dims": 0}
    train(ds, quick_config(eval_every=2))
    assert calls == {"forward_batch": 2, "backward_batch": 0, "layer_dims": 2}


def _nan_embeddings(forward_layers):
    def poisoned(*args):
        outputs = forward_layers(*args)
        outputs[-1][0, 0] = np.nan
        return outputs
    return poisoned


def _inf_loss(pull_term):
    return lambda *args: pull_term(*args) + np.inf


def _nan_center_grads(pull_term):
    def poisoned(*args):
        value = pull_term(*args)
        args[5][0, 0] = np.nan  # cgrads
        return value
    return poisoned


@pytest.mark.parametrize("owner, name, poison, message", [
    (encoder, "forward_layers", _nan_embeddings, "non-finite embeddings at epoch 2"),
    (losses, "pull_term", _inf_loss, "non-finite loss at epoch 2"),
    (losses, "pull_term", _nan_center_grads, "aborting epoch 2: non-finite gradient"),
], ids=["embeddings", "loss", "gradient"])
def test_per_step_non_finite_checks_keep_their_message_and_epoch(monkeypatch, owner, name,
                                                                  poison, message):
    # the 21st step (8 per epoch) goes bad: each check names epoch 2
    original = getattr(owner, name)
    poisoned, step = poison(original), [0]

    def on_step_21(*args):
        step[0] += 1
        return (poisoned if step[0] == 21 else original)(*args)

    monkeypatch.setattr(owner, name, on_step_21)
    with pytest.raises(DivergenceError) as err:
        train(bench_dataset(), quick_config())
    e = err.value
    assert (str(e), e.signal, e.epoch) == (message, "non_finite", 2)
    assert len(e.history) == 2 and e.last_good.history == e.history


def test_train_eval_every_records_map():
    ds = split(bench_dataset(), 0.5, 0)
    res = train(ds, quick_config(eval_every=2))
    assert "map" in res.history[1] and "map" not in res.history[0]
    assert 0.0 <= res.history[1]["map"] <= 1.0


def test_train_eval_every_on_an_unscorable_dataset_fails_before_training(monkeypatch):
    # three objects per class leave one test object per class: no query has a relevant item
    ds = split(bench_dataset(objects_per_class=3), 0.5, 0)
    monkeypatch.setattr("cipbench.trainer.iterate_batches", lambda *a: pytest.fail("trained"))
    with pytest.raises(ValueError, match="^dataset: no class has two objects among the evaluation rows$"):
        train(ds, quick_config(eval_every=1))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_refuses_a_non_finite_input_as_a_data_error_not_a_divergence(monkeypatch, value):
    ds = bench_dataset()
    inputs = ds.inputs.copy()
    inputs[[5, 9], 3] = value
    ds = Dataset(inputs, ds.labels, ds.object_ids, ds.view_index)
    monkeypatch.setattr("cipbench.trainer.iterate_batches", lambda *a: pytest.fail("trained"))
    with pytest.raises(ValueError) as err:
        train(ds, quick_config())
    assert str(err.value) == "dataset: input row 5 is not finite"


def test_train_uses_train_split_only():
    ds = split(bench_dataset(), 0.5, 0)
    res = train(ds, quick_config())
    assert len(res.history) == 4


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
    # training rows hold one class; a single held-out class-2 object gives
    # the bank its second centerline (labels stay in range)
    one = generate(SyntheticSpec(num_classes=1, objects_per_class=30, views_per_object=4,
                                 input_dim=8, class_separation=2.0, object_noise_std=0.3,
                                 view_noise_std=0.15, seed=3))
    extra = int(one.object_ids.max()) + 1
    ds = Dataset(
        np.vstack([one.inputs, np.zeros((1, 8))]), np.append(one.labels, 2),
        np.append(one.object_ids, extra), np.append(one.view_index, 1),
        split={**{int(o): "train" for o in one.object_ids}, extra: "test"},
    )
    cfg = TrainConfig(batch_size=30, epochs=6, seed=0,
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


def test_a_divergence_error_round_trips_through_pickle_and_copy():
    # a worker process hands a diverged run back pickled: the rebuilt error
    # has the same message, verdict, history and last good state
    cfg = bench10_config("cip+softmax", epochs=10)
    cfg.momentum = 0.9
    with pytest.raises(DivergenceError) as err:
        train(bench10(), cfg)
    e = err.value
    for again in (pickle.loads(pickle.dumps(e)), copy.copy(e)):
        assert type(again) is DivergenceError
        assert (str(again), again.signal, again.epoch) == (str(e), e.signal, e.epoch)
        assert again.history == e.history and again.last_good.history == e.last_good.history
        assert again.last_good.theta.tobytes() == e.last_good.theta.tobytes()


@pytest.mark.parametrize("loss_name, train_kw, loss_kw, signal, message", [
    ("cluster", {}, {}, "centerline_collapse", "divergence detected at epoch 6: "),
    ("ortho", {}, {}, "centerline_stall", "divergence detected at epoch 12: "),
    ("cip+softmax", {"momentum": 0.9}, {}, "centerline_blowup", "divergence detected at epoch 1: "),
    # a per-step exit, before the epoch's history row is written
    ("cip", {"batch_size": 25, "lr0": 0.005, "momentum": 0.5, "centerline_collapse_cosine": 2.0},
     {"lam": 10.0, "d": 0.5}, "non_finite", "non-finite embeddings at epoch 6"),
], ids=["collapse", "stall", "blowup", "non_finite_step"])
def test_last_good_is_the_run_stopped_at_the_failing_epoch(loss_name, train_kw, loss_kw,
                                                           signal, message):
    # last_good holds the state and the history rows of a run of e.epoch epochs
    ds = split(generate(SyntheticSpec(seed=0)), 0.5, 0)
    cfg = TrainConfig(**train_kw, loss=LossConfig.from_name(loss_name, **loss_kw))
    with pytest.raises(DivergenceError) as err:
        train(ds, cfg)
    e = err.value
    assert e.signal == signal and str(e).startswith(message)
    assert e.last_good.history == e.history[:e.epoch]
    short = train(ds, dataclasses.replace(cfg, epochs=e.epoch))
    assert short.theta.tobytes() == e.last_good.theta.tobytes()
    assert short.history == e.last_good.history


@pytest.mark.parametrize("tensor", ["encoder bias", "classifier weights", "classifier bias"])
def test_non_finite_check_covers_every_trainable_value(tensor):
    # the epoch-end check reads the whole flat buffer, so a NaN outside the
    # encoder weights and centerlines trips non_finite too
    cfg = quick_config(loss=LossConfig.from_name("cip+softmax"))
    res = train(bench_dataset(), cfg)
    theta = res.theta.copy()
    params, bank, classifier = _bind_views(theta, res.params.layer_dims, 4, softmax=True)
    assert _detect_divergence(theta, bank.centers, 0, cfg, 1.0) is None
    view = {"encoder bias": params.biases[0], "classifier weights": classifier.weights,
            "classifier bias": classifier.bias}[tensor]
    view.flat[0] = np.nan
    signal, _ = _detect_divergence(theta, bank.centers, 0, cfg, 1.0)
    assert signal == "non_finite"


def test_healthy_cip_run_completes():
    res = train(bench10(), bench10_config("cip", epochs=8))
    assert len(res.history) == 8
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
    np.testing.assert_array_equal(res.theta, loaded.theta)
    for wa, wb in zip(res.params.weights, loaded.params.weights):
        np.testing.assert_array_equal(wa, wb)
    np.testing.assert_array_equal(res.bank.centers, loaded.bank.centers)
    np.testing.assert_array_equal(res.classifier.weights, loaded.classifier.weights)
    assert loaded.meta["seed"] == 0
    assert loaded.meta["epochs_run"] == 4
    # the loaded views share one buffer, as the trained ones do
    tensors = (*loaded.params.weights, *loaded.params.biases, loaded.classifier.weights,
               loaded.classifier.bias, loaded.bank.centers)
    assert all(t.base is loaded.theta for t in tensors)
    # saving what was loaded writes the same bytes
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again, meta=loaded.meta)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_version_check(tmp_path):
    ds = bench_dataset()
    res = train(ds, quick_config())
    path = tmp_path / "ckpt.json"
    save_checkpoint(res, path)
    import json

    doc = json.loads(path.read_text())
    for version in (42, 4, 3, 2):
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unsupported checkpoint format version: {version}"):
            load_checkpoint(path)


def test_checkpoint_views_share_one_buffer():
    res = train(bench_dataset(), quick_config(loss=LossConfig.from_name("cip+softmax")))
    tensors = (*res.params.weights, *res.params.biases, res.classifier.weights,
               res.classifier.bias, res.bank.centers)
    base = res.bank.centers.base
    assert base is res.theta and all(t.base is base for t in tensors)
    assert base.size == sum(t.size for t in tensors)


def _corrupt(doc, case):
    if case == "layer_dims":
        del doc[case]
    elif case == "theta":
        doc[case] = doc[case][:-1]
    elif case == "classifier":
        doc["classifier"] = False
    elif case == "non_finite":
        doc["theta"][0] = float("nan")
    elif case == "integer_past_float64":
        doc["theta"][0] = 10**400
    else:
        doc["meta"] = [1]


@pytest.mark.parametrize("case, message", [
    ("layer_dims", "no 'layer_dims' entry"),
    ("theta", "theta has shape"),
    # a classifier flag that disagrees with theta leaves values over
    ("classifier", "theta has shape"),
    ("non_finite", "theta contains non-finite values"),
    ("integer_past_float64", "theta contains non-finite values"),
    ("meta", "'meta' entry is not of type dict"),
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


def test_checkpoint_bad_json_names_the_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{bad")
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: Expecting property name")


def test_history_csv_layout(tmp_path):
    ds = bench_dataset()
    res = train(ds, quick_config())
    path = tmp_path / "history.csv"
    history_to_csv(res.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,cluster,ortho,softmax,center,total,map"
    assert len(lines) == 1 + len(res.history)
