import dataclasses
import json
import shutil

import numpy as np
import pytest

from cipbench.cli import main
from cipbench.config import DEFAULTS, RunConfig
from cipbench.data import SyntheticSpec, load_dataset
from cipbench.losses import LossConfig
from cipbench.trainer import TrainConfig

# a tiny but trainable configuration so CLI tests stay fast
FAST = [
    "num_classes=4", "objects_per_class=6", "views_per_object=3", "input_dim=8",
    "class_separation=2.0", "object_noise_std=0.4", "view_noise_std=0.2",
    "hidden_dims=8", "embedding_dim=4", "init_std=0.3",
    "batch_size=18", "epochs=3", "lr_drop_epoch=2",
]


def fast_args(*pairs):
    out = []
    for p in (*FAST, *pairs):
        out += ["--set", p]
    return out


def run_generate(tmp_path, *pairs):
    out = tmp_path / "data"
    code = main(["generate", "--out", str(out), *fast_args(*pairs)])
    assert code == 0
    return out / "dataset.csv"


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_expected_rows(tmp_path):
    csv_path = run_generate(tmp_path)
    ds = load_dataset(csv_path)
    assert ds.num_views == 4 * 6 * 3
    assert ds.split is not None
    assert (tmp_path / "data" / "config.used.cfg").exists()


def test_generate_invalid_class_count_exits_1(tmp_path, capsys):
    code = main(["generate", "--out", str(tmp_path / "x"), *fast_args("num_classes=0")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_generate_same_seed_byte_identical(tmp_path):
    a = run_generate(tmp_path / "a")
    b = run_generate(tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_generate_unknown_key_rejected(tmp_path, capsys):
    code = main(["generate", "--out", str(tmp_path / "x"), "--set", "frobnicate=1"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_plus_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("num_classes = 5\nseed = 7  # inline comment\n")
    cfg = RunConfig.from_sources(cfg_file, ["seed=9"])
    assert cfg.num_classes == 5
    assert cfg.seed == 9  # --set wins over the file
    assert cfg.batch_size == DEFAULTS["batch_size"][0]


def test_defaults_come_from_the_dataclasses():
    cfg = RunConfig.from_sources(None, [])
    loss = LossConfig.from_name("cip+softmax")
    assert cfg.synthetic_spec() == SyntheticSpec()
    assert cfg.loss_config() == loss
    assert cfg.train_config() == TrainConfig(loss=loss)
    field_keys = {"lambda" if f.name == "lam" else f.name
                  for cls in (SyntheticSpec, LossConfig, TrainConfig)
                  for f in dataclasses.fields(cls)}
    field_keys -= {"seed", "loss", "use_cluster", "use_ortho", "use_softmax", "use_center"}
    run_keys = {"seed", "out_dir", "train_fraction", "loss", "f1_cutoff", "ndcg_cutoff"}
    assert set(DEFAULTS) == field_keys | run_keys


def test_config_file_bad_line(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("num_classes\n")
    code = main(["generate", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert code == 1


def test_resolved_config_round_trips(tmp_path):
    out = tmp_path / "data"
    main(["generate", "--out", str(out), *fast_args("seed=5")])
    reloaded = RunConfig.from_sources(out / "config.used.cfg", [])
    assert reloaded.seed == 5
    assert reloaded.hidden_dims == (8,)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_smoke_writes_outputs(tmp_path):
    csv_path = run_generate(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(csv_path), "--out", str(out), *fast_args()])
    assert code == 0
    assert (out / "checkpoint.json").exists()
    history = (out / "history.csv").read_text().strip().splitlines()
    assert len(history) == 1 + 3  # header + one row per epoch


def test_train_history_shows_lr_drop(tmp_path):
    csv_path = run_generate(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(csv_path), "--out", str(out),
                 *fast_args("epochs=4", "lr_drop_epoch=2", "lr0=0.01", "lr_drop_factor=5")])
    assert code == 0
    rows = (out / "history.csv").read_text().strip().splitlines()[1:]
    lrs = [float(r.split(",")[1]) for r in rows]
    assert lrs[1] == pytest.approx(0.01) and lrs[2] == pytest.approx(0.002)


def test_train_missing_dataset_exits_1(tmp_path, capsys):
    code = main(["train", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("num_classes", [6, 12])
def test_train_class_count_comes_from_the_data(tmp_path, num_classes):
    # the num_classes config key only shapes generated data; training with the
    # default value (10) must still fit the dataset's own class count
    csv_path = run_generate(tmp_path, f"num_classes={num_classes}")
    out = tmp_path / "run"
    sets = [x for p in FAST if not p.startswith("num_classes=") for x in ("--set", p)]
    assert main(["train", "--dataset", str(csv_path), "--out", str(out), *sets]) == 0
    doc = json.loads((out / "checkpoint.json").read_text())
    assert len(doc["centerlines"]) == num_classes


def test_train_non_finite_csv_is_a_data_error(tmp_path, capsys):
    csv_path = run_generate(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
    csv_path.write_text("\n".join(lines) + "\n")
    code = main(["train", "--dataset", str(csv_path), "--out", str(tmp_path / "run"), *fast_args()])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {csv_path}:3: non-finite coordinate\n"


def test_train_cluster_only_divergence_exits_2(tmp_path, capsys):
    # cluster-only on the standard benchmark trips the divergence detector
    out_d = tmp_path / "bench"
    code = main(["generate", "--out", str(out_d), "--set", "seed=0"])
    assert code == 0
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(out_d / "dataset.csv"), "--out", str(out),
                 "--set", "loss=cluster", "--set", "epochs=10"])
    assert code == 2
    err = capsys.readouterr().err
    assert "diverged" in err and "centerline_collapse" in err
    assert (out / "checkpoint.last_good.json").exists()
    assert (out / "history.csv").exists()


# ---------------------------------------------------------------------------
# eval / export
# ---------------------------------------------------------------------------


@pytest.fixture()
def trained(tmp_path):
    csv_path = run_generate(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(csv_path), "--out", str(out), *fast_args()]) == 0
    return csv_path, out / "checkpoint.json"


def test_eval_writes_metrics_and_geometry(tmp_path, trained):
    csv_path, ckpt = trained
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(out), *fast_args()])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= doc["micro"]["map"] <= 1.0
    assert 0.0 <= doc["macro"]["ndcg"] <= 1.0
    geo = json.loads((out / "geometry.json").read_text())
    assert len(geo["centerline_cosines"]) == 4
    lines = (out / "geometry.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + K rows
    metrics_csv = (out / "metrics.csv").read_text().strip().splitlines()
    assert metrics_csv[0].startswith("aggregation,map,")
    assert len(metrics_csv) == 3  # header + micro + macro
    assert float(metrics_csv[1].split(",")[1]) == pytest.approx(doc["micro"]["map"], rel=1e-9)


def test_eval_perfect_embedding_fixture(tmp_path):
    # zero noise, separable classes, identity encoder: retrieval must be exact
    out_d = tmp_path / "data"
    code = main(["generate", "--out", str(out_d), *fast_args(
        "object_noise_std=0", "view_noise_std=0", "num_classes=3", "input_dim=3")])
    assert code == 0
    from cipbench.encoder import MlpParams, MlpSpec, params_to_dict

    ckpt = tmp_path / "identity.json"
    params = MlpParams(MlpSpec.from_dims((3, 3)), [np.eye(3)], [np.zeros(3)])
    ckpt.write_text(json.dumps({
        "format_version": 2,
        "encoder": params_to_dict(params),
        "centerlines": np.eye(3).tolist(),
        "classifier": None,
        "meta": {},
    }))
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(out_d / "dataset.csv"),
                 "--out", str(out), *fast_args("num_classes=3", "input_dim=3")])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["micro"]["map"] == 1.0


def test_eval_checkpoint_without_centerlines_exits_2(tmp_path, trained, capsys):
    csv_path, ckpt = trained
    doc = json.loads(ckpt.read_text())
    del doc["centerlines"]
    ckpt.write_text(json.dumps(doc))
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(tmp_path / "e"), *fast_args()])
    assert code == 2
    assert capsys.readouterr().err == f"error: {ckpt}: checkpoint has no 'centerlines' entry\n"


@pytest.mark.parametrize("case, message", [
    ("no_layer_dims", "encoder has no 'layer_dims' entry"),
    ("not_an_object", "checkpoint is not a JSON object"),
])
def test_eval_malformed_checkpoint_exits_2(tmp_path, trained, capsys, case, message):
    csv_path, ckpt = trained
    doc = json.loads(ckpt.read_text())
    if case == "no_layer_dims":
        del doc["encoder"]["layer_dims"]
    else:
        doc = [1]
    ckpt.write_text(json.dumps(doc))
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(tmp_path / "e"), *fast_args()])
    assert code == 2
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def test_eval_missing_checkpoint_exits_1(tmp_path, trained):
    csv_path, _ = trained
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                 "--dataset", str(csv_path), "--out", str(tmp_path / "e")])
    assert code == 1


@pytest.mark.parametrize("command", ["eval", "export"])
def test_input_dim_disagreement_names_both_files(tmp_path, trained, capsys, command):
    _, ckpt = trained
    other = tmp_path / "wide"
    assert main(["generate", "--out", str(other), *fast_args("input_dim=12")]) == 0
    csv_path = other / "dataset.csv"
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([command, "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(out), *fast_args("input_dim=12")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: encoder takes 8 inputs, but {csv_path} has 12 coordinate columns\n"
    )
    assert not out.exists()


def test_eval_class_count_disagreement_names_both_files(tmp_path, trained, capsys):
    _, ckpt = trained
    other = tmp_path / "more"
    assert main(["generate", "--out", str(other), *fast_args("num_classes=6")]) == 0
    csv_path = other / "dataset.csv"
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(out), *fast_args("num_classes=6")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: 4 centerlines, but {csv_path} has labels up to 6\n"
    )
    assert not out.exists()


def test_export_per_view_rows(tmp_path, trained):
    csv_path, ckpt = trained
    out_file = tmp_path / "emb.csv"
    code = main(["export", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(out_file), *fast_args()])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "object_id,label," + ",".join(f"e{i}" for i in range(4))
    assert len(lines) == 1 + 4 * 6 * 3


def test_export_pooled_rows(tmp_path, trained):
    csv_path, ckpt = trained
    out_file = tmp_path / "emb.csv"
    code = main(["export", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(out_file), "--pooled", *fast_args()])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 6


def test_export_deterministic(tmp_path, trained):
    csv_path, ckpt = trained
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["export", "--checkpoint", str(ckpt), "--dataset", str(csv_path), "--out", str(a), *fast_args()])
    main(["export", "--checkpoint", str(ckpt), "--dataset", str(csv_path), "--out", str(b), *fast_args()])
    assert a.read_bytes() == b.read_bytes()


def test_eval_paired_runs_cip_beats_softmax(tmp_path):
    # one benchmark seed, two losses, same data: the combined loss must rank
    # higher, mirroring the headline ordering at desk scale
    data_dir = tmp_path / "bench"
    assert main(["generate", "--out", str(data_dir), "--set", "seed=0"]) == 0
    maps = {}
    for name, overrides in (
        ("cip+softmax", ["loss=cip+softmax"]),
        ("softmax", ["loss=softmax", "softmax_weight=1.0"]),
    ):
        run = tmp_path / f"run-{name}"
        sets = [x for o in overrides for x in ("--set", o)]
        assert main(["train", "--dataset", str(data_dir / "dataset.csv"),
                     "--out", str(run), *sets]) == 0
        out = tmp_path / f"eval-{name}"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--dataset", str(data_dir / "dataset.csv"), "--out", str(out)]) == 0
        maps[name] = json.loads((out / "metrics.json").read_text())["micro"]["map"]
    assert maps["cip+softmax"] > maps["softmax"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_rows(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--lambdas", "0.5,1", "--ds", "2", "--out", str(out), *fast_args()])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,d,converged,final_total,map"
    assert len(lines) == 3
    assert all(line.split(",")[2] == "1" for line in lines[1:])  # converged
    assert "spread" in capsys.readouterr().out


def test_sweep_wide_lambda_range_converges_on_benchmark(tmp_path):
    # the sensitivity protocol: pure combined loss, gentle batch size
    out = tmp_path / "sweep"
    code = main(["sweep", "--lambdas", "0.1,1,10", "--ds", "2", "--out", str(out),
                 "--set", "batch_size=25"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(r.split(",")[2] == "1" for r in rows)
    finals = [float(r.split(",")[3]) for r in rows]
    assert all(np.isfinite(f) for f in finals)


def test_sweep_empty_lambda_list_exits_1(tmp_path, capsys):
    code = main(["sweep", "--lambdas", "", "--out", str(tmp_path / "s"), *fast_args()])
    assert code == 1
    assert "empty" in capsys.readouterr().err


def test_help_lists_config_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    text = capsys.readouterr().out
    assert "config keys and defaults" in text
    assert "lambda = 1.0" in text
    assert "batch_size = 50" in text


# ---------------------------------------------------------------------------
# exit-code contract for wrongly typed file entries
# ---------------------------------------------------------------------------

WRONG_TYPES = [{}, [1], 5, "x", None]
CHECKPOINT_ENTRIES = [
    *(("checkpoint", key) for key in
      ("format_version", "encoder", "centerlines", "classifier", "velocity", "meta")),
    *(("checkpoint", "encoder", key) for key in
      ("format_version", "layer_dims", "hidden_activations", "final_activation", "weights", "biases")),
]
SIDECAR_ENTRIES = [
    *(("sidecar", key) for key in ("format_version", "input_dim", "spec", "split")),
    *(("sidecar", "spec", f.name) for f in dataclasses.fields(SyntheticSpec)),
]


@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    csv_path = run_generate(root)
    out = root / "run"
    assert main(["train", "--dataset", str(csv_path), "--out", str(out), *fast_args()]) == 0
    return csv_path, out / "checkpoint.json"


@pytest.mark.parametrize("entry", CHECKPOINT_ENTRIES + SIDECAR_ENTRIES, ids="/".join)
@pytest.mark.parametrize("value", WRONG_TYPES, ids=json.dumps)
def test_wrongly_typed_entry_is_one_error_line(tmp_path, trained_once, capsys, entry, value):
    # cipbench eval on a checkpoint, or cipbench train on a dataset whose
    # sidecar, has one entry replaced: it runs (exit 0) or prints one
    # "error: <file>: ..." line (exit 2), never a traceback
    csv_path, ckpt = trained_once
    kind, *keys = entry
    if kind == "checkpoint":
        source, edited = ckpt, tmp_path / "checkpoint.json"
        argv = ["eval", "--checkpoint", str(edited), "--dataset", str(csv_path)]
    else:
        source, edited = csv_path.with_suffix(".json"), tmp_path / "dataset.json"
        shutil.copy(csv_path, tmp_path / "dataset.csv")
        argv = ["train", "--dataset", str(tmp_path / "dataset.csv")]
    doc = json.loads(source.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    assert keys[-1] in parent
    parent[keys[-1]] = value
    edited.write_text(json.dumps(doc))
    code = main([*argv, "--out", str(tmp_path / "out"), *fast_args()])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith(f"error: {edited}: "), err
