import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import cipbench
from cipbench import cli, data, vectors
from cipbench.cli import main
from cipbench.config import DEFAULTS, RunConfig
from cipbench.data import SyntheticSpec, load_dataset
from cipbench.encoder import forward_batch
from cipbench.losses import LossConfig
from cipbench.retrieval import pool_descriptors
from cipbench.trainer import TrainConfig, load_checkpoint, save_checkpoint

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


def csv_cells(path):
    """Rows of cells of a CSV the package wrote, whose lines end in \\n."""
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    return [line.split(",") for line in data.decode().split("\n")[:-1]]


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


def test_module_run_is_the_command_line(tmp_path):
    # python -m cipbench.cli runs the same main as the cipbench script
    env = {**os.environ, "PYTHONPATH": str(Path(cipbench.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "cipbench.cli", "generate", "--out", str(tmp_path),
         "--set", "objects_per_class=2"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "dataset.csv").is_file()


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


def test_the_dataclass_defaults_are_the_cli_default_run():
    # the standard benchmark's values, written out once outside bench/: the
    # dataclass defaults hold README's figures, and the CLI's defaults are them
    cfg = RunConfig.from_sources(None, [])
    assert cfg.synthetic_spec() == SyntheticSpec() == SyntheticSpec(
        num_classes=10, objects_per_class=24, views_per_object=8, input_dim=24, class_separation=2.0,
        object_noise_std=0.7, view_noise_std=0.35, prototype_scheme="orthonormal", seed=0)
    assert cfg.train_config() == TrainConfig() == TrainConfig(
        batch_size=50, epochs=30, lr0=0.01, lr_drop_epoch=20, lr_drop_factor=5.0, momentum=0.0,
        weight_decay=2e-4, seed=0, hidden_dims=(32,), embedding_dim=16, init_std=0.3,
        centerline_collapse_cosine=0.95, eval_every=0,
        loss=LossConfig(lam=1.0, d=2.0, softmax_weight=0.1, center_weight=0.0003, ortho_variant="centerline",
                        use_cluster=True, use_ortho=True, use_softmax=True, use_center=False))
    assert cfg.loss_config() == TrainConfig().loss


def test_defaults_come_from_the_dataclasses():
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


def test_non_utf8_config_file_is_a_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"\xffseed = 1\n")
    out = tmp_path / "x"
    assert main(["generate", "--config", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: cannot read config file: {cfg_file}: 'utf-8' codec")
    assert not out.exists()


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


def test_train_batch_push_variant_on_the_defaults(tmp_path):
    # the README's weight for the centerline-free push trains cleanly on the
    # standard benchmark
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data)]) == 0
    assert main(["train", "--dataset", str(data / "dataset.csv"), "--out", str(out),
                 "--set", "ortho_variant=batch", "--set", "lambda=0.01"]) == 0
    header, *rows = csv_cells(out / "history.csv")
    assert len(rows) == DEFAULTS["epochs"][0]
    assert all(np.isfinite(float(row[header.index("total")])) for row in rows)


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
    assert load_checkpoint(out / "checkpoint.json").bank.num_classes == num_classes


def test_train_non_finite_csv_is_a_data_error(tmp_path, capsys):
    csv_path = run_generate(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
    csv_path.write_text("\n".join(lines) + "\n")
    code = main(["train", "--dataset", str(csv_path), "--out", str(tmp_path / "run"), *fast_args()])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {csv_path}:3: non-finite coordinate\n"


@pytest.mark.parametrize("column, value", [(0, 2**63), (1, 10**23), (2, -(10**23))],
                         ids=["object_id", "label", "view_index"])
def test_train_integer_past_int64_is_a_data_error(tmp_path, capsys, column, value):
    # an integer cell that does not fit in int64 names its line, as a
    # non-finite coordinate does, instead of overflowing or wrapping
    csv_path = run_generate(tmp_path)
    lines = csv_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[column] = str(value)
    lines[3] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(csv_path), "--out", str(out), *fast_args()])
    assert code == 2
    assert capsys.readouterr().err == f"error: {csv_path}:4: integer out of the int64 range\n"
    assert not out.exists()


def test_train_non_utf8_csv_names_the_file(tmp_path, capsys):
    csv_path = tmp_path / "dataset.csv"
    csv_path.write_bytes(b"object_id,label,view_index,x0\n1,1,1,\xff\n")
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(csv_path), "--out", str(out), *fast_args()]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {csv_path}: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


def test_train_on_a_sidecar_that_tags_an_object_with_no_row_exits_2(tmp_path, capsys):
    csv_path = run_generate(tmp_path)
    sidecar = csv_path.with_suffix(".json")
    doc = json.loads(sidecar.read_text())
    doc["split"]["999"] = "test"
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--dataset", str(csv_path), "--out", str(tmp_path / "run"),
                 *fast_args("epochs=1")]) == 2
    assert capsys.readouterr().err == f"error: {sidecar}: split map tags object id 999, which has no row\n"


def test_train_on_a_csv_named_like_its_sidecar_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "d.json"
    shutil.copyfile(run_generate(tmp_path), csv_path)
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(csv_path), "--out", str(out), *fast_args()]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv_path}: a dataset CSV cannot end in .json, which names its sidecar\n")
    assert not out.exists()


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


def test_eval_takes_cutoffs_up_to_the_int64_maximum(tmp_path, trained_once):
    # a cutoff past every row scores as the row's length for NDCG and as
    # itself for F1's precision
    csv_path, ckpt = trained_once
    metrics = {}
    for f1, depth in (("9223372036854775807", "9223372036854775807"), ("auto", "auto")):
        out = tmp_path / f1
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path), "--out",
                     str(out), *fast_args(f"f1_cutoff={f1}", f"ndcg_cutoff={depth}")]) == 0
        metrics[f1] = json.loads((out / "metrics.json").read_text())["micro"]
    big, auto = metrics.values()
    assert (big["map"], big["pr_auc"], big["ndcg"]) == (auto["map"], auto["pr_auc"], auto["ndcg"])
    assert 0.0 < big["f1"] < 1e-15


def test_eval_csv_cells_equal_the_json_values(tmp_path, trained):
    # metrics.csv and geometry.csv carry the JSON files' values in the same
    # shortest round-trip text, not rounded copies
    csv_path, ckpt = trained
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(out), *fast_args()]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    header, *rows = csv_cells(out / "metrics.csv")
    assert [row[0] for row in rows] == ["micro", "macro"]
    for row in rows:
        values = {**doc[row[0]], **doc}
        assert row[1:] == [repr(values[key]) for key in header[1:]]
    geo = json.loads((out / "geometry.json").read_text())
    header, *rows = csv_cells(out / "geometry.csv")
    assert header == ["class", "1", "2", "3", "4"]
    assert rows == [[str(k), *map(repr, line)]
                    for k, line in enumerate(geo["centerline_cosines"], start=1)]


def test_eval_perfect_embedding_fixture(tmp_path):
    # zero noise, separable classes, identity encoder: retrieval must be exact
    out_d = tmp_path / "data"
    code = main(["generate", "--out", str(out_d), *fast_args(
        "object_noise_std=0", "view_noise_std=0", "num_classes=3", "input_dim=3")])
    assert code == 0
    ckpt = tmp_path / "identity.json"
    eye = np.eye(3).ravel().tolist()
    ckpt.write_text(json.dumps({
        "format_version": 5, "layer_dims": [3, 3], "num_classes": 3, "classifier": False,
        # encoder weights, encoder biases, centerlines
        "theta": [*eye, 0.0, 0.0, 0.0, *eye], "meta": {},
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
    # the centerlines are the last 4 x 4 (num_classes x embedding_dim) values of theta
    count = len(doc["theta"])
    doc["theta"] = doc["theta"][:-16]
    ckpt.write_text(json.dumps(doc))
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(tmp_path / "e"), *fast_args()])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: theta has shape ({count - 16},), the layout needs ({count},)\n"
    )


@pytest.mark.parametrize("case, message", [
    ("no_layer_dims", "checkpoint has no 'layer_dims' entry"),
    ("not_an_object", "checkpoint is not a JSON object"),
    ("format_2", "unsupported checkpoint format version: 2"),
    ("format_3", "unsupported checkpoint format version: 3"),
    ("format_4", "unsupported checkpoint format version: 4"),
    ("meta_not_an_object", "checkpoint 'meta' entry is not of type dict"),
    ("num_classes_negative", "checkpoint 'num_classes' entry must be at least 2, got -1"),
])
def test_eval_malformed_checkpoint_exits_2(tmp_path, trained, capsys, case, message):
    csv_path, ckpt = trained
    doc = json.loads(ckpt.read_text())
    if case == "no_layer_dims":
        del doc["layer_dims"]
    elif case == "format_3":
        # format 3 kept the layout in an "encoder" object, with the activations
        doc["format_version"] = 3
        doc["encoder"] = {"layer_dims": doc.pop("layer_dims"), "hidden_activations": ["relu"],
                          "final_activation": "identity"}
    elif case == "format_4":
        # format 4 also stored the momentum buffer, in theta's layout
        doc["format_version"] = 4
        doc["velocity"] = [0.0] * len(doc["theta"])
    elif case == "num_classes_negative":
        # a theta as long as the layout of -1 classes: each class has a
        # 4-wide classifier row, a bias and a 4-wide centerline
        doc["num_classes"] = -1
        doc["theta"] = doc["theta"][:-5 * 9]
    elif case == "format_2":
        doc = {"format_version": 2, "encoder": {}, "centerlines": [], "classifier": None,
               "velocity": [], "meta": {}}
    elif case == "meta_not_an_object":
        doc["meta"] = [1]
    else:
        doc = [1]
    ckpt.write_text(json.dumps(doc))
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(tmp_path / "e"), *fast_args()])
    assert code == 2
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def test_eval_carries_checkpoint_meta_as_given(tmp_path, trained):
    # meta is a record: loading neither reads nor checks what it holds
    csv_path, ckpt = trained
    doc = json.loads(ckpt.read_text())
    doc["meta"] = {"epochs_run": "x", "note": [1, None]}
    ckpt.write_text(json.dumps(doc))
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(tmp_path / "e"), *fast_args()]) == 0
    loaded = load_checkpoint(ckpt)
    assert loaded.meta == {"epochs_run": "x", "note": [1, None]}
    assert not hasattr(loaded, "epochs_run")
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again, meta=loaded.meta)
    assert again.read_bytes() == ckpt.read_bytes()


def test_eval_missing_checkpoint_exits_1(tmp_path, trained):
    csv_path, _ = trained
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                 "--dataset", str(csv_path), "--out", str(tmp_path / "e")])
    assert code == 1


@pytest.mark.parametrize("command, flag", [("train", "--dataset"), ("eval", "--checkpoint"),
                                           ("export", "--dataset")])
def test_a_directory_given_for_an_input_file_exits_1(tmp_path, trained, capsys, command, flag):
    csv_path, ckpt = trained
    inputs = {"--dataset": csv_path, "--checkpoint": ckpt, flag: tmp_path}
    argv = [command, "--dataset", str(inputs["--dataset"]), "--out", str(tmp_path / "out")]
    if command != "train":
        argv += ["--checkpoint", str(inputs["--checkpoint"])]
    capsys.readouterr()
    assert main([*argv, *fast_args()]) == 1
    what = flag.removeprefix("--")
    assert capsys.readouterr().err == f"config error: {what} is not a file: {tmp_path}\n"


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


@pytest.mark.parametrize("pooled", [False, True])
def test_export_reads_back_bit_exact(tmp_path, trained, pooled):
    # every exported embedding value parses back to the encoder's bits
    csv_path, ckpt = trained
    out_file = tmp_path / "emb.csv"
    assert main(["export", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                 "--out", str(out_file), *(["--pooled"] if pooled else []), *fast_args()]) == 0
    dataset = load_dataset(csv_path)
    feats, _ = forward_batch(load_checkpoint(ckpt).params, dataset.inputs)
    oids, labels = dataset.object_ids, dataset.labels
    if pooled:
        feats, labels, oids = pool_descriptors(feats, oids, labels)
    _, *rows = csv_cells(out_file)
    assert [int(row[0]) for row in rows] == oids.tolist()
    assert [int(row[1]) for row in rows] == labels.tolist()
    assert np.array([[float(c) for c in row[2:]] for row in rows]).tobytes() == feats.tobytes()


@pytest.mark.parametrize("pooled", [False, True])
def test_export_has_the_serial_bytes_on_forked_workers(tmp_path, trained, monkeypatch, pooled):
    csv_path, ckpt = trained
    monkeypatch.setattr(data, "_MIN_FORKED_CELLS", 1)  # the fixture's files are small
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    written = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(vectors, "_WORKERS", workers)
        out_file = tmp_path / f"emb{workers}.csv"
        assert main(["export", "--checkpoint", str(ckpt), "--dataset", str(csv_path), "--out", str(out_file),
                     *(["--pooled"] if pooled else []), *fast_args()]) == 0
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        written.append(out_file.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    assert len(forks) == 1 + 2


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
    code = main(["sweep", "--lambdas", "0.5,1", "--ds", "2,1", "--out", str(out), *fast_args()])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,d,converged,final_total,map"
    assert len(lines) == 5
    assert all(line.split(",")[2] == "1" for line in lines[1:])  # converged
    # one line per d, in grid order: the MAP range and spread of its sweep.csv rows
    rows = [line.split(",") for line in lines[1:]]
    report = []
    for d in ("2.0", "1.0"):
        maps = [float(row[4]) for row in rows if row[1] == d]
        report.append(f"d={d}: MAP range [{min(maps):.4f}, {max(maps):.4f}], "
                      f"spread {max(maps) - min(maps):.4f}")
    assert capsys.readouterr().out.splitlines()[:2] == report


def test_sweep_wide_lambda_range_converges_on_benchmark(tmp_path):
    # the sensitivity protocol: pure combined loss, gentle batch size
    out = tmp_path / "sweep"
    code = main(["sweep", "--lambdas", "0.1,1,10", "--ds", "2", "--out", str(out),
                 "--set", "batch_size=25", "--set", "loss=cip"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(r.split(",")[2] == "1" for r in rows)
    finals = [float(r.split(",")[3]) for r in rows]
    assert all(np.isfinite(f) for f in finals)


def test_sweep_on_an_all_train_split_scores_every_row(tmp_path):
    csv_path = run_generate(tmp_path)
    sidecar = csv_path.with_suffix(".json")
    doc = json.loads(sidecar.read_text())
    doc["split"] = {oid: "train" for oid in doc["split"]}
    sidecar.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    code = main(["sweep", "--lambdas", "1", "--ds", "2", "--dataset", str(csv_path),
                 "--out", str(out), *fast_args()])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert np.isfinite(float(rows[0].split(",")[4]))


def test_sweep_config_reproduces_a_grid_point(tmp_path):
    # train on the sweep's saved config plus one grid point's lambda and d
    # retrains that point: the same final total, to the last digit
    csv_path = run_generate(tmp_path)
    sweep, run = tmp_path / "sweep", tmp_path / "run"
    assert main(["sweep", "--dataset", str(csv_path), "--lambdas", "0.5", "--ds", "1",
                 "--out", str(sweep), *fast_args()]) == 0
    assert main(["train", "--dataset", str(csv_path), "--config", str(sweep / "config.used.cfg"),
                 "--set", "lambda=0.5", "--set", "d=1", "--out", str(run)]) == 0
    history = csv_cells(run / "history.csv")
    _, point = csv_cells(sweep / "sweep.csv")
    assert history[-1][history[0].index("total")] == point[3]


@pytest.mark.parametrize("source", ["set", "config"])
def test_sweep_trains_the_loss_key(tmp_path, source):
    # the loss key, from --set or from a --config file, is the loss every
    # grid point trains and the loss the saved config retrains
    csv_path = run_generate(tmp_path)
    loss_args = ["--set", "loss=softmax"]
    if source == "config":
        (tmp_path / "sweep.cfg").write_text("loss = softmax\n")
        loss_args = ["--config", str(tmp_path / "sweep.cfg")]
    sweep, run = tmp_path / "sweep", tmp_path / "run"
    assert main(["sweep", "--dataset", str(csv_path), "--lambdas", "0.5", "--ds", "1",
                 "--out", str(sweep), *loss_args, *fast_args()]) == 0
    assert "loss = softmax" in (sweep / "config.used.cfg").read_text().splitlines()
    assert main(["train", "--dataset", str(csv_path), "--config", str(sweep / "config.used.cfg"),
                 "--set", "lambda=0.5", "--set", "d=1", "--out", str(run)]) == 0
    history = csv_cells(run / "history.csv")
    _, point = csv_cells(sweep / "sweep.csv")
    assert history[-1][history[0].index("total")] == point[3]


def test_diverged_sweep_point_prints_one_line(tmp_path):
    # the overflow that ends a diverging run prints no numpy warning: the
    # point's verdict is the only line on stderr
    env = {**os.environ, "PYTHONPATH": str(Path(cipbench.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "cipbench.cli", "sweep", "--lambdas", "10", "--ds", "1",
         "--set", "batch_size=25", "--set", "seed=2", "--set", "loss=cip",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "lambda=10.0 d=1.0: diverged (non_finite)\n"
    assert proc.stdout.splitlines()[0] == "d=1.0: no converged runs"


@pytest.mark.parametrize("flag, items, message", [
    ("--lambdas", "inf", "--lambdas: bad value for lambda: 'inf' is not a finite number"),
    ("--lambdas", "1e400", "--lambdas: bad value for lambda: '1e400' is not a finite number"),
    ("--ds", "inf", "--ds: bad value for d: 'inf' is not a finite number"),
    ("--lambdas", "-1", "--lambdas: lambda must be non-negative, got -1.0"),
    ("--ds", "0", "--ds: d must be positive, got 0.0"),
    ("--lambdas", "", "--lambdas: the lambda list is empty"),
    ("--lambdas", "1,1", "--lambdas: 1.0 is listed twice"),
    ("--ds", "2,1,2.0", "--ds: 2.0 is listed twice"),
], ids=["lambda_inf", "lambda_1e400", "d_inf", "lambda_negative", "d_zero", "lambda_empty",
        "lambda_twice", "d_twice"])
def test_sweep_bad_grid_value_is_a_config_error(tmp_path, capsys, flag, items, message):
    # grid values are parsed and range-checked as --set values are
    grid = {"--lambdas": "1", "--ds": "2", flag: items}
    out = tmp_path / "s"
    code = main(["sweep", "--lambdas", grid["--lambdas"], "--ds", grid["--ds"], "--out", str(out),
                 *fast_args()])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep", "sweep_generated"])
def test_unscorable_dataset_exits_2_before_any_output(tmp_path, capsys, command):
    # three objects per class leave one test object per class, so no
    # retrieval query has a relevant item to find
    few = fast_args("objects_per_class=3")
    csv_path = run_generate(tmp_path, "objects_per_class=3")
    model = tmp_path / "model"
    assert main(["train", "--dataset", str(csv_path), "--out", str(model), *few]) == 0
    capsys.readouterr()
    data = ["--dataset", str(csv_path)]
    argv = {
        "train": ["train", *data, *few, "--set", "eval_every=1"],
        "eval": ["eval", "--checkpoint", str(model / "checkpoint.json"), *data, *few],
        "sweep": ["sweep", "--lambdas", "1", *data, *few],
        "sweep_generated": ["sweep", "--lambdas", "1", *few],
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    name = "the generated dataset" if command == "sweep_generated" else csv_path
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name}: no class has two objects among the evaluation rows"]
    assert not out.exists()


@pytest.mark.parametrize("command, case", [
    ("train", "one_class"), ("sweep", "one_class"), ("sweep_generated", "one_class"),
    ("train", "no_training_rows"), ("sweep", "no_training_rows"),
])
def test_untrainable_dataset_exits_2_before_any_output(tmp_path, capsys, command, case):
    # one class leaves the centerline bank a single row; a sidecar that tags
    # every object test leaves nothing to train on
    pairs = ["num_classes=1"] if case == "one_class" else []
    csv_path = run_generate(tmp_path, *pairs)
    if case == "no_training_rows":
        sidecar = json.loads(csv_path.with_suffix(".json").read_text())
        sidecar["split"] = dict.fromkeys(sidecar["split"], "test")
        csv_path.with_suffix(".json").write_text(json.dumps(sidecar))
    data = [] if command == "sweep_generated" else ["--dataset", str(csv_path)]
    argv = ["train"] if command == "train" else ["sweep", "--lambdas", "1"]
    out = tmp_path / "out"
    assert main([*argv, *data, *fast_args(*pairs), "--out", str(out)]) == 2
    name = "the generated dataset" if command == "sweep_generated" else csv_path
    message = {"one_class": "a centerline bank needs at least 2 classes, got 1",
               "no_training_rows": "no training rows"}[case]
    assert capsys.readouterr().err.splitlines() == [f"error: {name}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "eval", "export", "sweep"])
def test_help_lists_config_defaults(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert "config keys and defaults" in text
    assert "lambda = 1.0" in text
    assert "batch_size = 50" in text


# ---------------------------------------------------------------------------
# exit-code contract for wrongly typed file entries
# ---------------------------------------------------------------------------

WRONG_TYPES = [{}, [1], 5, "x", None]
CHECKPOINT_KEYS = ("format_version", "layer_dims", "num_classes", "classifier", "theta", "meta")
CHECKPOINT_ENTRIES = [("checkpoint", key) for key in CHECKPOINT_KEYS]
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


def test_checkpoint_entries_are_every_key(trained_once):
    _, ckpt = trained_once
    doc = json.loads(ckpt.read_text())
    assert tuple(doc) == CHECKPOINT_KEYS


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


@pytest.fixture()
def dataset_copy(tmp_path, trained_once):
    """A copy of the trained-on dataset, CSV and sidecar, under ``tmp_path``."""
    csv_path, _ = trained_once
    data = tmp_path / "dataset.csv"
    shutil.copy(csv_path, data)
    shutil.copy(csv_path.with_suffix(".json"), data.with_suffix(".json"))
    return data


# a JSON boolean where a file wants a number: (file, key path, the error
# message that names the entry)
BOOLEAN_CASES = [
    ("sidecar", ("format_version",), "unsupported format version"),
    *(("sidecar", ("spec", name), f"spec entry {name!r} must be {kind.__name__}, got True")
      for name, kind in get_type_hints(SyntheticSpec).items() if kind is not str),
    ("checkpoint", ("num_classes",), "checkpoint 'num_classes' entry is not of type int"),
    ("checkpoint", ("layer_dims", 1), "checkpoint 'layer_dims' entry is not a list of integers"),
    ("checkpoint", ("theta", 0), "theta is not an array of numbers"),
]
# (file, key path, message, the value written there): each boolean case, and
# a JSON string and a JSON null in theta, which numpy would parse or read as NaN
NOT_A_NUMBER_CASES = [(*case, True) for case in BOOLEAN_CASES] + [
    ("checkpoint", ("theta", 0), "theta is not an array of numbers", value)
    for value in ("0.5", None)
]


@pytest.mark.parametrize("kind, keys, message, value", NOT_A_NUMBER_CASES,
                         ids=["/".join(map(str, (kind, *keys))) + ("" if value is True
                                                                   else f"/{json.dumps(value)}")
                              for kind, keys, _, value in NOT_A_NUMBER_CASES])
def test_json_boolean_is_not_a_number(tmp_path, trained_once, dataset_copy, capsys, kind, keys,
                                      message, value):
    # Python decodes JSON true as a bool, which is an int; the sidecar and
    # checkpoint readers refuse it, and a string or null in theta, with the
    # message for a wrongly typed entry
    _, ckpt = trained_once
    if kind == "sidecar":
        source = edited = dataset_copy.with_suffix(".json")
        argv = ["train", "--dataset", str(dataset_copy)]
    else:
        source, edited = ckpt, tmp_path / "checkpoint.json"
        argv = ["eval", "--checkpoint", str(edited), "--dataset", str(dataset_copy)]
    doc = json.loads(source.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    assert type(parent[keys[-1]]) in (int, float)
    parent[keys[-1]] = value
    edited.write_text(json.dumps(doc))
    code = main([*argv, "--out", str(tmp_path / "out"), *fast_args()])
    assert code == 2
    assert capsys.readouterr().err == f"error: {edited}: {message}\n"


# ---------------------------------------------------------------------------
# exit-code contract for malformed inputs
# ---------------------------------------------------------------------------


# nested past Python's recursion limit, where json.loads raises RecursionError
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("case, code, message", [
    ("set_without_equals", 1, "override 'epochs' must look like key=value"),
    ("config_is_a_directory", 1, "cannot read config file: "),
    ("config_key_twice", 1, "run.cfg:3: key 'epochs' already set on line 1"),
    ("empty_csv", 2, "empty file"),
    ("bad_coordinate_columns", 2, "bad coordinate columns in header"),
    ("split_tag_val", 2, "unknown split tags: ['val']"),
    ("split_key_01", 2, "split key '01' is not an integer object id in canonical form"),
    ("sidecar_not_json", 2, "Expecting value"),
    ("fractional_layer_dim", 2, "checkpoint 'layer_dims' entry is not a list of integers"),
    ("sidecar_nested_too_deeply", 2, "maximum recursion depth exceeded"),
    ("checkpoint_nested_too_deeply", 2, "maximum recursion depth exceeded"),
])
def test_malformed_input_is_one_error_line(tmp_path, trained_once, dataset_copy, capsys, case,
                                           code, message):
    # a config error exits 1 with one "config error:" line; a bad dataset or
    # checkpoint exits 2 with one "error: <file>:..." line naming that file
    _, ckpt = trained_once
    sidecar = dataset_copy.with_suffix(".json")
    argv, bad = ["train", "--dataset", str(dataset_copy)], dataset_copy
    if case == "set_without_equals":
        argv += ["--set", "epochs"]
    elif case == "config_is_a_directory":
        argv += ["--config", str(tmp_path)]
    elif case == "config_key_twice":  # not last-wins, as --set is
        (tmp_path / "run.cfg").write_text("epochs = 3\nseed = 1\nepochs = 5\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    elif case == "empty_csv":
        dataset_copy.write_text("")
    elif case == "bad_coordinate_columns":
        dataset_copy.write_text("object_id,label,view_index,x1\n1,1,0,0.5\n")
    elif case == "split_tag_val":
        doc = json.loads(sidecar.read_text())
        doc["split"][next(iter(doc["split"]))] = "val"
        sidecar.write_text(json.dumps(doc))
        bad = sidecar
    elif case == "split_key_01":  # after "1", which it would overwrite
        doc = json.loads(sidecar.read_text())
        doc["split"]["01"] = doc["split"]["1"]
        sidecar.write_text(json.dumps(doc))
        bad = sidecar
    elif case == "sidecar_not_json":
        sidecar.write_text("not json\n")
        bad = sidecar
    elif case == "sidecar_nested_too_deeply":
        doc = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**doc, "split": "deep"}).replace('"deep"', DEEP_JSON))
        bad = sidecar
    else:
        bad = tmp_path / "checkpoint.json"
        if case == "fractional_layer_dim":
            doc = json.loads(ckpt.read_text())
            doc["layer_dims"] = [24.5, 32, 16]
            bad.write_text(json.dumps(doc))
        else:
            bad.write_text(DEEP_JSON)
        argv = ["eval", "--checkpoint", str(bad), "--dataset", str(dataset_copy)]
    got = main([*argv, "--out", str(tmp_path / "out"), *fast_args()])
    err = capsys.readouterr().err
    assert got == code
    prefix = "config error: " if code == 1 else f"error: {bad}:"
    assert err.count("\n") == 1 and err.startswith(prefix) and message in err, err


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 28.4 TiB"), MemoryError()],
                         ids=["numpy", "bare"])
def test_running_out_of_memory_is_one_error_line(tmp_path, trained_once, monkeypatch, capsys, error):
    # exit 2 with one "error:" line, not a traceback and exit 1; the error is
    # raised, not provoked, since an overcommitting host may grant the memory
    csv_path, _ = trained_once

    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "train", exhausted)
    code = main(["train", "--dataset", str(csv_path), "--out", str(tmp_path / "out"), *fast_args()])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {str(error) or 'MemoryError'}\n"


# ---------------------------------------------------------------------------
# exit-code contract for out-of-range config values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, pair", [
    ("generate", "seed=-1"),
    ("generate", "train_fraction=1.5"),
    ("train", "embedding_dim=0"),
    ("train", "hidden_dims=0"),
    ("train", "init_std=-1"),
    ("train", "eval_every=-1"),
    ("train", "lr0=0"),
    ("eval", "f1_cutoff=0"),
    ("eval", "ndcg_cutoff=-3"),
    ("eval", "f1_cutoff=99999999999999999999999"),
    ("eval", "ndcg_cutoff=9223372036854775808"),
    ("generate", "num_classes=0"),
    ("generate", "views_per_object=0"),
    ("generate", "object_noise_std=-1"),
    ("generate", "prototype_scheme=x"),
    ("generate", "objects_per_class=1"),
    ("sweep", "objects_per_class=1"),
    ("train", "lambda=-1"),
    ("train", "softmax_weight=-1"),
    ("train", "center_weight=-1"),
    ("generate", "class_separation=nan"),
    ("generate", "view_noise_std=inf"),
    ("train", "lr0=inf"),
    ("train", "weight_decay=inf"),
    ("train", "hidden_dims=8,,4"),
    ("train", "hidden_dims=,"),
])
def test_out_of_range_value_is_a_config_error(tmp_path, trained_once, capsys, command, pair):
    # exit 1 with one "config error:" line naming the key, before any file
    # or directory is written
    csv_path, ckpt = trained_once
    inputs = {
        "generate": [],
        "train": ["--dataset", str(csv_path)],
        "eval": ["--checkpoint", str(ckpt), "--dataset", str(csv_path)],
        "sweep": ["--lambdas", "1"],
    }[command]
    out = tmp_path / "out"
    code = main([command, *inputs, "--out", str(out), *fast_args(pair)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("config error: ") and pair.split("=")[0] in err, err
    assert not out.exists()


# keys that were settings until checkpoint format 4, and the centerline
# rate that nothing set, with their last defaults
REMOVED_KEYS = {"final_activation": "identity", "centerline_norm_limit": "25.0",
                "collapse_check_epoch": "6", "stall_check_epoch": "12",
                "centerline_growth_ratio": "3.0", "centerline_lr": "auto"}


@pytest.mark.parametrize("source", ["set", "config"])
@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_an_unknown_config_key(tmp_path, trained_once, capsys, key, source):
    # a config.used.cfg written before the activations, divergence
    # thresholds and centerline rate became fixed names these keys; it is
    # refused, not read
    csv_path, _ = trained_once
    pair = f"{key}={REMOVED_KEYS[key]}"
    if source == "set":
        given = ["--set", pair]
    else:
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"{key} = {REMOVED_KEYS[key]}\n")
        given = ["--config", str(cfg_file)]
    out = tmp_path / "out"
    code = main(["train", "--dataset", str(csv_path), "--out", str(out), *given, *fast_args()])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("config error: "), err
    assert f"unknown config key {key!r}" in err
    assert not out.exists()
