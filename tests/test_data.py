import dataclasses
import json

import numpy as np
import pytest

from cipbench.data import (
    Dataset,
    SyntheticSpec,
    class_prototypes,
    generate,
    load_dataset,
    save_dataset,
    split,
)

from oracles import generate_loop, split_tags_loop


def small_spec(**kw):
    base = dict(
        num_classes=3,
        objects_per_class=4,
        views_per_object=2,
        input_dim=5,
        class_separation=8.0,
        object_noise_std=0.5,
        view_noise_std=0.25,
        seed=42,
    )
    base.update(kw)
    return SyntheticSpec(**base)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_counts_and_labels():
    ds = generate(small_spec())
    assert ds.num_views == 3 * 4 * 2
    assert ds.num_classes == 3
    assert set(np.unique(ds.labels)) == {1, 2, 3}
    assert len(np.unique(ds.object_ids)) == 12


def test_generate_zero_noise_collapses_to_prototypes():
    ds = generate(small_spec(object_noise_std=0.0, view_noise_std=0.0))
    for k in range(1, 4):
        rows = ds.inputs[ds.labels == k]
        assert np.ptp(rows, axis=0).max() == 0.0  # all views identical
        assert np.linalg.norm(rows[0]) == pytest.approx(8.0, rel=1e-9)


def test_generate_single_view_per_object():
    ds = generate(small_spec(views_per_object=1))
    assert ds.num_views == 12
    assert np.all(ds.view_index == 1)


def test_generate_deterministic_given_seed():
    a = generate(small_spec())
    b = generate(small_spec())
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


@pytest.mark.parametrize("kw", [{}, {"views_per_object": 1}, {"num_classes": 7, "input_dim": 4}])
def test_generate_bytes_equal_one_draw_per_view(kw):
    # drawing an object's V x D view noise at once must consume the
    # generator exactly as V separate draws of D did
    spec = small_spec(**kw)
    ds = generate(spec)
    got = (ds.inputs, ds.labels, ds.object_ids, ds.view_index)
    for a, b in zip(got, generate_loop(spec, class_prototypes)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_generate_rejects_bad_spec():
    with pytest.raises(ValueError, match="num_classes"):
        small_spec(num_classes=0)
    with pytest.raises(ValueError, match="noise"):
        small_spec(view_noise_std=-1.0)


def test_prototypes_orthogonal_when_k_le_d():
    from cipbench.data import class_prototypes

    spec = small_spec()
    protos = class_prototypes(spec, np.random.default_rng(0))
    gram = protos @ protos.T
    np.testing.assert_allclose(gram, np.eye(3) * 64.0, atol=1e-9)


def test_prototypes_padded_when_k_gt_d():
    from cipbench.data import class_prototypes

    spec = small_spec(num_classes=8, input_dim=5)
    protos = class_prototypes(spec, np.random.default_rng(0))
    assert protos.shape == (8, 5)
    np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 8.0, rtol=1e-9)


def test_antipodal_prototypes_pair_up():
    from cipbench.data import class_prototypes

    spec = small_spec(num_classes=6, input_dim=3, prototype_scheme="antipodal")
    protos = class_prototypes(spec, np.random.default_rng(0))
    assert protos.shape == (6, 3)
    for pair in range(3):
        np.testing.assert_allclose(protos[2 * pair], -protos[2 * pair + 1], atol=1e-12)
    gram = protos[::2] @ protos[::2].T
    np.testing.assert_allclose(gram, np.eye(3) * 64.0, atol=1e-9)


def test_antipodal_requires_enough_dims():
    with pytest.raises(ValueError, match="antipodal"):
        small_spec(num_classes=8, input_dim=3, prototype_scheme="antipodal")


def test_unknown_prototype_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        small_spec(prototype_scheme="simplex")


def test_nearest_prototype_sanity_bound():
    # with separation far above noise a nearest-prototype classifier is exact
    from cipbench.data import class_prototypes

    spec = small_spec(class_separation=50.0, object_noise_std=0.5, view_noise_std=0.5)
    ds = generate(spec)
    protos = class_prototypes(spec, np.random.default_rng(spec.seed))
    pred = 1 + np.argmin(
        np.linalg.norm(ds.inputs[:, None, :] - protos[None, :, :], axis=2), axis=1
    )
    assert np.all(pred == ds.labels)


def test_per_class_means_converge_to_prototypes():
    # law of large numbers at 3 sigma / sqrt(count), using object centers
    from cipbench.data import class_prototypes

    spec = small_spec(objects_per_class=400, views_per_object=1, view_noise_std=0.0,
                      object_noise_std=1.0, seed=11)
    ds = generate(spec)
    protos = class_prototypes(spec, np.random.default_rng(spec.seed))
    for k in range(1, spec.num_classes + 1):
        mean = ds.inputs[ds.labels == k].mean(axis=0)
        bound = 3.0 * spec.object_noise_std / np.sqrt(400)
        assert np.all(np.abs(mean - protos[k - 1]) <= bound)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_is_stratified_partition():
    ds = generate(small_spec(objects_per_class=10))
    out = split(ds, 0.5, seed=1)
    for k in range(1, 4):
        objs = np.unique(out.object_ids[out.labels == k])
        tags = [out.split[int(o)] for o in objs]
        assert tags.count("train") == 5 and tags.count("test") == 5
    # same rows, every object tagged exactly once
    assert set(out.split) == set(int(o) for o in np.unique(ds.object_ids))


def test_split_deterministic():
    ds = generate(small_spec())
    a = split(ds, 0.5, seed=3)
    b = split(ds, 0.5, seed=3)
    assert a.split == b.split


def test_split_rejects_tiny_class():
    ds = generate(small_spec(objects_per_class=1))
    with pytest.raises(ValueError, match="need >= 2"):
        split(ds, 0.5, seed=0)


def test_split_rejects_bad_fraction():
    ds = generate(small_spec())
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="train_fraction"):
            split(ds, bad, seed=0)


def test_split_views_follow_their_object():
    ds = split(generate(small_spec()), 0.5, seed=2)
    tags = ds.view_split_tags()
    for oid in np.unique(ds.object_ids):
        mask = ds.object_ids == oid
        assert len(set(tags[mask])) == 1


def test_subset_partitions_dataset():
    ds = split(generate(small_spec()), 0.5, seed=4)
    train = ds.subset("train")
    test = ds.subset("test")
    assert train.num_views + test.num_views == ds.num_views
    assert set(np.unique(train.object_ids)).isdisjoint(np.unique(test.object_ids))
    with pytest.raises(ValueError, match="no rows in split 'bogus'"):
        ds.subset("bogus")


def _split_kinds(tmp_path):
    whole = split(generate(small_spec()), 0.5, seed=4)
    save_dataset(whole, tmp_path / "dataset.csv")
    return {
        "split": whole,
        "unsplit": generate(small_spec()),
        "sidecar": load_dataset(tmp_path / "dataset.csv"),
        "subset": whole.subset("train"),
    }


@pytest.mark.parametrize("kind", ["split", "unsplit", "sidecar", "subset"])
def test_split_masks_match_the_per_row_lookup(tmp_path, kind):
    ds = _split_kinds(tmp_path)[kind]
    expected = np.array(split_tags_loop(ds), dtype=object)
    tags = ds.view_split_tags()
    assert tags.dtype == object and tags.tolist() == expected.tolist()
    test = expected == "test"
    np.testing.assert_array_equal(ds.test_mask(), test)
    np.testing.assert_array_equal(ds.eval_mask(), test if test.any() else np.ones(ds.num_views, bool))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_round_trip_exact(tmp_path):
    ds = split(generate(small_spec()), 0.5, seed=5)
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.inputs, ds.inputs)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    np.testing.assert_array_equal(loaded.object_ids, ds.object_ids)
    np.testing.assert_array_equal(loaded.view_index, ds.view_index)
    assert loaded.split == ds.split
    assert loaded.spec == ds.spec


def test_round_trip_is_bit_exact(tmp_path):
    # every float reads back with its own bits: -0.0, the smallest subnormal,
    # the largest double, inexact decimals, and random finite bit patterns
    special = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, -5e-324, 2.0**-1022]
    rng = np.random.default_rng(0)
    random = rng.integers(0, np.iinfo(np.uint64).max, (63, 8), np.uint64, endpoint=True)
    random = random.view(np.float64)
    random[~np.isfinite(random)] = 1.0
    inputs = np.vstack([special, random])
    ids = np.arange(1, 65)
    ds = Dataset(inputs, 1 + ids % 3, ids, np.ones(64, dtype=np.int64))
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    assert b"\r" not in path.read_bytes()
    loaded = load_dataset(path)
    for name in ("inputs", "labels", "object_ids", "view_index"):
        a, b = getattr(ds, name), getattr(loaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_save_is_byte_deterministic(tmp_path):
    ds = generate(small_spec())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_row_reports_line_number(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 2)[0]  # drop two fields from row 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r":4: expected"):
        load_dataset(path)


def test_malformed_value_reports_line_number(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    text = path.read_text().splitlines()
    parts = text[2].split(",")
    parts[3] = "not-a-number"
    text[2] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match=r":3: malformed"):
        load_dataset(path)


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("object_id,label,view_index,x0,x1\n")
    with pytest.raises(ValueError, match="header-only"):
        load_dataset(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,x0\n1,1,1,0.0\n")
    with pytest.raises(ValueError, match=":1: bad header"):
        load_dataset(path)


def test_sidecar_dim_mismatch_rejected(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    sidecar = path.with_suffix(".json")
    import json

    doc = json.loads(sidecar.read_text())
    doc["input_dim"] = 99
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="input_dim"):
        load_dataset(path)


def sidecar_text(**spec):
    return json.dumps({"format_version": 1, "input_dim": 5,
                       "spec": {**dataclasses.asdict(small_spec()), **spec}})


@pytest.mark.parametrize("text, message", [
    ("{bad", "Expecting property name"),
    ("[1]", "sidecar is not a JSON object"),
    (sidecar_text(colour=1), "spec must be an object with exactly the keys"),
    (sidecar_text(class_separation="x"), "spec entry 'class_separation' must be float, got 'x'"),
])
def test_malformed_sidecar_names_the_file(tmp_path, text, message):
    path = tmp_path / "dataset.csv"
    save_dataset(generate(small_spec()), path)
    sidecar = path.with_suffix(".json")
    sidecar.write_text(text)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{sidecar}: {message}")


def test_labels_must_be_contiguous():
    with pytest.raises(ValueError, match="contiguous"):
        Dataset(
            inputs=np.ones((2, 2)),
            labels=np.array([1, 3]),
            object_ids=np.array([1, 2]),
            view_index=np.array([1, 1]),
        )


def test_inconsistent_labels_name_the_smallest_object():
    with pytest.raises(ValueError, match="object 4 has inconsistent labels"):
        Dataset(
            inputs=np.ones((6, 2)),
            labels=np.array([1, 2, 2, 1, 2, 1]),
            object_ids=np.array([9, 4, 4, 4, 9, 9]),
            view_index=np.array([1, 1, 2, 3, 2, 3]),
        )


def test_csv_row_errors_name_the_file(tmp_path):
    path = tmp_path / "dataset.csv"
    save_dataset(generate(small_spec()), path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        oid, label, rest = line.split(",", 2)
        lines[i] = ",".join([oid, "3" if label == "1" else label, rest])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: labels must be contiguous in [1, K], got [2, 3]"


def test_split_map_must_cover_every_object():
    ds = split(generate(small_spec()), 0.5, seed=5)
    partial = {oid: tag for oid, tag in ds.split.items() if oid != 3}
    with pytest.raises(ValueError, match=r"no tag for object ids \[3\]"):
        Dataset(ds.inputs, ds.labels, ds.object_ids, ds.view_index, split=partial)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_reports_line_number(tmp_path, value):
    ds = generate(small_spec())
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    text = path.read_text().splitlines()
    parts = text[4].split(",")
    parts[5] = value
    text[4] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match=r":5: non-finite"):
        load_dataset(path)
