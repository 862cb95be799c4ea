import dataclasses
import io
import itertools
import json
import os
import shutil
import signal
import threading

import numpy as np
import pytest

from cipbench import data, vectors
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
    cached = load_dataset(path)
    path.with_suffix(".rows").unlink()
    for loaded in (cached, load_dataset(path)):
        for name in ("inputs", "labels", "object_ids", "view_index"):
            a, b = getattr(ds, name), getattr(loaded, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_save_is_byte_deterministic(tmp_path):
    ds = generate(small_spec())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.with_suffix(".rows").read_bytes() == p2.with_suffix(".rows").read_bytes()


@pytest.mark.parametrize("suffix", [".json", ".rows"])
def test_save_refuses_a_csv_path_that_names_its_own_sidecar_or_cache(tmp_path, suffix):
    # the later files would overwrite the CSV, which must stay the source of truth
    path = tmp_path / f"dataset{suffix}"
    with pytest.raises(ValueError) as err:
        save_dataset(generate(small_spec()), path)
    assert str(err.value).startswith(f"{path}: ")
    assert list(tmp_path.iterdir()) == []  # refused before anything was written


def test_load_refuses_a_csv_path_that_names_its_own_sidecar(tmp_path):
    # a .json CSV is its own sidecar path, so its text would be read as the
    # sidecar; a CSV named *.rows is its own cache path, which only misses
    ds = generate(small_spec())
    save_dataset(ds, tmp_path / "dataset.csv")
    path = tmp_path / "d.json"
    shutil.copyfile(tmp_path / "dataset.csv", path)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: a dataset CSV cannot end in .json, which names its sidecar"
    path.unlink()  # it would be the sidecar of d.rows
    rows_named = tmp_path / "d.rows"
    shutil.copyfile(tmp_path / "dataset.csv", rows_named)
    assert load_dataset(rows_named).inputs.tobytes() == ds.inputs.tobytes()


def _load_both_ways(path):
    """``load_dataset(path)`` for a malformed file: it raises beside the
    stale rows cache its CSV was saved with, if any, and raises the same
    message again once that cache is deleted."""
    with pytest.raises(ValueError) as first:
        load_dataset(path)
    path.with_suffix(".rows").unlink(missing_ok=True)
    try:
        load_dataset(path)
    except ValueError as e:
        assert str(e) == str(first.value)
        raise


def test_truncated_row_reports_line_number(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 2)[0]  # drop two fields from row 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r":4: expected"):
        _load_both_ways(path)


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
        _load_both_ways(path)


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("object_id,label,view_index,x0,x1\n")
    with pytest.raises(ValueError, match="header-only"):
        _load_both_ways(path)


@pytest.mark.parametrize("body", ["\n\n", "\n \n"], ids=["blank lines", "a space"])
def test_a_header_over_blank_lines_alone_is_header_only(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("object_id,label,view_index,x0\n" + body)
    with pytest.raises(ValueError) as err:
        _load_both_ways(path)
    assert str(err.value) == f"{path}: header-only file, dataset is empty"


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,x0\n1,1,1,0.0\n")
    with pytest.raises(ValueError, match=":1: bad header"):
        _load_both_ways(path)


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
        _load_both_ways(path)
    assert str(err.value) == f"{path}: labels must be contiguous in [1, K], got [2, 3]"


def test_split_map_must_cover_every_object():
    ds = split(generate(small_spec()), 0.5, seed=5)
    partial = {oid: tag for oid, tag in ds.split.items() if oid != 3}
    with pytest.raises(ValueError, match=r"no tag for object ids \[3\]"):
        Dataset(ds.inputs, ds.labels, ds.object_ids, ds.view_index, split=partial)


def test_a_split_tag_for_an_object_with_no_row_is_refused(tmp_path):
    ds = split(generate(small_spec()), 0.5, seed=5)
    with pytest.raises(ValueError) as err:
        Dataset(ds.inputs, ds.labels, ds.object_ids, ds.view_index,
                split={**ds.split, 999: "test", 7: "train", 998: "test"})
    assert str(err.value) == "split map tags object id 999, which has no row"  # the first, in map order
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    sidecar = path.with_suffix(".json")
    doc = json.loads(sidecar.read_text())
    doc["split"]["999"] = "test"
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{sidecar}: split map tags object id 999, which has no row"


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0", "None"])
def test_a_split_key_not_written_as_its_object_id_is_refused(tmp_path, key):
    # int() reads the first four keys as object 1 (or 10), so an int() of
    # every key would fold each silently into that object's tag; "None" is
    # the text of no id at all
    path = tmp_path / "dataset.csv"
    save_dataset(split(generate(small_spec()), 0.5, seed=5), path)
    sidecar = path.with_suffix(".json")
    doc = json.loads(sidecar.read_text())
    doc["split"][key] = "test" if doc["split"]["1"] == "train" else "train"  # after "1"
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{sidecar}: split key {key!r} is not an integer object id in canonical form"


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
        _load_both_ways(path)


# ---------------------------------------------------------------------------
# the line loop: the reader of every CSV without a matching rows cache, and
# of every error
# ---------------------------------------------------------------------------


def _outcome(load):
    """``("ok", result)`` or ``("error", message)`` of ``load()``."""
    try:
        return "ok", load()
    except ValueError as e:
        return "error", str(e)


def _cell(line, column, value):
    """An edit of a CSV's lines that sets one cell."""
    def edit(lines):
        cells = lines[line].split(",")
        cells[column] = value
        lines[line] = ",".join(cells)
    return edit


def _truncate_first_row(lines):
    lines[1] = lines[1].rsplit(",", 2)[0]


def _comma_after_every_row(lines):
    lines[1:] = [line + "," for line in lines[1:]]


# malformed files not covered by the tests above, each an edit of a saved
# CSV, so its rows cache no longer matches
MALFORMED = {
    "plain malformed value": (_cell(2, 3, "1e"),
                              ":3: malformed value (could not convert string to float: '1e')"),
    "plain malformed id": (_cell(5, 0, "1.0"),
                           ":6: malformed value (invalid literal for int() with base 10: '1.0')"),
    "1e999": (_cell(4, 7, "1e999"), ":5: non-finite coordinate"),
    "object_id past int64": (_cell(3, 0, str(2**63)), ":4: integer out of the int64 range"),
    "label past int64": (_cell(3, 1, str(10**23)), ":4: integer out of the int64 range"),
    "view_index past int64": (_cell(3, 2, str(-(10**23))), ":4: integer out of the int64 range"),
    "bad coordinate columns": (lambda lines: lines.__setitem__(0, "object_id,label,view_index,x0,x1,x2,x4,x3"),
                               ":1: bad coordinate columns in header"),
    "truncated first row": (_truncate_first_row, ":2: expected 8 fields, got 6"),
    "comma after every row": (_comma_after_every_row, ":2: expected 8 fields, got 9"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_csv_gets_the_same_message_on_both_paths(tmp_path, case):
    edit, message = MALFORMED[case]
    path = tmp_path / "dataset.csv"
    save_dataset(split(generate(small_spec()), 0.5, seed=5), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        _load_both_ways(path)
    assert str(err.value) == f"{path}{message}"


# fields where Python's int()/float() verdict is easy to get wrong: signs,
# leading zeros, bare dots and exponents, floats as ids, subnormals, the
# int64 edges, long digit runs
EDGE_FIELDS = [
    "+1", "007", "-0", "1.0", "1e3", "1.", "1E5", ".5", "5.", "+.5", "-.5e-3", "1e", "e5", "E5", "1e+",
    ".e1", "1.5e+", "1e5e5", "1..2", "-", "+", "", ".", "-.", "+-1", "--1", "1-", "0e0", "+0.0", "-0.0",
    "5e-324", "4.9e-324", "2e-324", "1e-400", "2.2250738585072011e-308", "1e+308", "1e999", "-1e999",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "1" * 30, "9" * 400,
    "0.1000000000000000055511151231257827021181583404541015625", "00000000000000000000001.5",
    "123456789012345678901234567890.5",
]


@pytest.mark.parametrize("field", EDGE_FIELDS)
def test_both_readers_accept_and_read_each_plain_field_alike(tmp_path, field):
    # the line loop refuses a field with a message naming its line, or reads
    # it to values that, saved again, both readers give back with the same bits
    header = "object_id,label,view_index,x0,x1\n"
    for row in (f"{field},1,1,0.5,0.5", f"1,1,1,0.5,{field}"):
        path, saved = tmp_path / "edited.csv", tmp_path / "dataset.csv"
        path.write_text(header + "1,1,1,0.25,2.0\n" + row + "\n")
        kind, loaded = _outcome(lambda: load_dataset(path))
        if kind == "error":
            assert loaded.startswith(f"{path}:3: "), row
            continue
        save_dataset(loaded, saved)
        raw = saved.read_bytes()
        cached, loop = data._read_cached(saved, raw), data._read_lines(saved, raw)
        assert cached[0] == loop[0] == 2
        expected = (loaded.inputs, loaded.labels, loaded.object_ids, loaded.view_index)
        for a, b, c in zip(cached[1:], loop[1:], expected):
            assert a.dtype == b.dtype == c.dtype and a.tobytes() == b.tobytes() == c.tobytes(), row


def test_random_doubles_read_back_alike_on_both_paths(tmp_path):
    # 10^4 finite doubles from random bit patterns, a tenth of them subnormal
    rng = np.random.default_rng(11)
    bits = rng.integers(0, np.iinfo(np.uint64).max, (400, 25), np.uint64, endpoint=True)
    sub = rng.random(bits.shape) < 0.1
    bits[sub] = bits[sub] & np.uint64(0x800F_FFFF_FFFF_FFFF)  # zero exponent
    inputs = bits.view(np.float64)
    inputs[~np.isfinite(inputs)] = 1.0
    assert np.count_nonzero((inputs != 0) & (np.abs(inputs) < 2.0**-1022)) > 500
    ids = np.arange(1, 401)
    path = tmp_path / "dataset.csv"
    save_dataset(Dataset(inputs, 1 + ids % 4, ids, np.ones(400, np.int64)), path)
    raw = path.read_bytes()
    cached = data._read_cached(path, raw)
    assert cached is not None
    loop = data._read_lines(path, raw)
    assert cached[0] == loop[0] == 25
    assert cached[1].tobytes() == loop[1].tobytes() == inputs.tobytes()
    for a, b in zip(cached[2:], loop[2:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_PIN_HEADER = "object_id,label,view_index,x0,x1\n"
_PIN_ROWS = ["1,1,1,0.5,-2.0", "1,1,2,0.25,3.0", "2,2,1,1e-3,4.0", "2,2,2,-0.0,5.5"]
_PIN_INPUTS = [[0.5, -2.0], [0.25, 3.0], [0.001, 4.0], [-0.0, 5.5]]


def _pin_file(rows):
    return _PIN_HEADER + "".join(row + "\n" for row in rows)


def _pin_row(line, row):
    return _pin_file(_PIN_ROWS[:line] + [row] + _PIN_ROWS[line + 1:])


# files unlike the ones save_dataset writes: each loads as the line loop
# always read it, or fails with its message
PINNED = {
    "crlf": (_pin_file(_PIN_ROWS).replace("\n", "\r\n").encode(), _PIN_INPUTS),
    "blank lines": (_pin_file(["", _PIN_ROWS[0], "", "", *_PIN_ROWS[1:], ""]).encode(), _PIN_INPUTS),
    "underscore": (_pin_row(1, "1,1,2,1_000,3.0").encode(), [_PIN_INPUTS[0], [1e3, 3.0], *_PIN_INPUTS[2:]]),
    "space": (_pin_row(1, "1,1,2, 1.5,3.0").encode(), [_PIN_INPUTS[0], [1.5, 3.0], *_PIN_INPUTS[2:]]),
    "+1 and 007 ids": (_pin_file(["+1,1,1,0.5,-2.0", "001,+1,002,0.25,3.0", *_PIN_ROWS[2:]]).encode(),
                       _PIN_INPUTS),
    "bom": (b"\xef\xbb\xbf" + _pin_file(_PIN_ROWS).encode(),
            ":1: bad header '\\ufeffobject_id,label,view_index,x0,x1'"),
    "trailing comma": (_pin_row(2, _PIN_ROWS[2] + ",").encode(), ":4: expected 5 fields, got 6"),
    "extra field": (_pin_row(2, _PIN_ROWS[2] + ",7").encode(), ":4: expected 5 fields, got 6"),
    "1e999": (_pin_row(2, "2,2,1,1e999,4.0").encode(), ":4: non-finite coordinate"),
    # a blank line holds no row, but counts as a line in the message
    "blank lines, then 1e999": (_pin_file(["", _PIN_ROWS[0], "", _PIN_ROWS[1], "2,2,1,1e999,4.0"]).encode(),
                                ":6: non-finite coordinate"),
    "blank lines, then 2^63": (_pin_file(["", _PIN_ROWS[0], "", _PIN_ROWS[1], f"2,2,{2**63},0.5,4.0"]).encode(),
                               ":6: integer out of the int64 range"),
}


@pytest.mark.parametrize("case", PINNED)
def test_files_save_dataset_does_not_write_load_as_the_line_loop_reads_them(tmp_path, case):
    raw, expected = PINNED[case]
    path = tmp_path / "dataset.csv"
    path.write_bytes(raw)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}{expected}"
        return
    loaded = load_dataset(path)
    assert np.asarray(expected).tobytes() == loaded.inputs.tobytes()
    assert loaded.labels.tolist() == loaded.object_ids.tolist() == [1, 1, 2, 2]
    assert loaded.view_index.tolist() == [1, 2, 1, 2]


SAVED = {
    "split": split(generate(small_spec()), 0.5, seed=5),
    "one row, one column": generate(small_spec(num_classes=1, objects_per_class=1, views_per_object=1,
                                               input_dim=1)),
    "extreme values": Dataset(np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1e-300]]), [1], [2**63 - 1],
                              [-(2**63)]),
}


@pytest.mark.parametrize("dataset", SAVED.values(), ids=SAVED.keys())
def test_a_saved_dataset_without_its_cache_reads_back_through_the_line_loop(tmp_path, monkeypatch,
                                                                              dataset):
    path = tmp_path / "dataset.csv"
    save_dataset(dataset, path)
    path.with_suffix(".rows").unlink()
    calls, read_lines = [], data._read_lines

    def counted(*args):
        calls.append(1)
        return read_lines(*args)

    monkeypatch.setattr(data, "_read_lines", counted)
    loaded = load_dataset(path)
    assert len(calls) == 1
    for name in ("inputs", "labels", "object_ids", "view_index"):
        assert getattr(loaded, name).tobytes() == getattr(dataset, name).tobytes(), name
    assert loaded.split == dataset.split and loaded.spec == dataset.spec


# ---------------------------------------------------------------------------
# the rows cache save_dataset leaves beside the CSV
# ---------------------------------------------------------------------------


def _assert_same_arrays(loaded, dataset):
    for name in ("inputs", "labels", "object_ids", "view_index"):
        a, b = getattr(loaded, name), getattr(dataset, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dataset", SAVED.values(), ids=SAVED.keys())
def test_a_matching_rows_cache_reaches_neither_reader(tmp_path, monkeypatch, dataset):
    path = tmp_path / "dataset.csv"
    save_dataset(dataset, path)

    def refuse(*args):
        raise AssertionError("a CSV reader ran beside a matching rows cache")

    monkeypatch.setattr(data, "_read_lines", refuse)
    loaded = load_dataset(path)
    _assert_same_arrays(loaded, dataset)
    assert loaded.split == dataset.split and loaded.spec == dataset.spec
    assert all(getattr(loaded, name).flags.writeable for name in ("inputs", "labels", "object_ids", "view_index"))


def _rewrite(path, edit):
    """Rewrite ``path``'s bytes as ``edit(bytearray)`` leaves them."""
    blob = bytearray(path.read_bytes())
    edit(blob)
    path.write_bytes(bytes(blob))


def _edit_csv(edit):
    def apply(csv, rows, other):
        lines = csv.read_text().splitlines()
        edit(lines)
        csv.write_text("\n".join(lines) + "\n")
    return apply


# name -> edit(CSV path, its rows cache, the rows cache of another dataset)
# made after save_dataset wrote both files
STALE = {
    "deleted": lambda csv, rows, other: rows.unlink(),
    "CSV edited": _edit_csv(_cell(1, 3, "0.5")),
    "CSV made malformed": _edit_csv(_truncate_first_row),
    "truncated": lambda csv, rows, other: _rewrite(rows, lambda b: b.__delitem__(-1)),
    "shorter than a key": lambda csv, rows, other: _rewrite(rows, lambda b: b.__delitem__(slice(31, None))),
    "payload byte flipped": lambda csv, rows, other: _rewrite(rows, lambda b: b.__setitem__(-1, b[-1] ^ 1)),
    "another dataset's": lambda csv, rows, other: rows.write_bytes(other.read_bytes()),
    "garbage": lambda csv, rows, other: rows.write_bytes(b"not a rows cache\n" * 8),
}


@pytest.mark.parametrize("case", STALE)
def test_a_rows_cache_that_does_not_match_is_ignored_and_left_alone(tmp_path, case):
    path, rows = tmp_path / "dataset.csv", tmp_path / "dataset.rows"
    save_dataset(split(generate(small_spec()), 0.5, seed=5), path)
    save_dataset(generate(small_spec(seed=7)), tmp_path / "other.csv")
    STALE[case](path, rows, tmp_path / "other.rows")
    left = rows.read_bytes() if rows.exists() else None
    kind, cached = _outcome(lambda: load_dataset(path))
    assert (rows.read_bytes() if rows.exists() else None) == left  # a load writes no cache
    rows.unlink(missing_ok=True)
    assert _outcome(lambda: load_dataset(path))[0] == kind
    if kind == "error":
        assert cached == _outcome(lambda: load_dataset(path))[1]
        assert cached == f"{path}:2: expected 8 fields, got 6"
    else:
        _assert_same_arrays(cached, load_dataset(path))
        assert cached.inputs[0, 0] == (0.5 if case == "CSV edited" else SAVED["split"].inputs[0, 0])


def _rows(dataset, dtype):
    rows = np.empty(dataset.num_views, dtype)
    rows["ids"] = np.stack([dataset.object_ids, dataset.labels, dataset.view_index], axis=1)
    rows["x"] = dataset.inputs
    return rows


def _npy(array, allow_pickle=False):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def _with_nan(dataset):
    rows = _rows(dataset, data._rows_dtype(dataset.input_dim))
    rows["x"][3, 1] = np.nan
    return _npy(rows)


# payloads under a key that matches them: each must still be refused
FORGED = {
    "not an .npy": lambda ds: b"\x93NUMPY, but not really",
    "payload cut short": lambda ds: _npy(_rows(ds, data._rows_dtype(5)))[:-8],
    "a float matrix": lambda ds: _npy(ds.inputs),
    "object array": lambda ds: _npy(np.array([None, 1], dtype=object), allow_pickle=True),
    "float32 coordinates": lambda ds: _npy(_rows(ds, np.dtype([("ids", "i8", (3,)), ("x", "f4", (5,))]))),
    "2-D coordinate field": lambda ds: _npy(np.zeros(3, np.dtype([("ids", "i8", (3,)), ("x", "f8", (5, 1))]))),
    "no coordinates": lambda ds: _npy(np.zeros(3, data._rows_dtype(0))),
    "no rows": lambda ds: _npy(np.zeros(0, data._rows_dtype(5))),
    "2-D rows": lambda ds: _npy(_rows(ds, data._rows_dtype(5)).reshape(2, -1)),
    "a NaN coordinate": _with_nan,
}


@pytest.mark.parametrize("case", FORGED)
def test_a_matching_key_over_rows_of_the_wrong_form_is_ignored(tmp_path, case):
    path = tmp_path / "dataset.csv"
    dataset = split(generate(small_spec()), 0.5, seed=5)
    save_dataset(dataset, path)
    payload = FORGED[case](dataset)
    path.with_suffix(".rows").write_bytes(data._rows_key((path.read_bytes(), payload)) + payload)
    _assert_same_arrays(load_dataset(path), dataset)


def _nan_at_row_two():
    ds = generate(small_spec())
    inputs = ds.inputs.copy()
    inputs[1, 2] = np.nan
    return Dataset(inputs, ds.labels, ds.object_ids, ds.view_index)


@pytest.mark.parametrize("dataset, message", [
    (_nan_at_row_two(), ":3: non-finite coordinate"),
    (Dataset(np.zeros((2, 0)), [1, 1], [1, 2], [1, 1]), ":1: bad coordinate columns in header"),
], ids=["NaN coordinate", "no coordinate columns"])
def test_a_saved_dataset_the_readers_refuse_gets_their_message_beside_its_cache(tmp_path, dataset, message):
    path = tmp_path / "dataset.csv"
    save_dataset(dataset, path)
    messages = []
    for _ in range(2):  # with its rows cache, then without it
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        messages.append(str(err.value))
        path.with_suffix(".rows").unlink(missing_ok=True)
    assert messages == [f"{path}{message}"] * 2


# ---------------------------------------------------------------------------
# write_csv's forked workers: the bytes of the serial path, and no child left
# ---------------------------------------------------------------------------

# columns of _wide_dataset's CSV: 3 ids and 22 coordinates
_WIDE_COLUMNS = 25


def _wide_dataset(rows):
    """A dataset of ``rows`` rows with floats of every decimal exponent form
    (``1e-05``, ``1e+16``, plain digits), so the text of each chunk differs."""
    rng = np.random.default_rng(rows)
    ids = np.arange(1, rows + 1)
    inputs = rng.standard_normal((rows, _WIDE_COLUMNS - 3)) * 10.0 ** rng.integers(-20, 20, (rows, 22))
    return Dataset(inputs, 1 + ids % 3, ids, np.ones(rows, np.int64))


def _threshold_rows():
    rows, rest = divmod(data._MIN_FORKED_CELLS, _WIDE_COLUMNS)
    assert rest == 0
    return rows


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch):
    """The list each ``os.fork`` call in this process appends to."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _saved_bytes(monkeypatch, path, dataset, workers):
    """The CSV ``save_dataset`` writes with ``workers`` processes, once every
    child has been reaped."""
    monkeypatch.setattr(vectors, "_WORKERS", workers)
    save_dataset(dataset, path)
    _no_child_left()
    return path.read_bytes()


@pytest.mark.parametrize("offset, forks", [(-1, 0), (0, 1), (1, 1)], ids=["below", "at", "above"])
def test_a_dataset_csv_has_the_serial_bytes_around_the_fork_threshold(tmp_path, monkeypatch, offset, forks):
    dataset = _wide_dataset(_threshold_rows() + offset)
    serial = _saved_bytes(monkeypatch, tmp_path / "serial.csv", dataset, 1)
    forked = _counted_forks(monkeypatch)
    assert _saved_bytes(monkeypatch, tmp_path / "forked.csv", dataset, 2) == serial
    assert len(forked) == forks
    rows_cache = (tmp_path / "serial.rows").read_bytes()
    assert (tmp_path / "forked.rows").read_bytes() == rows_cache  # its key hashes the CSV's bytes


@pytest.mark.parametrize("workers", [2, 3])
def test_rows_that_split_unevenly_keep_the_serial_bytes(tmp_path, monkeypatch, workers):
    dataset = _wide_dataset(_threshold_rows() + 3)  # chunks of 1001 and 1002, or 667, 668 and 668
    serial = _saved_bytes(monkeypatch, tmp_path / "serial.csv", dataset, 1)
    forked = _counted_forks(monkeypatch)
    assert _saved_bytes(monkeypatch, tmp_path / "forked.csv", dataset, workers) == serial
    assert len(forked) == workers - 1


def test_a_one_row_file_is_written_by_the_caller_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_MIN_FORKED_CELLS", 1)
    dataset = Dataset(np.array([[1e-05, -1e16, 0.1]]), [1], [7], [1])
    serial = _saved_bytes(monkeypatch, tmp_path / "serial.csv", dataset, 1)
    forked = _counted_forks(monkeypatch)
    assert _saved_bytes(monkeypatch, tmp_path / "forked.csv", dataset, 2) == serial
    assert serial.endswith(b"\n7,1,1,1e-05,-1e+16,0.1\n") and not forked


def _failing_send(first_id, fail):
    """A worker body that runs ``fail()`` for a chunk whose first object id
    is at least ``first_id``, after writing 1 MiB of text, more than its
    chunk holds, and sends every other chunk as ``write_csv`` does."""
    send = data._send_chunk

    def sometimes(rows, fd):
        first = next(rows)
        if first[0] >= first_id:
            with open(fd, "wb", closefd=False) as out:
                out.write(b"1,1,1,0.5\n" * ((1 << 20) // 10) + b"part")
            fail()
        send(itertools.chain([first], rows), fd)

    return sometimes


def _raise():
    raise RuntimeError("worker failed")


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("first_id", [1, 1337], ids=["every_worker", "the_last_worker"])
@pytest.mark.parametrize("fail", [_raise, _killed], ids=["raises", "killed"])
def test_a_failed_workers_chunk_is_formatted_again_by_the_caller(tmp_path, monkeypatch, first_id, fail):
    dataset = _wide_dataset(_threshold_rows() + 3)  # the third chunk starts at object id 1337
    serial = _saved_bytes(monkeypatch, tmp_path / "serial.csv", dataset, 1)
    monkeypatch.setattr(data, "_send_chunk", _failing_send(first_id, fail))
    forked = _counted_forks(monkeypatch)
    assert _saved_bytes(monkeypatch, tmp_path / "forked.csv", dataset, 3) == serial
    assert len(forked) == 2


class _Unprintable:
    def __str__(self):
        raise LookupError("a cell with no text")


@pytest.mark.parametrize("bad_row", [5, -5], ids=["callers_chunk", "workers_chunk"])
def test_a_cell_that_fails_raises_the_serial_error_and_leaves_no_child(tmp_path, monkeypatch, bad_row):
    count = data._MIN_FORKED_CELLS  # two columns: twice the threshold
    bad_row %= count

    def between(lo, hi):
        return ([i, _Unprintable() if i == bad_row else i / 7] for i in range(lo, hi))

    errors = []
    for workers in (1, 2, 3):  # with 3, each worker's text fills its pipe and blocks until reaped
        monkeypatch.setattr(vectors, "_WORKERS", workers)
        with pytest.raises(LookupError) as err:
            data.write_csv(tmp_path / "cells.csv", ["i", "x"], data.RowSource(count, between))
        _no_child_left()
        errors.append(err.value.args)
    assert errors == [("a cell with no text",)] * 3


def test_no_fork_while_another_thread_is_alive(tmp_path, monkeypatch):
    dataset = _wide_dataset(_threshold_rows() + 3)
    serial = _saved_bytes(monkeypatch, tmp_path / "serial.csv", dataset, 1)

    def refuse():
        raise AssertionError("forked beside a live thread")

    monkeypatch.setattr(os, "fork", refuse)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _saved_bytes(monkeypatch, tmp_path / "forked.csv", dataset, 2) == serial
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _fork_refused(monkeypatch):
    def refuse():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.mark.parametrize("take_fork", [_no_fork, _fork_refused], ids=["no_os_fork", "fork_fails"])
def test_without_a_fork_the_caller_writes_the_serial_bytes(tmp_path, monkeypatch, take_fork):
    dataset = _wide_dataset(_threshold_rows() + 3)
    serial = _saved_bytes(monkeypatch, tmp_path / "serial.csv", dataset, 1)
    take_fork(monkeypatch)
    assert _saved_bytes(monkeypatch, tmp_path / "forked.csv", dataset, 3) == serial
