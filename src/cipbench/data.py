"""Synthetic multi-view datasets: generation, splitting, and CSV round-trip.

Each class gets a prototype direction; each object is its class prototype
plus Gaussian object noise; each view is its object vector plus Gaussian
view noise.  The on-disk format is a single CSV (one row per view) plus a
JSON sidecar holding the generating spec and the object-level train/test
split, so files stay diffable and plottable with external tools.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .vectors import check_fields

__all__ = ["Dataset", "SyntheticSpec", "generate", "load_dataset", "save_dataset", "split", "write_csv"]

DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings; the defaults are the standard benchmark (10 classes
    of 24 objects with 8 views each, in 24 input dimensions).

    Prototype schemes:

    * ``orthonormal`` (default): scaled vertices of a random orthonormal
      basis, padded with random unit directions when K > D;
    * ``antipodal``: consecutive class pairs share a basis direction with
      opposite signs (+b, -b), so classes carry an exact one-line-per-pair
      structure; needs ceil(K / 2) <= D.
    """

    num_classes: int = 10
    objects_per_class: int = 24
    views_per_object: int = 8
    input_dim: int = 24
    class_separation: float = 2.0
    object_noise_std: float = 0.7
    view_noise_std: float = 0.35
    prototype_scheme: str = "orthonormal"
    seed: int = 0

    def __post_init__(self):
        k, d = self.num_classes, self.input_dim
        check_fields(self, (
            ("num_classes", k >= 1, "positive"),
            ("objects_per_class", self.objects_per_class >= 1, "positive"),
            ("views_per_object", self.views_per_object >= 1, "positive"),
            ("input_dim", d >= 1, "positive"),
            ("object_noise_std", self.object_noise_std >= 0, "non-negative"),
            ("view_noise_std", self.view_noise_std >= 0, "non-negative"),
            ("prototype_scheme", self.prototype_scheme in ("orthonormal", "antipodal"),
             "orthonormal or antipodal"),
            ("seed", self.seed >= 0, "non-negative"),
            ("input_dim", self.prototype_scheme != "antipodal" or (k + 1) // 2 <= d,
             "at least ceil(num_classes / 2) for the antipodal scheme"),
        ))


@dataclass
class Dataset:
    """Row-per-view storage with an optional object-level split map.

    Every per-row split question reads ``test_mask``: training takes the
    other rows, and retrieval is scored on ``eval_mask``.
    """

    inputs: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,), 1-based, contiguous in [1, K]
    object_ids: np.ndarray  # (N,)
    view_index: np.ndarray  # (N,), 1-based within each object
    split: dict[int, str] | None = None  # object_id -> "train" | "test"
    spec: SyntheticSpec | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.object_ids = np.asarray(self.object_ids, dtype=np.int64)
        self.view_index = np.asarray(self.view_index, dtype=np.int64)
        n = self.inputs.shape[0]
        if self.inputs.ndim != 2 or n == 0:
            raise ValueError("dataset must hold a non-empty (N, D) input matrix")
        for name, arr in (("labels", self.labels), ("object_ids", self.object_ids), ("view_index", self.view_index)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must align with input rows")
        uniq = np.unique(self.labels)
        if uniq[0] != 1 or uniq[-1] != len(uniq):
            raise ValueError(f"labels must be contiguous in [1, K], got {uniq.tolist()}")
        # every object must carry exactly one label and one split tag
        _, first, inverse = np.unique(self.object_ids, return_index=True, return_inverse=True)
        mixed = self.labels != self.labels[first][inverse]
        if mixed.any():
            raise ValueError(f"object {self.object_ids[mixed].min()} has inconsistent labels")
        self._check_split()

    def _check_split(self):
        if self.split is None:
            return
        bad = {str(tag) for tag in self.split.values()} - {"train", "test"}
        if bad:
            raise ValueError(f"unknown split tags: {sorted(bad)}")
        missing = set(self.object_ids.tolist()) - self.split.keys()
        if missing:
            raise ValueError(f"split map has no tag for object ids {sorted(missing)}")

    @property
    def num_views(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max())

    def test_mask(self) -> np.ndarray:
        """True on the rows of objects the split map tags ``"test"``; all
        False for an unsplit dataset.  Computed on each call, because
        ``split`` may be assigned after construction."""
        if self.split is None:
            return np.zeros(self.num_views, dtype=bool)
        return np.isin(self.object_ids, [o for o, tag in self.split.items() if tag == "test"])

    def eval_mask(self) -> np.ndarray:
        """The rows retrieval is scored on: the test rows, or every row when
        there are none."""
        test = self.test_mask()
        return test if test.any() else np.ones(self.num_views, dtype=bool)

    def check_trainable(self, name: str) -> None:
        """Raise a ``ValueError`` that starts with ``name`` unless some row
        lies outside ``test_mask`` (training uses those rows) and there are
        at least 2 classes (the centerline bank needs them)."""
        if self.test_mask().all():
            raise ValueError(f"{name}: no training rows")
        if self.num_classes < 2:
            raise ValueError(f"{name}: a centerline bank needs at least 2 classes, got {self.num_classes}")

    def check_scorable(self, name: str) -> None:
        """Raise a ``ValueError`` that starts with ``name`` unless some class
        has two objects among the ``eval_mask`` rows: without one, no
        retrieval query has a relevant item, so nothing can be scored."""
        mask = self.eval_mask()
        _, first = np.unique(self.object_ids[mask], return_index=True)
        if np.bincount(self.labels[mask][first]).max() < 2:
            raise ValueError(f"{name}: no class has two objects among the evaluation rows")

    def view_split_tags(self) -> np.ndarray:
        """Per-row split tag; rows of unsplit datasets all count as train."""
        return np.array(["train", "test"], dtype=object)[self.test_mask().astype(np.intp)]

    def subset(self, tag: str) -> "Dataset":
        test = self.test_mask()
        mask = {"train": ~test, "test": test}.get(tag)
        if mask is None or not mask.any():
            raise ValueError(f"no rows in split {tag!r}")
        keep_split = None
        if self.split is not None:
            keep = set(int(o) for o in np.unique(self.object_ids[mask]))
            keep_split = {o: s for o, s in self.split.items() if o in keep}
        return Dataset(
            self.inputs[mask],
            self.labels[mask],
            self.object_ids[mask],
            self.view_index[mask],
            split=keep_split,
            spec=self.spec,
        )


def class_prototypes(spec: SyntheticSpec, rng) -> np.ndarray:
    """Class direction vectors scaled by the configured separation."""
    d, k = spec.input_dim, spec.num_classes
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if spec.prototype_scheme == "antipodal":
        protos = np.empty((k, d))
        for idx in range(k):
            protos[idx] = basis.T[idx // 2] * (1.0 if idx % 2 == 0 else -1.0)
    else:
        protos = basis.T[: min(k, d)]
        if k > d:
            extra = rng.standard_normal((k - d, d))
            extra /= np.linalg.norm(extra, axis=1, keepdims=True)
            protos = np.vstack([protos, extra])
    return spec.class_separation * protos


def generate(spec: SyntheticSpec) -> Dataset:
    """Deterministically sample the dataset described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    protos = class_prototypes(spec, rng)
    view_shape = (spec.views_per_object, spec.input_dim)
    blocks = []
    for k in range(spec.num_classes):
        for _ in range(spec.objects_per_class):
            obj = protos[k] + rng.normal(0.0, spec.object_noise_std, spec.input_dim)
            # one draw of V x D fills row by row, as V draws of D would
            blocks.append(obj + rng.normal(0.0, spec.view_noise_std, view_shape))
    num_objects = spec.num_classes * spec.objects_per_class
    object_ids = np.arange(1, num_objects + 1).repeat(spec.views_per_object)
    return Dataset(
        np.concatenate(blocks),
        (object_ids - 1) // spec.objects_per_class + 1,
        object_ids,
        np.tile(np.arange(1, spec.views_per_object + 1), num_objects),
        spec=spec,
    )


def split(dataset: Dataset, train_fraction: float, seed: int) -> Dataset:
    """Object-level stratified split; returns a new Dataset with split tags."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    tags: dict[int, str] = {}
    for k in range(1, dataset.num_classes + 1):
        objs = np.unique(dataset.object_ids[dataset.labels == k])
        if len(objs) < 2:
            raise ValueError(f"class {k} has {len(objs)} object(s); need >= 2 to stratify")
        order = rng.permutation(objs)
        n_train = int(round(train_fraction * len(objs)))
        n_train = min(max(n_train, 1), len(objs) - 1)
        for o in order[:n_train]:
            tags[int(o)] = "train"
        for o in order[n_train:]:
            tags[int(o)] = "test"
    return Dataset(
        dataset.inputs,
        dataset.labels,
        dataset.object_ids,
        dataset.view_index,
        split=tags,
        spec=dataset.spec,
    )


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def write_csv(path, header, rows) -> None:
    """The package's one CSV writer: each cell is ``str()`` of a Python value
    (for a float, the shortest text that reads back with the same bits, as in
    ``json.dumps``), lines end in ``\\n``, and ``rows`` streams one row at a
    time (pass ``ndarray.tolist()`` rows)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def save_dataset(dataset: Dataset, csv_path) -> None:
    """Write the view CSV and its JSON sidecar (spec + split)."""
    csv_path = Path(csv_path)
    d = dataset.input_dim
    columns = (dataset.object_ids.tolist(), dataset.labels.tolist(), dataset.view_index.tolist())
    write_csv(csv_path, ["object_id", "label", "view_index", *(f"x{i}" for i in range(d))],
              ([o, k, v, *x.tolist()] for o, k, v, x in zip(*columns, dataset.inputs)))
    sidecar = {
        "format_version": DATASET_FORMAT_VERSION,
        "input_dim": d,
        "spec": asdict(dataset.spec) if dataset.spec else None,
        "split": {str(k): v for k, v in dataset.split.items()} if dataset.split else None,
    }
    _sidecar_path(csv_path).write_text(json.dumps(sidecar, indent=2))


def load_dataset(csv_path) -> Dataset:
    """Parse a view CSV (+ sidecar if present); errors carry line numbers."""
    csv_path = Path(csv_path)
    try:
        text = csv_path.read_text()
    except UnicodeDecodeError as e:
        raise ValueError(f"{csv_path}: {e}") from None
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ValueError(f"{csv_path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["object_id", "label", "view_index"]:
        raise ValueError(f"{csv_path}:1: bad header {lines[0]!r}")
    dim = len(header) - 3
    if dim < 1 or header[3:] != [f"x{i}" for i in range(dim)]:
        raise ValueError(f"{csv_path}:1: bad coordinate columns in header")
    if len(lines) == 1:
        raise ValueError(f"{csv_path}: header-only file, dataset is empty")

    inputs, labels, oids, vids = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise ValueError(
                f"{csv_path}:{lineno}: expected {3 + dim} fields, got {len(parts)}"
            )
        try:
            oids.append(int(parts[0]))
            labels.append(int(parts[1]))
            vids.append(int(parts[2]))
            inputs.append([float(p) for p in parts[3:]])
        except ValueError as e:
            raise ValueError(f"{csv_path}:{lineno}: malformed value ({e})") from None

    inputs = np.array(inputs)
    finite = np.isfinite(inputs).all(axis=1)
    if not finite.all():
        rows = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
        raise ValueError(f"{csv_path}:{rows[int(np.argmin(finite))]}: non-finite coordinate")

    try:
        dataset = Dataset(inputs, np.array(labels), np.array(oids), np.array(vids))
    except ValueError as e:
        raise ValueError(f"{csv_path}: {e}") from None
    sidecar_file = _sidecar_path(csv_path)
    if sidecar_file.exists():
        try:
            dataset.split, dataset.spec = _read_sidecar(sidecar_file, dim)
            dataset._check_split()
        except ValueError as e:
            raise ValueError(f"{sidecar_file}: {e}") from None
    return dataset


# JSON value types accepted for each SyntheticSpec field annotation, matched
# exactly: a JSON boolean decodes to a bool, which is not a number here
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _read_sidecar(path: Path, dim: int):
    """``(split map or None, spec or None)`` from a sidecar file."""
    sidecar = json.loads(path.read_text())
    if not isinstance(sidecar, dict):
        raise ValueError("sidecar is not a JSON object")
    version, input_dim = sidecar.get("format_version"), sidecar.get("input_dim")
    if type(version) is not int or version != DATASET_FORMAT_VERSION:
        raise ValueError("unsupported format version")
    if type(input_dim) is not int or input_dim != dim:
        raise ValueError(f"sidecar input_dim {input_dim} != CSV dim {dim}")
    split_map = spec = None
    if sidecar.get("split") is not None:
        if not isinstance(sidecar["split"], dict):
            raise ValueError("split is not a JSON object")
        split_map = {int(k): v for k, v in sidecar["split"].items()}
    if sidecar.get("spec") is not None:
        doc = sidecar["spec"]
        hints = get_type_hints(SyntheticSpec)
        if not isinstance(doc, dict) or doc.keys() != hints.keys():
            raise ValueError(f"spec must be an object with exactly the keys {list(hints)}")
        for name, kind in hints.items():
            if type(doc[name]) not in _JSON_TYPES[kind]:
                raise ValueError(f"spec entry {name!r} must be {kind.__name__}, got {doc[name]!r}")
        spec = SyntheticSpec(**doc)
    return split_map, spec
