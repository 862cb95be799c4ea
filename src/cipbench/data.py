"""Synthetic multi-view datasets: generation, splitting, and CSV round-trip.

Each class gets a prototype direction; each object is its class prototype
plus Gaussian object noise; each view is its object vector plus Gaussian
view noise.  The on-disk format is a single CSV (one row per view) plus a
JSON sidecar holding the generating spec and the object-level train/test
split, so files stay diffable and plottable with external tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "SyntheticSpec", "generate", "load_dataset", "save_dataset", "split"]

DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SyntheticSpec:
    """Prototype schemes:

    * ``orthonormal`` (default): scaled vertices of a random orthonormal
      basis, padded with random unit directions when K > D;
    * ``antipodal``: consecutive class pairs share a basis direction with
      opposite signs (+b, -b), so classes carry an exact one-line-per-pair
      structure; needs ceil(K / 2) <= D.
    """

    num_classes: int
    objects_per_class: int
    views_per_object: int
    input_dim: int
    class_separation: float = 6.0
    object_noise_std: float = 1.0
    view_noise_std: float = 0.5
    prototype_scheme: str = "orthonormal"
    seed: int = 0

    def __post_init__(self):
        counts = (self.num_classes, self.objects_per_class, self.views_per_object, self.input_dim)
        if any(c < 1 for c in counts):
            raise ValueError(f"all counts must be >= 1, got {counts}")
        if self.object_noise_std < 0 or self.view_noise_std < 0:
            raise ValueError("noise stds must be non-negative")
        if self.prototype_scheme not in ("orthonormal", "antipodal"):
            raise ValueError(f"unknown prototype scheme {self.prototype_scheme!r}")
        if self.prototype_scheme == "antipodal" and (self.num_classes + 1) // 2 > self.input_dim:
            raise ValueError("antipodal scheme needs ceil(K/2) <= input_dim")

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "objects_per_class": self.objects_per_class,
            "views_per_object": self.views_per_object,
            "input_dim": self.input_dim,
            "class_separation": self.class_separation,
            "object_noise_std": self.object_noise_std,
            "view_noise_std": self.view_noise_std,
            "prototype_scheme": self.prototype_scheme,
            "seed": self.seed,
        }


@dataclass
class Dataset:
    """Row-per-view storage with an optional object-level split map."""

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
        for oid in np.unique(self.object_ids):
            if len(np.unique(self.labels[self.object_ids == oid])) != 1:
                raise ValueError(f"object {oid} has inconsistent labels")
        if self.split is not None:
            bad = set(self.split.values()) - {"train", "test"}
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

    def view_split_tags(self) -> np.ndarray:
        """Per-row split tag; rows of unsplit datasets all count as train."""
        if self.split is None:
            return np.full(self.num_views, "train", dtype=object)
        return np.array([self.split[int(o)] for o in self.object_ids], dtype=object)

    def subset(self, tag: str) -> "Dataset":
        mask = self.view_split_tags() == tag
        if not mask.any():
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
    rows, labels, oids, vids = [], [], [], []
    oid = 0
    for k in range(1, spec.num_classes + 1):
        for _ in range(spec.objects_per_class):
            oid += 1
            obj = protos[k - 1] + rng.normal(0.0, spec.object_noise_std, spec.input_dim)
            for v in range(1, spec.views_per_object + 1):
                rows.append(obj + rng.normal(0.0, spec.view_noise_std, spec.input_dim))
                labels.append(k)
                oids.append(oid)
                vids.append(v)
    return Dataset(np.array(rows), np.array(labels), np.array(oids), np.array(vids), spec=spec)


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


def save_dataset(dataset: Dataset, csv_path) -> None:
    """Write the view CSV and its JSON sidecar (spec + split)."""
    csv_path = Path(csv_path)
    d = dataset.input_dim
    header = "object_id,label,view_index," + ",".join(f"x{i}" for i in range(d))
    lines = [header]
    for i in range(dataset.num_views):
        coords = ",".join(format(x, ".17g") for x in dataset.inputs[i])
        lines.append(
            f"{dataset.object_ids[i]},{dataset.labels[i]},{dataset.view_index[i]},{coords}"
        )
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "format_version": DATASET_FORMAT_VERSION,
        "input_dim": d,
        "spec": dataset.spec.to_dict() if dataset.spec else None,
        "split": {str(k): v for k, v in dataset.split.items()} if dataset.split else None,
    }
    _sidecar_path(csv_path).write_text(json.dumps(sidecar, indent=2))


def load_dataset(csv_path) -> Dataset:
    """Parse a view CSV (+ sidecar if present); errors carry line numbers."""
    csv_path = Path(csv_path)
    text = csv_path.read_text()
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

    sidecar_file = _sidecar_path(csv_path)
    split_map = None
    spec = None
    if sidecar_file.exists():
        sidecar = json.loads(sidecar_file.read_text())
        if sidecar.get("format_version") != DATASET_FORMAT_VERSION:
            raise ValueError(f"{sidecar_file}: unsupported format version")
        if sidecar.get("input_dim") != dim:
            raise ValueError(
                f"{sidecar_file}: sidecar input_dim {sidecar.get('input_dim')} != CSV dim {dim}"
            )
        if sidecar.get("split") is not None:
            split_map = {int(k): v for k, v in sidecar["split"].items()}
        if sidecar.get("spec") is not None:
            spec = SyntheticSpec(**sidecar["spec"])
    return Dataset(
        inputs, np.array(labels), np.array(oids), np.array(vids),
        split=split_map, spec=spec,
    )
