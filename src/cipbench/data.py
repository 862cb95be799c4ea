"""Synthetic multi-view datasets: generation, splitting, and CSV round-trip.

Each class gets a prototype direction; each object is its class prototype
plus Gaussian object noise; each view is its object vector plus Gaussian
view noise.  The on-disk format is a single CSV (one row per view) plus a
JSON sidecar holding the generating spec and the object-level train/test
split, so files stay diffable and plottable with external tools.  A binary
copy of the CSV's rows, keyed to its bytes, lets a later load skip the
text parse; the CSV stays the source of truth.  A CSV without a matching
copy is parsed line by line, by the one reader that decides every error
and names its line.  ``write_csv``, the one CSV writer, formats a large
file on one forked worker per CPU, with the bytes one process would write;
the forks and pipes are ``vectors.forked``'s, and only the CSV parts (the
cut into row spans, the text each worker sends, the redo of a failed span)
are here.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, get_type_hints

import numpy as np

from .vectors import check_fields, fork_workers, forked

__all__ = ["Dataset", "RowSource", "SyntheticSpec", "generate", "load_dataset", "save_dataset", "split",
           "write_csv"]

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
        ids = set(self.object_ids.tolist())
        missing = ids - self.split.keys()
        if missing:
            raise ValueError(f"split map has no tag for object ids {sorted(missing)}")
        extra = next((o for o in self.split if o not in ids), None)
        if extra is not None:
            raise ValueError(f"split map tags object id {extra}, which has no row")

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
        lies outside ``test_mask`` (training uses those rows), there are at
        least 2 classes (the centerline bank needs them) and every input is
        finite (a NaN or Inf input is a data error, not a divergence); the
        message of the last names the first bad row, counted from 0."""
        if self.test_mask().all():
            raise ValueError(f"{name}: no training rows")
        if self.num_classes < 2:
            raise ValueError(f"{name}: a centerline bank needs at least 2 classes, got {self.num_classes}")
        finite = np.isfinite(self.inputs)
        if not finite.all():
            raise ValueError(f"{name}: input row {int(np.argmin(finite.all(axis=1)))} is not finite")

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


def _rows_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".rows")


def _rows_dtype(dim: int) -> np.dtype:
    """One CSV row: its three id columns, then its ``dim`` coordinates."""
    return np.dtype([("ids", np.int64, (3,)), ("x", np.float64, (dim,))])


# a rows cache is a SHA-256 key over this tag, the CSV's bytes and the .npy
# payload that follows the key; another layout gets another tag
_ROWS_TAG = b"cipbench dataset rows 1\n"
_KEY_SIZE = 32


def _rows_key(parts) -> bytes:
    """The SHA-256 of ``_ROWS_TAG`` and then each buffer of ``parts``: the
    CSV's bytes, then the payload's."""
    key = hashlib.sha256(_ROWS_TAG)
    for part in parts:
        key.update(part)
    return key.digest()


class RowSource(NamedTuple):
    """``count`` rows that ``write_csv`` may cut into chunks: ``between(lo,
    hi)`` yields rows ``lo`` to ``hi - 1`` one at a time, as lists of
    Python values."""

    count: int
    between: Callable[[int, int], Iterable[list]]


# a file of fewer cells (rows x columns) is written by the caller alone: a
# worker's fork, start, pipe and exit cost a few ms (on a 2-vCPU VM a worker
# made write_csv ~25 % slower at 17k-26k cells, gained nothing at 35k-43k
# and cut it by ~40 % from 52k on)
_MIN_FORKED_CELLS = 50_000


def _line(row) -> str:
    return ",".join(map(str, row)) + "\n"


def _open_text(file):
    """``file``, a path or a pipe's descriptor, opened for CSV text: every
    byte of a CSV goes through such a stream, so all of it has one encoding."""
    return open(file, "w", newline="\n")


def _spans(count: int, columns: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row spans, the caller's first and one per
    worker after it: one span per process ``vectors.fork_workers`` allows
    for a file of at least ``_MIN_FORKED_CELLS`` cells, else one."""
    n = min(fork_workers(), count) if count * columns >= _MIN_FORKED_CELLS else 1
    cuts = [count * i // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def _send_chunk(rows, fd: int) -> None:
    """A worker's body: the text of ``rows``, formatted whole and then
    encoded and written to the pipe ``fd`` as ``_open_text`` writes a file."""
    with _open_text(fd) as out:
        out.write("".join(map(_line, rows)))


def write_csv(path, header, rows) -> None:
    """The package's one CSV writer: each cell is ``str()`` of a Python value
    (for a float, the shortest text that reads back with the same bits, as in
    ``json.dumps``), lines end in ``\\n``, and rows stream one at a time.

    ``rows`` is an iterable of rows (pass ``ndarray.tolist()`` rows), written
    by the caller alone, or a ``RowSource``.  A source's rows are cut into
    ``_spans``: for a large file, one contiguous chunk per CPU.  One worker
    per chunk after the first is forked (``vectors.forked``) before the file
    is opened; it takes its chunk's rows from the source, formats them whole
    and writes the encoded text to a pipe, so the caller holds none of them.
    The caller streams the first chunk row by row, then copies each worker's
    pipe into the file in chunk order.  A chunk whose worker does not exit 0
    is cut off and formatted again by the caller, so the file gets exactly
    the serial path's bytes, or the caller raises exactly its exception.
    Every worker is reaped before this returns or raises.
    """
    source = rows if isinstance(rows, RowSource) else None
    spans = _spans(source.count, len(header)) if source else []
    with forked(spans, lambda span, fd: _send_chunk(source.between(*span), fd)) as workers:
        with _open_text(path) as fh:
            fh.write(",".join(header) + "\n")
            for row in source.between(*spans[0]) if source else rows:
                fh.write(_line(row))
            for (lo, hi), worker in itertools.zip_longest(spans[1:], workers):
                fh.flush()
                start = fh.buffer.tell()
                if not (worker and worker.copy_to(fh.buffer)):
                    fh.buffer.seek(start)
                    fh.buffer.truncate()
                    for row in source.between(lo, hi):
                        fh.write(_line(row))


def save_dataset(dataset: Dataset, csv_path) -> None:
    """Write the view CSV, its JSON sidecar (spec + split) and, last, the
    rows cache that lets ``load_dataset`` skip parsing this exact CSV.  A
    ``csv_path`` that is its own sidecar or cache path (a ``.json`` or
    ``.rows`` suffix) is refused before anything is written."""
    csv_path = Path(csv_path)
    if csv_path in (_sidecar_path(csv_path), _rows_path(csv_path)):
        raise ValueError(f"{csv_path}: a dataset CSV cannot end in .json or .rows, "
                         "which name its sidecar and rows cache")
    d = dataset.input_dim
    ids, inputs = (dataset.object_ids, dataset.labels, dataset.view_index), dataset.inputs

    def between(lo, hi):
        columns = (c[lo:hi].tolist() for c in ids)
        return ([o, k, v, *x.tolist()] for o, k, v, x in zip(*columns, inputs[lo:hi]))

    write_csv(csv_path, ["object_id", "label", "view_index", *(f"x{i}" for i in range(d))],
              RowSource(dataset.num_views, between))
    sidecar = {
        "format_version": DATASET_FORMAT_VERSION,
        "input_dim": d,
        "spec": asdict(dataset.spec) if dataset.spec else None,
        "split": {str(k): v for k, v in dataset.split.items()} if dataset.split else None,
    }
    _sidecar_path(csv_path).write_text(json.dumps(sidecar, indent=2))
    rows = np.empty(dataset.num_views, _rows_dtype(d))
    rows["ids"] = np.stack([dataset.object_ids, dataset.labels, dataset.view_index], axis=1)
    rows["x"] = dataset.inputs
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(rows))
    payload = (header.getvalue(), rows)  # an .npy file: its header, then the rows' bytes
    with open(csv_path, "rb") as fh:  # read back in chunks, so no copy of the whole CSV is held
        key = _rows_key(itertools.chain(iter(lambda: fh.read(1 << 20), b""), payload))
    with open(_rows_path(csv_path), "wb") as fh:
        for part in (key, *payload):
            fh.write(part)


def load_dataset(csv_path) -> Dataset:
    """Parse a view CSV (+ sidecar if present); errors carry line numbers.

    When the rows cache ``save_dataset`` wrote beside the CSV matches the
    CSV's bytes, ``_read_cached`` takes the rows from it.  Every other file,
    and any cache whose rows hold a non-finite coordinate, goes through
    ``_read_lines``, which decides every error.  Both give the same arrays,
    so what is accepted does not depend on the path taken.  Nothing here
    writes a cache.  A ``csv_path`` that is its own sidecar path (a ``.json``
    suffix) is refused before anything is read.
    """
    csv_path = Path(csv_path)
    sidecar_file = _sidecar_path(csv_path)
    if csv_path == sidecar_file:
        raise ValueError(f"{csv_path}: a dataset CSV cannot end in .json, which names its sidecar")
    raw = csv_path.read_bytes()
    parsed = _read_cached(csv_path, raw)
    if parsed is None:
        parsed = _read_lines(csv_path, raw)
    dim, inputs, *columns = parsed
    try:
        dataset = Dataset(inputs, *columns)
    except ValueError as e:
        raise ValueError(f"{csv_path}: {e}") from None
    if sidecar_file.exists():
        try:
            dataset.split, dataset.spec = _read_sidecar(sidecar_file, dim)
            dataset._check_split()
        except (ValueError, RecursionError) as e:  # RecursionError: JSON nested too deeply
            raise ValueError(f"{sidecar_file}: {e}") from None
    return dataset


def _read_cached(csv_path: Path, raw: bytes):
    """``(dim, inputs, labels, object_ids, view_index)`` from the rows cache
    beside ``csv_path``, or None when it is missing or unreadable, its key is
    not that of ``raw`` and its own payload, or the payload is not an .npy
    1.0 file of exactly a non-empty 1-D array of ``_rows_dtype(dim)`` rows,
    with dim >= 1 and finite coordinates."""
    try:
        blob = _rows_path(csv_path).read_bytes()
    except OSError:
        return None
    if _rows_key((raw, memoryview(blob)[_KEY_SIZE:])) != blob[:_KEY_SIZE]:  # also when blob is short
        return None
    fh = io.BytesIO(blob)  # shares blob's bytes until written to
    fh.seek(_KEY_SIZE)
    try:
        # numpy's header parser raises more than ValueError (a garbled
        # header can end in tokenize's TokenError): any refusal is a miss
        if np.lib.format.read_magic(fh) != (1, 0):
            return None
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        dim, = dtype["x"].shape
    except Exception:
        return None
    start, count = fh.tell(), shape[0] if len(shape) == 1 else 0
    if not count or dim < 1 or dtype != _rows_dtype(dim) or len(blob) - start != count * dtype.itemsize:
        return None
    rows = np.frombuffer(blob, dtype, count, start)  # still blob's bytes: copied out below
    inputs = rows["x"].copy()
    if not np.isfinite(inputs).all():
        return None
    ids = rows["ids"].T.copy()  # one contiguous row per id column
    return dim, inputs, ids[1], ids[0], ids[2]


def _line_of_row(lines: list[str], row: int) -> int:
    """The line number of data row ``row`` (0-based) of a CSV split into
    ``lines``: the header is line 1, and a blank line holds no row."""
    return [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]


def _read_lines(csv_path: Path, raw: bytes):
    """``(dim, inputs, labels, object_ids, view_index)`` row by row with
    Python's int()/float(); a malformed file raises one ``ValueError`` that
    names its line."""
    try:
        text = io.TextIOWrapper(io.BytesIO(raw)).read()  # decoded as Path.read_text() does
    except UnicodeDecodeError as e:
        raise ValueError(f"{csv_path}: {e}") from None
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{csv_path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["object_id", "label", "view_index"]:
        raise ValueError(f"{csv_path}:1: bad header {lines[0]!r}")
    dim = len(header) - 3
    if dim < 1 or header[3:] != [f"x{i}" for i in range(dim)]:
        raise ValueError(f"{csv_path}:1: bad coordinate columns in header")

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
    if not inputs:  # no line after the header, or blank ones only
        raise ValueError(f"{csv_path}: header-only file, dataset is empty")

    try:
        columns = [np.array(c, dtype=np.int64) for c in (labels, oids, vids)]
    except OverflowError:
        wide = [not all(-2**63 <= v < 2**63 for v in ids) for ids in zip(oids, labels, vids)]
        lineno = _line_of_row(lines, wide.index(True))
        raise ValueError(f"{csv_path}:{lineno}: integer out of the int64 range") from None
    inputs = np.array(inputs)
    finite = np.isfinite(inputs).all(axis=1)
    if not finite.all():
        raise ValueError(f"{csv_path}:{_line_of_row(lines, int(np.argmin(finite)))}: non-finite coordinate")

    return dim, inputs, *columns


# JSON value types accepted for each SyntheticSpec field annotation, matched
# exactly: a JSON boolean decodes to a bool, which is not a number here
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _object_id(key: str) -> int:
    """The object id a sidecar split key names, written exactly as
    ``str(id)``: ``"01"``, ``" 1"``, ``"+1"`` and ``"1_0"`` are refused, so
    no two keys name one id."""
    try:
        oid = int(key)
    except ValueError:
        oid = None
    if oid is None or str(oid) != key:
        raise ValueError(f"split key {key!r} is not an integer object id in canonical form")
    return oid


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
        split_map = {_object_id(key): tag for key, tag in sidecar["split"].items()}
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
