"""One benchmark workload in its own process: set up, time passes, check outputs.

``bench/run.py`` starts this script for every measurement and reads the JSON
object it prints as its last line; see ``bench/README.md``.  It runs from
the root of a cipbench source checkout and imports the library from
``src/`` there.  Load is closed-loop: this one thread calls the library and
waits for each call, and the parent pins BLAS to one thread.

    python3 bench/workloads.py --workload eval-large --seed 3 --seconds 20 \\
        --mode untraced --spawned-at 12345.6

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start-up and imports too.
Modes: ``setup`` stops after set-up, ``untraced`` times the passes with the
library as it is and then runs one pass on REFERENCE_SEED, ``traced`` times
them with the span wrappers installed.  Every timed step is followed by one
run of a fixed reference loop, and ``pass_norm`` is a pass in units of it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import cipbench
import spans
from cipbench import cli, config, data, encoder, losses, retrieval, trainer

ROOT = Path.cwd()
SRC = ROOT / "src"

# Every workload times at least two passes, so each run has a median and
# the same-input repeat checks always compare something.
MIN_PASSES = 2

# After the timed passes, the untraced process runs one more pass of the
# same workload on this fixed seed.  Its MAP depends on the code alone, so
# it is the same in every run and a change that lowers it shows at once;
# the MAP of the --seed inputs varies from seed to seed (quartile distance
# 3-12 % of the median over seeds 1-10).
REFERENCE_SEED = 0

# The criterion-4 protocol on the standard 10-class benchmark, copied here
# so the benchmark does not depend on the test suite.
GRID_SEEDS = 10
GRID_LOSSES = {
    "cip+softmax": {},
    "softmax": {"softmax_weight": 1.0},
    "cip": {},
    "center+softmax": {"softmax_weight": 1.0, "center_weight": 0.003},
}
LARGE_OBJECTS_PER_CLASS = 384
# Each CLI command is one step; at 96 objects per class it takes about
# 0.3 s, so a 30-second run holds 22-29 repetitions of each to take the
# fastest of (at 384, five).
CLI_OBJECTS_PER_CLASS = 96
CHECKED_QUERIES = 32

# The yardstick for the machine's speed: a fixed pure-Python loop, timed
# right after every timed step (13-23 ms on a 2-vCPU Xeon VM).  The
# shared VM this was built on runs 30-70 % slower for minutes at a time;
# the loop slows with it, so a step's time over the loop time next to it
# moves far less than the time does (figures in bench/README.md).  It
# lives here, not in ``src/``, so no change to the library moves it.
REFERENCE_LOOP_N = 200_000


def standard_spec(seed: int, objects_per_class: int = 24) -> data.SyntheticSpec:
    return data.SyntheticSpec(
        num_classes=10, objects_per_class=objects_per_class, views_per_object=8, input_dim=24,
        class_separation=2.0, object_noise_std=0.7, view_noise_std=0.35, seed=seed,
    )


def grid_config(seed: int, loss_name: str) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        batch_size=50, epochs=30, lr0=0.01, lr_drop_epoch=20, lr_drop_factor=5.0,
        momentum=0.0, weight_decay=2e-4, seed=seed,
        loss=losses.LossConfig.from_name(loss_name, **GRID_LOSSES[loss_name]),
        hidden_dims=(32,), embedding_dim=16, init_std=0.3,
    )


def map_on_test_split(result, dataset) -> float:
    """Micro MAP of leave-one-out retrieval over the test split's objects."""
    test = dataset.subset("test")
    feats, _ = encoder.forward_batch(result.params, test.inputs)
    descs, labels, _ = retrieval.pool_descriptors(feats, test.object_ids, test.labels)
    return retrieval.evaluate_run(retrieval.rank(descs, labels)).micro.map


def param_digest(result) -> str:
    h = hashlib.sha256()
    for arr in (*result.params.weights, *result.params.biases, result.bank.centers):
        h.update(arr.tobytes())
    if result.classifier is not None:
        h.update(result.classifier.weights.tobytes())
        h.update(result.classifier.bias.tobytes())
    return h.hexdigest()


class Tally:
    """Operations and output checks attempted and failed, with failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{what}: {detail}" if detail else what)
        return ok

    def attempt(self, what: str, fn, *args, **kwargs):
        """Call one operation; a raised exception counts as a failed one."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as e:  # the run goes on and reports the failure
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.notes.append(f"{what}: {type(e).__name__}: {e}")
            return False, None


# ---------------------------------------------------------------------------
# workloads: setup(), run_pass() timed, check(output) untimed
# ---------------------------------------------------------------------------


def reference_loop_s() -> float:
    """Time one run of the reference loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i % 7
    return time.perf_counter() - t0


class StepLog:
    """Times of timed steps by kind, each paired with a reference-loop time.

    Steps of one kind (the runs of one loss, an evaluation stage, a CLI
    command) do the same work.  With ``calibrate`` off (set-up), no
    reference loop runs.
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.times: dict[str, list[float]] = defaultdict(list)
        self.refs: dict[str, list[float]] = defaultdict(list)
        self.total = 0.0  # time in steps, without the reference loops

    def lap(self, name: str, t0: float) -> float:
        """Record the time since ``t0`` as one ``name`` step, then time the
        reference loop; return the time to start the next step from."""
        now = time.perf_counter()
        self.times[name].append(now - t0)
        self.total += now - t0
        if not self.calibrate:
            return now
        self.refs[name].append(reference_loop_s())
        return time.perf_counter()

    def pass_norm(self, passes: int) -> float:
        """One pass in reference loops: for each kind of step, the median of
        its times over the loop time after each, times its count per pass."""
        return sum(
            statistics.median(t / r for t, r in zip(self.times[name], self.refs[name]))
            * len(self.times[name]) / passes
            for name in self.times
        )


class Workload:
    """Shared bookkeeping.

    ``steps`` logs the timed steps of every pass.  ``stages`` holds further
    figures for the human-readable report; ``map_mean`` is the MAP of the
    first pass's output.
    """

    def __init__(self, seed: int, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.steps = StepLog()
        self.stages: dict = {}
        self.map_mean = None
        self.first_pass = None

    def close(self):
        pass


class TrainGrid(Workload):
    """10 seeds x 4 loss combinations, 30 epochs each, test MAP after each run.

    The seed changes the data, not the work: every run of one loss takes
    the same number of steps on arrays of the same shapes.
    """

    def __init__(self, seed: int, tally: Tally):
        super().__init__(seed, tally)
        self.grid_seeds = [seed * GRID_SEEDS + i for i in range(GRID_SEEDS)]
        self.stages = {"train_run_s": [], "train_samples": 0, "train_time_s": 0.0}

    def setup(self):
        self.datasets = {
            s: data.split(data.generate(standard_spec(s)), 0.5, s) for s in self.grid_seeds
        }
        self.train_views = {
            s: int((ds.view_split_tags() == "train").sum()) for s, ds in self.datasets.items()
        }
        warm = grid_config(self.grid_seeds[0], "cip+softmax")
        warm.epochs = 1
        ds = self.datasets[self.grid_seeds[0]]
        map_on_test_split(trainer.train(ds, warm), ds)

    def run_pass(self):
        runs = []
        for s in self.grid_seeds:
            ds = self.datasets[s]
            for loss_name in GRID_LOSSES:
                cfg = grid_config(s, loss_name)
                what = f"train seed={s} loss={loss_name}"
                t0 = time.perf_counter()
                ok, result = self.tally.attempt(what, trainer.train, ds, cfg)
                train_s = time.perf_counter() - t0
                ok, score = (self.tally.attempt(f"{what}: test MAP", map_on_test_split, result, ds)
                             if ok else (False, None))
                self.steps.lap(f"{loss_name}_run_s", t0)
                runs.append((what, result, score, train_s, self.train_views[s] * cfg.epochs))
        return runs

    def check(self, runs):
        fingerprint = []
        for what, result, score, train_s, samples in runs:
            if result is None or score is None:
                fingerprint.append(None)
                continue
            final = result.history[-1]["total"] if result.history else float("nan")
            self.tally.check(f"{what}: finite final loss", bool(np.isfinite(final)), f"{final!r}")
            self.tally.check(f"{what}: MAP in (0, 1]", 0.0 < score <= 1.0, f"{score!r}")
            fingerprint.append((param_digest(result), score))
            self.stages["train_run_s"].append(train_s)
            self.stages["train_samples"] += samples
            self.stages["train_time_s"] += train_s
        if self.first_pass is None:
            self.first_pass = fingerprint
            scores = [fp[1] for fp in fingerprint if fp is not None]
            self.map_mean = float(np.mean(scores)) if scores else None
        else:
            same = [a == b for a, b in zip(fingerprint, self.first_pass)]
            self.tally.check("same-seed repeats give identical parameter bytes and MAP",
                             all(same), f"{same.count(False)} of {len(same)} runs differ")


class EvalLarge(Workload):
    """Embed -> pool -> rank -> evaluate -> geometry over 3840 objects."""

    def __init__(self, seed: int, tally: Tally):
        super().__init__(seed, tally)
        self.stages = {"eval_s": [], "queries": 0}

    def setup(self):
        ds = data.split(data.generate(standard_spec(self.seed)), 0.5, self.seed)
        self.model = trainer.train(ds, grid_config(self.seed, "cip+softmax"))
        # same seed and input dimension as the training set, so the class
        # prototypes (drawn first from the generator) are the same
        self.large = data.generate(standard_spec(self.seed, LARGE_OBJECTS_PER_CLASS))
        self._evaluate(StepLog(calibrate=False), slice(0, 40 * self.large.spec.views_per_object))

    def _evaluate(self, log: StepLog, rows=slice(None)):
        large = self.large
        t = time.perf_counter()
        feats, _ = encoder.forward_batch(self.model.params, large.inputs[rows])
        t = log.lap("embed_s", t)
        descs, labels, _ = retrieval.pool_descriptors(feats, large.object_ids[rows], large.labels[rows])
        t = log.lap("pool_s", t)
        run = retrieval.rank(descs, labels)
        t = log.lap("rank_s", t)
        summary = retrieval.evaluate_run(run)
        t = log.lap("metrics_s", t)
        geometry = retrieval.geometry_report(feats, large.labels[rows], self.model.bank)
        log.lap("geometry_s", t)
        return descs, labels, run, summary, geometry

    def run_pass(self):
        before = self.steps.total
        ok, out = self.tally.attempt("evaluation pass", self._evaluate, self.steps)
        return out, self.steps.total - before

    def check(self, output):
        out, seconds = output
        if out is None:
            return
        descs, labels, run, summary, geometry = out
        self.stages["eval_s"].append(seconds)
        self.stages["queries"] += run.num_queries
        result = (summary.to_dict(), geometry.to_dict())
        if self.first_pass is not None:
            self.tally.check("repeat pass gives identical metrics and geometry", result == self.first_pass)
            return
        self.first_pass = result
        self.map_mean = summary.micro.map
        self.tally.check("every object is a query and none is skipped",
                         run.num_queries == len(descs) and summary.skipped_queries == 0)
        rng = np.random.default_rng(self.seed)
        for qi in rng.choice(run.num_queries, CHECKED_QUERIES, replace=False):
            query = int(run.query_indices[qi])
            faults = checks.ranking_faults(descs, labels, query, run.rankings[qi], run.relevance[qi])
            self.tally.check(f"ranking of query {query}", not faults, "; ".join(faults))
            for metric, ok in checks.metrics_agree(retrieval, run.relevance[qi]):
                self.tally.check(f"{metric} of query {query} equals the oracle", ok)


class CliPipeline(Workload):
    """cipbench generate -> train -> eval -> export on 7680 views, 2 epochs."""

    COMMANDS = ("generate", "train", "eval", "export")

    def __init__(self, seed: int, tally: Tally):
        super().__init__(seed, tally)
        self.overrides = [f"seed={seed}", f"objects_per_class={CLI_OBJECTS_PER_CLASS}", "epochs=2"]
        self.workdir = ROOT / ".bench_tmp" / f"cli-pipeline-{os.getpid()}-{seed}"
        self.passes = 0

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        warm = self.workdir / "warm-up"
        self._pipeline(warm, [self.overrides[0], "objects_per_class=2", "epochs=1"], StepLog(calibrate=False))
        shutil.rmtree(warm)

    def _argv(self, out: Path, overrides):
        csv_path, ckpt = out / "data" / "dataset.csv", out / "train" / "checkpoint.json"
        sets = [arg for item in overrides for arg in ("--set", item)]
        return [
            ("generate", ["generate", "--out", str(out / "data"), *sets]),
            ("train", ["train", "--dataset", str(csv_path), "--out", str(out / "train"), *sets]),
            ("eval", ["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                      "--out", str(out / "eval"), *sets]),
            ("export", ["export", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
                        "--out", str(out / "export" / "embeddings.csv"), *sets]),
        ]

    def _pipeline(self, out: Path, overrides, log: StepLog):
        results = []
        for command, argv in self._argv(out, overrides):
            captured = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                try:
                    code = cli.main(argv)
                except SystemExit as e:  # argparse rejects bad flags this way
                    code = e.code
            log.lap(f"cli_{command}_s", t0)
            results.append((command, code, captured.getvalue()))
        return results

    def run_pass(self):
        self.passes += 1
        out = self.workdir / f"pass-{self.passes}"
        return out, self._pipeline(out, self.overrides, self.steps)

    def check(self, output):
        out, results = output
        for command, code, text in results:
            self.tally.check(f"cipbench {command} exits 0", code == 0, text.strip()[-300:])
        files = [out / "data" / "dataset.csv", out / "data" / "dataset.json",
                 out / "train" / "checkpoint.json", out / "train" / "history.csv",
                 out / "eval" / "metrics.json", out / "export" / "embeddings.csv"]
        digests = [hashlib.sha256(f.read_bytes()).hexdigest() if f.is_file() else None for f in files]
        if self.first_pass is None:
            self.first_pass = digests
            self._check_outputs(out)
        else:
            self.tally.check("repeat pass writes identical files", digests == self.first_pass)
        shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, out: Path):
        cfg = config.RunConfig.from_sources(None, self.overrides)
        expected = data.split(data.generate(cfg.synthetic_spec()), cfg.train_fraction, cfg.seed)
        ok, loaded = self.tally.attempt("load dataset.csv", data.load_dataset, out / "data" / "dataset.csv")
        if not ok:
            return
        self.tally.check(
            "dataset CSV round trip is bit-exact",
            all(a.tobytes() == b.tobytes() for a, b in (
                (expected.inputs, loaded.inputs), (expected.labels, loaded.labels),
                (expected.object_ids, loaded.object_ids), (expected.view_index, loaded.view_index),
            )) and expected.split == loaded.split,
        )
        ok, ckpt = self.tally.attempt("load checkpoint.json", trainer.load_checkpoint,
                                      out / "train" / "checkpoint.json")
        if not ok:
            return
        feats, _ = encoder.forward_batch(ckpt.params, loaded.inputs)
        ok, rows = self.tally.attempt("read embeddings.csv", _read_embeddings,
                                      out / "export" / "embeddings.csv")
        self.tally.check(
            "exported embeddings CSV round trip is bit-exact",
            ok and rows[0].tolist() == loaded.object_ids.tolist()
            and rows[1].tolist() == loaded.labels.tolist() and rows[2].tobytes() == feats.tobytes(),
        )
        mask = loaded.view_split_tags() == "test"
        descs, labels, _ = retrieval.pool_descriptors(
            feats[mask], loaded.object_ids[mask], loaded.labels[mask])
        summary = retrieval.evaluate_run(retrieval.rank(descs, labels), cfg.f1_cutoff, cfg.ndcg_cutoff)
        ok, written = self.tally.attempt("read metrics.json", lambda p: json.loads(p.read_text()),
                                         out / "eval" / "metrics.json")
        if self.tally.check("metrics.json matches the in-process evaluation",
                            ok and written == summary.to_dict()):
            self.map_mean = written["micro"]["map"]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()


def _read_embeddings(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    if header[:2] != ["object_id", "label"]:
        raise ValueError(f"bad embeddings header {lines[0]!r}")
    oids, labels, values = [], [], []
    for line in lines[1:]:
        parts = line.split(",")
        oids.append(int(parts[0]))
        labels.append(int(parts[1]))
        values.append([float(p) for p in parts[2:]])
    return np.array(oids), np.array(labels), np.array(values, dtype=np.float64)


WORKLOADS = {"train-grid": TrainGrid, "eval-large": EvalLarge, "cli-pipeline": CliPipeline}


# ---------------------------------------------------------------------------
# tracing: the public names each layer is called through
# ---------------------------------------------------------------------------


def _count(name, amount_of):
    def hook(counts, args, kwargs, result):
        counts[name] = counts.get(name, 0) + amount_of(args, result)
    return hook


def _file_size(path) -> int:
    return Path(path).stat().st_size


COUNTS = {  # count name -> unit
    "trainer.steps": "count",
    "trainer.checkpoint_bytes": "B",
    "retrieval.rank.queries": "count",
    "data.save_dataset.bytes": "B",
    "data.load_dataset.rows": "count",
}


def trace_points():
    """(span name, the slots callers resolve it through, count hook).

    The first slot holds the defining object; the others are the names
    other modules imported, which the same wrapper replaces.
    """
    return [
        ("encoder.forward_batch", [(encoder, "forward_batch")], None),
        ("encoder.backward_batch", [(encoder, "backward_batch")], None),
        ("losses.loss_report", [(losses, "loss_report"), (trainer, "loss_report")],
         _count("trainer.steps", lambda a, r: 1)),
        ("losses.softmax_ce", [(losses, "softmax_ce")], None),
        ("losses.center_loss", [(losses, "center_loss")], None),
        ("losses.LabeledBatch", [(losses, "LabeledBatch"), (trainer, "LabeledBatch")], None),
        ("trainer.train", [(trainer, "train"), (cli, "train")], None),
        ("trainer.sgd_step", [(trainer, "sgd_step")], None),
        ("trainer.iterate_batches", [(trainer, "iterate_batches")], None),
        ("trainer.save_checkpoint", [(trainer, "save_checkpoint"), (cli, "save_checkpoint")],
         _count("trainer.checkpoint_bytes", lambda a, r: _file_size(a[1]))),
        ("trainer.load_checkpoint", [(trainer, "load_checkpoint"), (cli, "load_checkpoint")], None),
        ("trainer.history_to_csv", [(trainer, "history_to_csv"), (cli, "history_to_csv")], None),
        ("retrieval.pool_descriptors", [(retrieval, "pool_descriptors"), (trainer, "pool_descriptors"),
                                        (cli, "pool_descriptors")], None),
        ("vectors.mean_pool", [(retrieval, "mean_pool")], None),
        ("retrieval.rank", [(retrieval, "rank"), (trainer, "rank"), (cli, "rank")],
         _count("retrieval.rank.queries", lambda a, r: r.num_queries)),
        ("retrieval.evaluate_run", [(retrieval, "evaluate_run"), (trainer, "evaluate_run"),
                                    (cli, "evaluate_run")], None),
        ("retrieval.geometry_report", [(retrieval, "geometry_report"), (cli, "geometry_report")], None),
        ("data.generate", [(data, "generate"), (cli, "generate")], None),
        ("data.split", [(data, "split"), (cli, "split")], None),
        ("data.save_dataset", [(data, "save_dataset"), (cli, "save_dataset")],
         _count("data.save_dataset.bytes",
                lambda a, r: _file_size(a[1]) + _file_size(Path(a[1]).with_suffix(".json")))),
        ("data.load_dataset", [(data, "load_dataset"), (cli, "load_dataset")],
         _count("data.load_dataset.rows", lambda a, r: r.num_views)),
        ("data.Dataset.view_split_tags", [(data.Dataset, "view_split_tags")], None),
        ("config.RunConfig.from_sources", [(config.RunConfig, "from_sources")], None),
        *((f"cli.{c}", [(cli.COMMANDS, c)], None) for c in CliPipeline.COMMANDS),
    ]


def install_tracer() -> spans.Tracer:
    tracer = spans.Tracer()
    for name, slots, hook in trace_points():
        original = spans.lookup(*slots[0])
        fn = original.__func__ if isinstance(original, classmethod) else original
        wrapper = tracer.wrap(name, fn, hook)
        for owner, key in slots:
            tracer.install(owner, key, wrapper)
    for name in COUNTS:
        tracer.counts.setdefault(name, 0)
    return tracer


def untraced_faults() -> list[str]:
    """Slots that do not hold the library's own, unwrapped object."""
    faults = []
    for name, slots, _ in trace_points():
        objs = [spans.lookup(owner, key) for owner, key in slots]
        if any(spans.is_traced(o) for o in objs) or any(o is not objs[0] for o in objs):
            faults.append(name)
    return faults


def layer_metrics(tracer: spans.Tracer, passes: int) -> dict:
    """Per-pass span calls and self time, plus the named counts."""
    out = {}
    for name, (calls, self_s, _) in tracer.stats.items():
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
    for name, unit in COUNTS.items():
        out[name] = (tracer.counts[name] / passes, unit)
    steps = tracer.counts["trainer.steps"]
    out["trainer.step_us"] = (1e6 * tracer.stats["trainer.train"][2] / steps if steps else 0.0, "us")
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def blas_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))  # already loaded by numpy: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    return {"blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": threads, "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_map(name: str, tally: Tally):
    """MAP of one untimed pass of workload ``name`` on REFERENCE_SEED."""
    workload = WORKLOADS[name](REFERENCE_SEED, tally)
    workload.steps = StepLog(calibrate=False)
    try:
        workload.setup()
        workload.check(workload.run_pass())
    finally:
        workload.close()
    return workload.map_mean


def measure(workload, seconds: float, tracer: spans.Tracer | None) -> tuple[list[float], float]:
    """Time whole passes within ``seconds`` (but at least MIN_PASSES).

    A pass starts only if one more pass of the last one's length still ends
    within ``seconds``, so a run takes about ``seconds`` whatever the pass
    length.  Returns the pass times (the sum of their steps, without the
    reference loops) and the peak RSS before the first output check, which
    may itself allocate more than a pass does.
    """
    walls = []
    rss = None
    last = 0.0
    end = time.monotonic() + seconds
    while len(walls) < MIN_PASSES or time.monotonic() + last <= end:
        t0 = time.perf_counter()
        before = workload.steps.total
        output = workload.run_pass()
        walls.append(workload.steps.total - before)
        last = time.perf_counter() - t0
        rss = rss or peak_rss_mb()
        with tracer.suspended() if tracer is not None else contextlib.nullcontext():
            workload.check(output)
        del output
    return walls, rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if not Path(cipbench.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"cipbench was imported from {cipbench.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, tally)
    try:
        workload.setup()
        setup_s = time.monotonic() - args.spawned_at
        report = {"setup_s": setup_s}
        if args.mode != "setup":
            tracer = None
            if args.mode == "traced":
                for what, ok in spans.self_test():
                    tally.check(what, ok)
                tracer = install_tracer()
            else:
                faults = untraced_faults()
                tally.check("untraced run calls the original functions", not faults, ", ".join(faults))
            try:
                walls, rss = measure(workload, args.seconds, tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
            if tracer is not None:
                tally.check("trace wrappers removed", tracer.originals_restored() and not untraced_faults())
                report["layers"] = layer_metrics(tracer, len(walls))
            report.update(
                walls=walls,
                pass_norm=workload.steps.pass_norm(len(walls)),
                stages={**workload.stages, **workload.steps.times,
                        "reference_loop_s": [r for refs in workload.steps.refs.values() for r in refs]},
                map_mean=workload.map_mean,
                peak_rss_mb=rss,
            )
    finally:
        workload.close()
    if args.mode == "untraced":
        ok, ref = tally.attempt(f"reference pass on seed {REFERENCE_SEED}", reference_map,
                                args.workload, tally)
        report["ref_map"] = ref if ok else None
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        notes=tally.notes[:20],
        env=environment(),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
