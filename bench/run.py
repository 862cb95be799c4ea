"""Run one cipbench benchmark workload and print its metrics.

    python3 bench/run.py --workload train-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a cipbench source checkout: the library is imported
from ``src/`` there.  Each measurement happens in a fresh child process
(``bench/workloads.py``) with BLAS pinned to one thread.  With ``--trace 0``
the workload's set-up runs in several processes (``setup_s`` is the
median) and one process times whole passes for ``--seconds``, then runs
one pass on a fixed reference seed (``ref_map``); the output metrics are
the end-to-end ones.  With ``--trace 1`` one process times the
library as it is and a second times it with span wrappers installed, half
of ``--seconds`` each; the output metrics are the per-layer ones plus the
traced/untraced ratio of ``pass_norm``.

Lines starting with ``#`` describe the run for people (environment, stage
timings with sample counts, error rate); the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 whenever that line is printed, even if a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-grid", "eval-large", "cli-pipeline")
# Set-ups measured per run: set-up-only processes, half of them before the
# timed one and half after, so the median is taken over two spells.
SETUP_SAMPLES = 9
SETUP_ALLOWANCE_S = 140.0  # time for set-ups and the reference pass beyond --seconds
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class ChildFailed(RuntimeError):
    pass


def deadline_s(seconds: float) -> float:
    """Time from start by which every child of one run must have ended."""
    return seconds + SETUP_ALLOWANCE_S


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(root: Path, args, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode} process of {args.workload} ran past the deadline") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process of {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples: list[float]):
    """(percentile, value): the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]
    return None


def timing(samples: list[float]) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples)}
    high = tail(samples)
    if high is not None:
        out[f"p{high[0]:g}"] = high[1]
    return out


def stage_summary(child: dict) -> dict:
    """The workload's own end-to-end stage figures, from an untraced child."""
    stages = child["stages"]
    out = {"wall_s": timing(child["walls"])}
    if "train_run_s" in stages and stages["train_run_s"]:
        out["train_run_s"] = timing(stages["train_run_s"])
        out["train_samples_per_s"] = stages["train_samples"] / stages["train_time_s"]
    if child["map_mean"] is not None:
        out["map_mean"] = child["map_mean"]
    if stages.get("eval_s"):
        out["eval_queries_per_s"] = stages["queries"] / sum(stages["eval_s"])
    for name, samples in stages.items():
        if isinstance(samples, list) and samples and name not in out:
            out[name] = timing(samples)
    return out


def git_commit(root: Path):
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one cipbench benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cipbench" / "__init__.py").is_file():
        print(f"error: {root} is not a cipbench checkout (no src/cipbench)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + deadline_s(args.seconds)
    load_before = os.getloadavg()

    children = []
    try:
        if args.trace:
            untraced = run_child(root, args, "untraced", args.seconds / 2, deadline)
            traced = run_child(root, args, "traced", args.seconds / 2, deadline)
            children = [untraced, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = (traced["pass_norm"] / untraced["pass_norm"], "ratio")
        else:
            setups = [run_child(root, args, "setup", 0, deadline) for _ in range(SETUP_SAMPLES // 2)]
            untraced = run_child(root, args, "untraced", args.seconds, deadline)
            setups += [run_child(root, args, "setup", 0, deadline)
                       for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
            children = [*setups, untraced]
            metrics = {
                "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
                "pass_norm": (untraced["pass_norm"], "ref_loops"),
                "peak_rss_mb": (untraced["peak_rss_mb"], "MB"),
                "ref_map": (untraced["ref_map"] or 0.0, "score"),
            }
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(root), "src_digest": source_digest(root),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        **untraced["env"],
    }
    print("# env " + json.dumps(env))
    print("# stages " + json.dumps(stage_summary(untraced)))
    print(f"# error_rate {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted} failed)")
    for child in children:
        for note in child["notes"]:
            print(f"# failed: {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
