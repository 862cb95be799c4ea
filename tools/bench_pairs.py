"""Run one benchmark workload on two commits in alternated pairs and record the result.

    python3 tools/bench_pairs.py PARENT CHANGE --workload train-grid [--pairs 10]

Each commit is extracted with ``git archive`` into its own temporary
directory, and ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` runs in each tree in turn, with ``T`` the ``run_seconds`` of
``BENCHMARK.json``.  Pair i (from 0) uses seed ``i + 1`` on both sides; the
parent runs first in even pairs and the change first in odd ones, so a
drift in machine load falls on both sides alike.

One record is appended to ``BENCH_<workload>.json``, a JSON list at the
root of the repository that holds this script, so the file keeps every
measured change in order.  A record holds both commits, the seeds, the
pair count, every run's end-to-end metrics and operation counts, and for
each end-to-end metric of ``BENCHMARK.json``: the median and quartiles of
each side and the number of pairs the change wins (ties count for neither
side).  Quartiles are ``statistics.quantiles(values, n=4)``, as in
``bench/baseline.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from run import deadline_s  # noqa: E402

SIDES = ("parent", "change")


def extract(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` into ``dest``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not extract {rev} ({sha}) into {dest}")
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its metric values and operation counts."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=deadline_s(seconds) + 10)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with code {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in out["metrics"].items()},
            "attempted": out["attempted"], "failed": out["failed"]}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles over the pairs,
    and the number of pairs in which the change is better.  Each pair is
    ``{"parent": run, "change": run}`` with ``run_bench``'s runs;
    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics."""
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [(pair["parent"]["metrics"][name], pair["change"]["metrics"][name]) for pair in pairs]
        row = {"unit": metric["unit"], "better": metric["better"]}
        for side, side_values in zip(SIDES, zip(*values)):
            q1, median, q3 = statistics.quantiles(side_values, n=4)
            row[side] = {"median": median, "q1": q1, "q3": q3}
        row["change_wins"] = sum((c < p) if lower else (c > p) for p, c in values)
        summary[name] = row
    for side in SIDES:
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        failed = sum(pair[side]["failed"] for pair in pairs)
        summary[f"failed_share.{side}"] = failed / attempted if attempted else 1.0
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit the change is measured against")
    parser.add_argument("change", help="the commit under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    with tempfile.TemporaryDirectory() as work:
        trees = {side: Path(work) / side for side in SIDES}
        commits = {side: extract(getattr(args, side), trees[side]) for side in SIDES}
        pairs = []
        for i in range(args.pairs):
            seed = i + 1
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], args.workload, seed, seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} pass_norm {pair[side]['metrics'].get('pass_norm', float('nan')):.4g}"
                for side in SIDES), file=sys.stderr)

    record = {"workload": args.workload, **{f"{side}_commit": commits[side] for side in SIDES},
              "seconds": seconds, "pairs": args.pairs, "seeds": [p["seed"] for p in pairs],
              "summary": summarize(pairs, benchmark["end_to_end"]), "runs": pairs}
    path = ROOT / f"BENCH_{args.workload}.json"
    trajectory = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps([*trajectory, record], indent=1) + "\n")
    print(f"appended a record to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
