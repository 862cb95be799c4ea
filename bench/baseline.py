"""Run every workload on several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Run it from the root of a cipbench source checkout.  Every run measures for
``run_seconds`` from ``BENCHMARK.json``.  For each seed it runs
``bench/run.py`` once per workload with ``--trace 0`` (workloads
interleaved, so a slow spell of the machine spreads over all of them),
then one ``--trace 1`` run per workload on the first seed.  For each
end-to-end metric it records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, and prints a table of
the spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, deadline_s  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=deadline_s(seconds) + 10)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    for line in lines:
        for key in ("env", "stages"):
            if line.startswith(f"# {key} "):
                out[key] = json.loads(line[len(f"# {key} "):])
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record benchmark medians and spreads.")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            result = run_once(w, seed, seconds, 0)
            runs[w].append(result)
            print(f"{w} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    record = {"seeds": seeds, "seconds": seconds, "env": runs[WORKLOADS[0]][0]["env"],
              "workloads": {}}
    for w in WORKLOADS:
        names = runs[w][0]["metrics"]
        entry = {
            "correct": all(r["correct"] for r in runs[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "metrics": {m: summarize([r["metrics"][m]["value"] for r in runs[w]]) for m in names},
            "stages": [r["stages"] for r in runs[w]],
        }
        traced = run_once(w, seeds[0], seconds, 1)
        entry["layers"] = {m: v["value"] for m, v in traced["metrics"].items()}
        entry["layers_correct"] = traced["correct"]
        record["workloads"][w] = entry

    print(f"{'workload':14} {'metric':12} {'median':>10} {'spread':>8}")
    for w, entry in record["workloads"].items():
        for m, s in entry["metrics"].items():
            print(f"{w:14} {m:12} {s['median']:10.4g} {s['spread']:8.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
