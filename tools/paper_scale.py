"""Time and size leave-one-out retrieval at the paper's test size, per source tree.

    python3 tools/paper_scale.py OLD_CHECKOUT/src NEW_CHECKOUT/src [--queries 10265]

Each ``src`` directory runs in its own interpreter, one after the other, on
the same seeded descriptors: ``--queries`` random 32-d points around 55
random class centres (ShapeNetCore55's class count; 10265 is the test size
the paper reports), with labels cycling through the classes.  A tree ranks
them once cold and three times warm, then scores the last ranking with
``evaluate_run``; only one ranking is alive at a time.  One line per tree
gives the warm ``rank`` times and their best, the ``evaluate_run`` time,
the size of ``rankings``, the process's peak resident set
(``ru_maxrss``) and the micro MAP.  The header line names the BLAS setting
every tree inherits: ``OPENBLAS_NUM_THREADS=<n>`` when that variable is
set, else ``default pool`` (OpenBLAS's one thread per CPU).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

DIM = 32
CLASSES = 55
WARM_CALLS = 3


def measure(src: str, queries: int) -> dict:
    sys.path.insert(0, src)
    import numpy as np

    from cipbench.retrieval import evaluate_run, rank

    rng = np.random.default_rng(0)
    labels = np.arange(queries) % CLASSES
    descriptors = rng.standard_normal((CLASSES, DIM))[labels] + rng.standard_normal((queries, DIM))
    run = rank(descriptors, labels)  # cold
    warm = []
    for _ in range(WARM_CALLS):
        run = None  # so two rankings are never alive at once
        start = time.perf_counter()
        run = rank(descriptors, labels)
        warm.append(time.perf_counter() - start)
    start = time.perf_counter()
    summary = evaluate_run(run)
    evaluate_s = time.perf_counter() - start
    return {"rank_s": warm, "evaluate_s": evaluate_s, "rankings_mib": run.rankings.nbytes / 2**20,
            "ru_maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "micro_map": summary.micro.map}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", help="the src directories to measure")
    parser.add_argument("--queries", type=int, default=10265, help="descriptors to rank (default 10265)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.queries < 2:
        parser.error("--queries must be at least 2")
    if args.worker:
        print(json.dumps(measure(args.worker, args.queries)))
        return 0
    if not args.src:
        parser.error("give at least one src directory")
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    blas = f"OPENBLAS_NUM_THREADS={threads}" if threads else "default pool"
    print(f"Q={args.queries}, {DIM}-d, {CLASSES} classes, {blas}")
    for src in args.src:
        out = subprocess.run([sys.executable, __file__, "--worker", src, "--queries", str(args.queries)],
                             check=True, capture_output=True, text=True).stdout
        m = json.loads(out)
        warm = "/".join(f"{s:.3f}" for s in m["rank_s"])
        print(f"{src}: rank {warm} s (best {min(m['rank_s']):.3f}), "
              f"evaluate_run {m['evaluate_s']:.3f} s, rankings {m['rankings_mib']:.2f} MiB, "
              f"ru_maxrss {m['ru_maxrss_mib']:.0f} MiB, micro MAP {m['micro_map']:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
