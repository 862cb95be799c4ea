"""Check that two source trees train bit-identical models.

Trains one grid of configurations with the ``cipbench`` package under each
given ``src`` directory, each in its own interpreter, and compares the runs
one by one: the bytes of ``theta`` (the encoder, classifier and
centerlines, whose views share that one buffer) and the epoch history of
a finished run; the signal, epoch, history and last healthy state of a
diverged one.  Each finished run and each last healthy state is also
saved as a checkpoint and loaded back, and the loaded ``theta`` bytes are
compared too.  Exits 1 when any run differs.

    python3 tools/compare_training.py OLD_CHECKOUT/src NEW_CHECKOUT/src

The grid is 4 seeds x 9 loss mixes x 3 optimizer settings on the standard
10-class benchmark (108 runs): the criterion-4 mixes, pull-only and
push-only (which trip the collapse and stall detectors), the batch push
variant, center loss alone and pull with center loss, each at zero
momentum (with evaluation every 10 epochs), at momentum 0.5, and at
momentum 0.9 (which blows up).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1, 2, 3)
# case name -> (combination name, LossConfig overrides)
LOSSES = {
    "cip+softmax": ("cip+softmax", {}),
    "softmax": ("softmax", {"softmax_weight": 1.0}),
    "cip": ("cip", {}),
    "center+softmax": ("center+softmax", {"softmax_weight": 1.0, "center_weight": 0.003}),
    "cluster": ("cluster", {}),
    "ortho": ("ortho", {}),
    "cip ortho_variant=batch lam=0.01": ("cip", {"ortho_variant": "batch", "lam": 0.01}),
    "center": ("center", {}),
    "cluster+center": ("cluster+center", {}),
}
OPTIMIZERS = {
    "plain": {"eval_every": 10},
    "momentum0.5": {"momentum": 0.5},
    "momentum0.9": {"momentum": 0.9},
}


def _digest(result, loaded) -> str:
    """Hash of a run's ``theta`` and history, then of the ``theta`` of
    ``loaded``, the run saved as a checkpoint and loaded back.  ``theta`` is
    the one buffer that the encoder, classifier and centerline views share."""
    h = hashlib.sha256(result.theta.tobytes())
    h.update(repr(result.history).encode())
    h.update(loaded.theta.tobytes())
    return h.hexdigest()


def run_grid(src: str) -> dict:
    sys.path.insert(0, src)
    from cipbench.data import SyntheticSpec, generate, split
    from cipbench.losses import LossConfig
    from cipbench.trainer import (
        DivergenceError, TrainConfig, load_checkpoint, save_checkpoint, train,
    )

    runs = {}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "checkpoint.json"

        def digest(result) -> str:
            save_checkpoint(result, path)
            return _digest(result, load_checkpoint(path))

        for seed in SEEDS:
            dataset = split(generate(SyntheticSpec(seed=seed)), 0.5, seed)
            for loss, (name, loss_kw) in LOSSES.items():
                for opt, opt_kw in OPTIMIZERS.items():
                    # loss stays explicit: an older tree's TrainConfig() trains cip alone
                    cfg = TrainConfig(seed=seed, loss=LossConfig.from_name(name, **loss_kw), **opt_kw)
                    try:
                        outcome = {"outcome": "trained", "result": digest(train(dataset, cfg))}
                    except DivergenceError as e:
                        outcome = {"outcome": e.signal, "epoch": e.epoch, "message": str(e),
                                   "history": repr(e.history), "last_good": digest(e.last_good)}
                    runs[f"seed={seed} loss={loss} {opt}"] = outcome
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", help="the two src directories to compare")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(run_grid(args.worker)))
        return 0
    if len(args.src) != 2:
        parser.error("give exactly two src directories")
    grids = [
        json.loads(subprocess.run([sys.executable, __file__, "--worker", src],
                                  check=True, capture_output=True, text=True).stdout)
        for src in args.src
    ]
    differ = [key for key in grids[0] if grids[0][key] != grids[1].get(key)]
    diverged = sum(run["outcome"] != "trained" for run in grids[0].values())
    for key in differ:
        print(f"DIFFERS {key}: {grids[0][key]} != {grids[1].get(key)}")
    print(f"{len(grids[0])} runs ({diverged} diverged): "
          f"{len(grids[0]) - len(differ)} identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
