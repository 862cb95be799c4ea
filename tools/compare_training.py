"""Check that two source trees train bit-identical models.

Trains one grid of configurations with the ``cipbench`` package under each
given ``src`` directory, each in its own interpreter, and compares the runs
one by one: the bytes of the encoder, classifier and centerlines and the
epoch history of a finished run; the signal, epoch, history and last
healthy snapshot of a diverged one.  Exits 1 when any run differs.

    python3 tools/compare_training.py OLD_CHECKOUT/src NEW_CHECKOUT/src

The grid is 4 seeds x 6 loss mixes x 3 optimizer settings on the standard
10-class benchmark: the criterion-4 mixes plus pull-only and push-only
(which trip the collapse and stall detectors), each at zero momentum (with
evaluation every 10 epochs), at momentum 0.5 with a pinned centerline rate,
and at momentum 0.9 (which blows up).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys

SEEDS = (0, 1, 2, 3)
LOSSES = {
    "cip+softmax": {},
    "softmax": {"softmax_weight": 1.0},
    "cip": {},
    "center+softmax": {"softmax_weight": 1.0, "center_weight": 0.003},
    "cluster": {},
    "ortho": {},
}
OPTIMIZERS = {
    "plain": {"eval_every": 10},
    "momentum0.5+centerline_lr": {"momentum": 0.5, "centerline_lr": 0.02},
    "momentum0.9": {"momentum": 0.9},
}


def _digest(result) -> str:
    h = hashlib.sha256()
    for arr in (*result.params.weights, *result.params.biases, result.bank.centers):
        h.update(arr.tobytes())
    if result.classifier is not None:
        h.update(result.classifier.weights.tobytes())
        h.update(result.classifier.bias.tobytes())
    h.update(repr(result.history).encode())
    return h.hexdigest()


def run_grid(src: str) -> dict:
    sys.path.insert(0, src)
    from cipbench.data import SyntheticSpec, generate, split
    from cipbench.losses import LossConfig
    from cipbench.trainer import DivergenceError, TrainConfig, train

    runs = {}
    for seed in SEEDS:
        spec = SyntheticSpec(num_classes=10, objects_per_class=24, views_per_object=8,
                             input_dim=24, class_separation=2.0, object_noise_std=0.7,
                             view_noise_std=0.35, seed=seed)
        dataset = split(generate(spec), 0.5, seed)
        for loss, loss_kw in LOSSES.items():
            for opt, opt_kw in OPTIMIZERS.items():
                cfg = TrainConfig(batch_size=50, epochs=30, seed=seed, hidden_dims=(32,),
                                  embedding_dim=16, init_std=0.3,
                                  loss=LossConfig.from_name(loss, **loss_kw), **opt_kw)
                try:
                    outcome = {"outcome": "trained", "result": _digest(train(dataset, cfg))}
                except DivergenceError as e:
                    outcome = {"outcome": e.signal, "epoch": e.epoch, "message": str(e),
                               "history": repr(e.history), "last_good": _digest(e.last_good)}
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
