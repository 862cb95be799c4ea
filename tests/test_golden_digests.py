"""Same seed, same bits: training runs hash to the digests in ``golden_digests.json``.

Every loss mix and optimizer setting of ``tools/compare_training.py``
(imported as it is, with ``tools/`` on the import path) is trained at
seed 0 on the standard benchmark.  A finished run hashes its ``theta``
bytes and ``repr`` of its history; a diverged run hashes its signal,
epoch, history and the ``theta`` bytes of its last healthy snapshot.  A
refactor that changes one bit of any run fails here with the run's name.

Running this module as a script rewrites the golden file from the code in
the tree:

    PYTHONPATH=src python3 tests/test_golden_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))

from compare_training import LOSSES, OPTIMIZERS  # noqa: E402

from cipbench.data import SyntheticSpec, generate, split  # noqa: E402
from cipbench.losses import LossConfig  # noqa: E402
from cipbench.trainer import DivergenceError, TrainConfig, train  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 0


def run_digests() -> dict[str, dict]:
    dataset = split(generate(SyntheticSpec(seed=SEED)), 0.5, SEED)
    runs = {}
    for loss, loss_kw in LOSSES.items():
        for opt, opt_kw in OPTIMIZERS.items():
            cfg = TrainConfig(seed=SEED, loss=LossConfig.from_name(loss, **loss_kw), **opt_kw)
            try:
                result = train(dataset, cfg)
                h = hashlib.sha256(result.theta.tobytes())
                h.update(repr(result.history).encode())
                runs[f"loss={loss} {opt}"] = {"outcome": "trained", "digest": h.hexdigest()}
            except DivergenceError as e:
                h = hashlib.sha256(f"{e.signal} {e.epoch}".encode())
                h.update(repr(e.history).encode())
                h.update(e.last_good.theta.tobytes())
                runs[f"loss={loss} {opt}"] = {"outcome": e.signal, "digest": h.hexdigest()}
    return runs


def test_training_runs_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    runs = run_digests()
    differ = sorted(name for name in golden.keys() | runs.keys() if golden.get(name) != runs.get(name))
    assert differ == [], f"runs differ from {GOLDEN.name}: {differ}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
