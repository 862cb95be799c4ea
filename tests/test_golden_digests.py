"""Same seed, same bits: training runs and retrieval outputs hash to the
digests in ``golden_digests.json``.

Training: every loss mix and optimizer setting of
``tools/compare_training.py`` (imported as it is, with ``tools/`` on the
import path) is trained at seed 0 on the standard benchmark, and so is the
run of ``demos/train_six_classes.py`` (6 antipodal classes, a 3-D linear
embedding, batch 20), whose small widths reach BLAS shapes the grid does
not.  A finished run hashes its ``theta`` bytes and ``repr`` of its
history; a diverged run hashes its signal, epoch, history and the
``theta`` bytes of its last healthy snapshot.

Retrieval: for seeds 0, 1 and 9, a ``cip+softmax`` model trained on the
standard benchmark embeds a 384-objects-per-class set drawn with the same
seed, whose pooled descriptors are ranked (Q = 3840; seed 9 holds a tie in
every row).  Each case hashes the ``rankings`` and ``relevance`` bytes and
``repr`` of the ``evaluate_run`` and ``geometry_report`` dicts.  Seed 0 is
also scored with explicit F1 and NDCG cutoffs, and a small set with
zero-norm and duplicated descriptors covers the excluded-row path.  The
eval-large cases have 10 equal classes, so every block of query rows has
one count of relevant items; random descriptors in 40 shuffled classes of
1 to 89 objects (Q = 1683, so ``evaluate_run`` runs on threads) give each
block about 20 counts and three queries with no relevant item, scored with
and without cutoffs.

A refactor that changes one bit of any case fails here with the case's
name.  Running this module as a script rewrites the golden file from the
code in the tree:

    PYTHONPATH=src python3 tests/test_golden_digests.py
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))

from compare_training import LOSSES, OPTIMIZERS  # noqa: E402

from cipbench.data import SyntheticSpec, generate, split  # noqa: E402
from cipbench.encoder import forward_batch  # noqa: E402
from cipbench.losses import LossConfig  # noqa: E402
from cipbench.retrieval import evaluate_run, geometry_report, pool_descriptors, rank  # noqa: E402
from cipbench.trainer import DivergenceError, TrainConfig, train  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 0
RETRIEVAL_SEEDS = (0, 1, 9)
LARGE_OBJECTS_PER_CLASS = 384


# the dataset and schedule of demos/train_six_classes.py
SIX_CLASSES = SyntheticSpec(
    num_classes=6, objects_per_class=50, views_per_object=6, input_dim=3,
    class_separation=2.0, object_noise_std=0.2, view_noise_std=0.1,
    prototype_scheme="antipodal", seed=SEED,
)
SIX_CLASSES_CONFIG = TrainConfig(batch_size=20, seed=SEED, loss=LossConfig(), hidden_dims=(),
                                 embedding_dim=3, init_std=0.2)


def _training_digest(dataset, cfg: TrainConfig) -> dict[str, str]:
    try:
        result = train(dataset, cfg)
    except DivergenceError as e:
        h = hashlib.sha256(f"{e.signal} {e.epoch}".encode())
        h.update(repr(e.history).encode())
        h.update(e.last_good.theta.tobytes())
        return {"outcome": e.signal, "digest": h.hexdigest()}
    h = hashlib.sha256(result.theta.tobytes())
    h.update(repr(result.history).encode())
    return {"outcome": "trained", "digest": h.hexdigest()}


def training_digests() -> dict[str, dict]:
    dataset = split(generate(SyntheticSpec(seed=SEED)), 0.5, SEED)
    runs = {
        f"loss={loss} {opt}": _training_digest(dataset, TrainConfig(
            seed=SEED, loss=LossConfig.from_name(name, **loss_kw), **opt_kw))
        for loss, (name, loss_kw) in LOSSES.items() for opt, opt_kw in OPTIMIZERS.items()
    }
    runs["demos/train_six_classes.py"] = _training_digest(generate(SIX_CLASSES), SIX_CLASSES_CONFIG)
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(run, **cutoffs) -> dict[str, str]:
    return {"rankings": _sha(run.rankings.tobytes()), "relevance": _sha(run.relevance.tobytes()),
            "metrics": _sha(repr(evaluate_run(run, **cutoffs).to_dict()).encode())}


def retrieval_digests() -> dict[str, dict]:
    cases = {}
    for seed in RETRIEVAL_SEEDS:
        dataset = split(generate(SyntheticSpec(seed=seed)), 0.5, seed)
        model = train(dataset, TrainConfig(seed=seed, loss=LossConfig.from_name("cip+softmax")))
        large = generate(SyntheticSpec(seed=seed, objects_per_class=LARGE_OBJECTS_PER_CLASS))
        feats, _ = forward_batch(model.params, large.inputs)
        descs, labels, _ = pool_descriptors(feats, large.object_ids, large.labels)
        run = rank(descs, labels)
        geometry = geometry_report(feats, large.labels, model.bank)
        cases[f"eval-large seed={seed}"] = {
            **_run_digests(run), "geometry": _sha(repr(geometry.to_dict()).encode())}
        if seed == 0:
            cases["eval-large seed=0 f1_cutoff=10 ndcg_cutoff=100"] = _run_digests(
                run, f1_cutoff=10, ndcg_cutoff=100)
    # zero-norm rows on both sides of a 64-row block edge, and duplicates
    rng = np.random.default_rng(SEED)
    descs = rng.standard_normal((150, 6))
    descs[55:75] = descs[20]
    descs[[5, 62, 66, 149]] = 0.0
    labels = rng.integers(1, 6, 150)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases["zero-norm rows"] = _run_digests(rank(descs, labels))
    # 40 shuffled classes, three of them singletons
    sizes = np.concatenate([[1, 1, 1], rng.integers(2, 90, 37)])
    labels = rng.permutation(np.repeat(np.arange(1, 41), sizes))
    centers = rng.standard_normal((40, 8))
    run = rank(centers[labels - 1] + 1.2 * rng.standard_normal((labels.size, 8)), labels)
    cases["40 unequal classes"] = _run_digests(run)
    cases["40 unequal classes f1_cutoff=10 ndcg_cutoff=100"] = _run_digests(
        run, f1_cutoff=10, ndcg_cutoff=100)
    return cases


def test_training_runs_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())["training"]
    runs = training_digests()
    differ = sorted(name for name in golden.keys() | runs.keys() if golden.get(name) != runs.get(name))
    assert differ == [], f"runs differ from {GOLDEN.name}: {differ}"


def test_retrieval_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())["retrieval"]
    cases = retrieval_digests()
    differ = sorted(f"{name}: {part}" for name in golden.keys() | cases.keys()
                    for part in golden.get(name, {}).keys() | cases.get(name, {}).keys()
                    if golden.get(name, {}).get(part) != cases.get(name, {}).get(part))
    assert differ == [], f"retrieval outputs differ from {GOLDEN.name}: {differ}"


if __name__ == "__main__":
    digests = {"training": training_digests(), "retrieval": retrieval_digests()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
