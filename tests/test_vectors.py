import importlib
import io
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cipbench import retrieval, vectors
from cipbench.data import SyntheticSpec
from cipbench.losses import LossConfig
from cipbench.trainer import TrainConfig

SRC = Path(vectors.__file__).parent


def test_vectors_is_the_one_module_that_starts_threads_and_processes():
    # a second fan-out, say for training runs, goes through vectors' helpers
    for pattern in (r"os\.fork\b", r"threading\.Thread\b", r"sched_getaffinity", r"^_WORKERS ="):
        found = sorted(path.name for path in SRC.glob("*.py") if re.search(pattern, path.read_text(), re.M))
        assert found == ["vectors.py"], pattern


def test_every_name_in_an_all_resolves():
    # a name deleted from a module but left in its __all__ breaks
    # ``from cipbench.<module> import *``; the package itself has no __all__
    for stem in sorted(path.stem for path in SRC.glob("*.py")):
        name = "cipbench" if stem == "__init__" else f"cipbench.{stem}"
        module = importlib.import_module(name)
        names = getattr(module, "__all__", None)
        assert names is not None or name == "cipbench", name
        assert [n for n in names or () if not hasattr(module, n)] == [], name


@pytest.mark.parametrize("cls, name, key", [
    (SyntheticSpec, "view_noise_std", "view_noise_std"), (LossConfig, "lam", "lambda"),
    (TrainConfig, "lr0", "lr0"), (TrainConfig, "centerline_collapse_cosine", "centerline_collapse_cosine"),
], ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "10**400"])
def test_a_non_finite_float_field_is_refused_by_its_key(cls, name, key, value):
    # as the CLI refuses it on parsing: a config error, not a run that
    # diverges (lr0 = inf) or drops a check (a nan collapse cosine), and
    # not an int past the float range that train fails to convert
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, value, rule", [
    (TrainConfig, "hidden_dims", (8.7,), "integers"), (TrainConfig, "hidden_dims", (math.inf,), "integers"),
    (TrainConfig, "batch_size", 2.5, "an integer"), (TrainConfig, "epochs", 2.5, "an integer"),
    (TrainConfig, "embedding_dim", 4.5, "an integer"), (SyntheticSpec, "objects_per_class", 4.5, "an integer"),
    (SyntheticSpec, "num_classes", 3.0, "an integer"), (SyntheticSpec, "seed", 1.5, "an integer"),
    # a string or a bool where a number belongs, and a loss that is no
    # LossConfig: the type rule speaks before any range rule compares it
    (TrainConfig, "batch_size", "5", "an integer"), (TrainConfig, "batch_size", True, "an integer"),
    (TrainConfig, "hidden_dims", ("8",), "integers"), (SyntheticSpec, "num_classes", True, "an integer"),
    (LossConfig, "lam", "1", "a number"), (LossConfig, "lam", True, "a number"),
    (SyntheticSpec, "class_separation", "2", "a number"), (TrainConfig, "loss", "cip", "a LossConfig"),
    # a width that is no sequence, and a flag that is no bool ("no" is truthy)
    (TrainConfig, "hidden_dims", 8, "integers"), (LossConfig, "use_cluster", "no", "a bool"),
    (LossConfig, "use_ortho", 1, "a bool"),
], ids=lambda v: getattr(v, "__name__", v if isinstance(v, str) else repr(v)))
def test_a_value_that_is_not_an_integer_is_refused_by_its_key(cls, name, value, rule):
    # unchecked, a fractional width would train truncated, and a fractional
    # count or seed would fail inside train or generate, naming no key
    key = vectors.KEY_OF_FIELD.get(name, name)
    with pytest.raises(ValueError, match=f"^{key} must be {rule}, got {re.escape(repr(value))}$"):
        cls(**{name: value})


def test_python_and_numpy_ints_are_integers():
    cfg = TrainConfig(batch_size=np.int32(5), epochs=np.int64(2), hidden_dims=(np.int64(8), 4))
    assert cfg.hidden_dims == (8, 4) and all(type(h) is int for h in cfg.hidden_dims)
    assert SyntheticSpec(num_classes=np.uint8(3), seed=np.int64(1)).num_classes == 3
    assert TrainConfig(hidden_dims=[8, 4]).hidden_dims == (8, 4)
    assert LossConfig(use_cluster=np.bool_(False)).use_ortho


class _FakeBlas:
    """A (get, set) thread-count pair in place of OpenBLAS's; ``set_to``
    records every count set."""

    def __init__(self, threads):
        self.threads, self.set_to = threads, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads
        self.set_to.append(threads)


def test_rank_holds_blas_at_one_thread_and_gives_the_callers_count_back(monkeypatch):
    blas = _FakeBlas(3)
    monkeypatch.setattr(vectors, "_BLAS", (blas.get, blas.set))
    seen = []

    def spy(*args):  # rank's blocks, run with the count they see
        seen.append(blas.threads)
        vectors.share_blocks(*args)

    monkeypatch.setattr(retrieval, "share_blocks", spy)
    rng = np.random.default_rng(0)
    descriptors, labels = rng.normal(size=(100, 4)), rng.integers(1, 4, 100)
    retrieval.rank(descriptors, labels)
    assert seen == [1] and blas.threads == 3

    def fail(*args):
        raise RuntimeError("a block failed")

    monkeypatch.setattr(retrieval, "share_blocks", fail)
    with pytest.raises(RuntimeError, match="a block failed"):
        retrieval.rank(descriptors, labels)
    assert blas.set_to == [1, 3, 1, 3]


def test_one_blas_thread_sets_the_bundled_openblas_and_gives_its_count_back(monkeypatch):
    monkeypatch.setattr(vectors, "_BLAS", None)  # looked up afresh, on first use
    with vectors.one_blas_thread():
        pass
    if not vectors._BLAS:
        pytest.skip("numpy bundles no OpenBLAS with the thread-count symbols")
    get, set_ = vectors._BLAS
    callers = get()
    try:
        set_(2)
        with vectors.one_blas_thread():
            inside = get()
        assert (inside, get()) == (1, 2)
    finally:
        set_(callers)


def test_one_blas_thread_without_the_symbols_is_a_no_op(monkeypatch):
    monkeypatch.setattr(vectors, "_BLAS_SYMBOLS", ("no_such_get", "no_such_set"))
    monkeypatch.setattr(vectors, "_BLAS", None)
    run = retrieval.rank(np.eye(3), np.array([1, 1, 2]))  # ranks as before
    assert vectors._BLAS == () and run.rankings.tolist() == [[1, 2], [0, 2], [0, 1]]


# hashes ``rank``'s outputs at Q = 1500, past the thread threshold, and the
# ``theta`` of a 2-epoch ``train``
_BLAS_SCRIPT = """
import hashlib
import numpy as np
from cipbench.data import SyntheticSpec, generate, split
from cipbench.retrieval import rank
from cipbench.trainer import TrainConfig, train
rng = np.random.default_rng(3)
run = rank(rng.normal(size=(1500, 32)), rng.integers(1, 41, size=1500))
data = split(generate(SyntheticSpec(num_classes=4, objects_per_class=8)), 0.5, 0)
theta = train(data, TrainConfig(epochs=2)).theta
for array in (run.rankings, run.relevance, theta):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_the_blas_thread_count_changes_no_bit():
    # the bits of rank and train must not depend on how many threads
    # OpenBLAS runs a product on; one child runs on one, the other on a pool
    one, pool = (subprocess.run(
        [sys.executable, "-c", _BLAS_SCRIPT], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent), "OPENBLAS_NUM_THREADS": str(threads)}).stdout
        for threads in (1, max(2, vectors._WORKERS)))
    assert len(one.split()) == 3 and one == pool


def _payload(share: int) -> bytes:
    """More than 1 MiB of binary data, different for each share."""
    return share.to_bytes(8, "little") * ((1 << 17) + 3 + share) + bytes(range(256))


def _body(share, fd):
    """Send ``_payload(share)``; share 2 then raises, and share 4 is killed."""
    with open(fd, "wb") as out:
        out.write(_payload(share))
    if share == 2:
        raise RuntimeError("worker failed")
    if share == 4:
        os.kill(os.getpid(), signal.SIGKILL)


def test_forked_workers_stream_binary_shares_in_order_and_report_failures(monkeypatch):
    monkeypatch.setattr(vectors, "_WORKERS", 4)
    got = []
    with vectors.forked([0, 1, 2, 3, 4], _body) as handles:
        assert len(handles) == 4  # the caller's first share is not forked
        for handle in handles:
            out = io.BytesIO()
            got.append((handle.copy_to(out), out.getvalue()))
    assert got == [(True, _payload(1)), (False, _payload(2)), (True, _payload(3)), (False, _payload(4))]
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_one_usable_cpu_forks_nothing(monkeypatch):
    monkeypatch.setattr(vectors, "_WORKERS", 1)
    with vectors.forked([0, 1, 2], _body) as handles:
        assert handles == []
