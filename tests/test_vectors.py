import importlib
import io
import math
import os
import re
import signal
from pathlib import Path

import pytest

from cipbench import vectors
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
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
def test_a_non_finite_float_field_is_refused_by_its_key(cls, name, key, value):
    # as the CLI refuses it on parsing: a config error, not a run that
    # diverges (lr0 = inf) or drops a check (a nan collapse cosine)
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
        cls(**{name: value})


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
