"""Check that two source trees write the same files and print the same text.

Runs a fixed set of ``cipbench`` commands and every demo with the package
under each given ``src`` directory, each tree in its own interpreter and
its own work directory, and compares every file written and every
command's printed output (stdout, stderr and exit code).  Python
warnings are silenced, because they print each tree's own file paths and
line numbers.  One verdict per file:

* ``identical``: the same bytes;
* ``same values``: the same text apart from line ends and numbers, and
  every number parses to the same int or the same float64 bits (so
  ``0.1`` and ``0.10000000000000001`` are the same value);
* ``differ``: anything else, with the largest relative difference between
  the numbers at the same place, or the first text that differs, or, when
  the number of cells differs, up to three lines found only in each version
  (cut to 80 characters).

Exits 1 when any file differs.

    python3 tools/compare_outputs.py OLD_CHECKOUT/src NEW_CHECKOUT/src

The commands are ``generate``, ``train``, ``eval``, ``export`` and
``export --pooled`` on one 96-objects-per-class dataset trained for two
epochs, and ``sweep --lambdas 0.1,1,10 --ds 2,1 --set loss=cip`` on the
defaults.  The demos are the ones in each tree's ``demos/`` directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

PIPELINE = ["--set", "seed=1", "--set", "objects_per_class=96", "--set", "epochs=2"]
DATA, CKPT = "data/dataset.csv", "train/checkpoint.json"
COMMANDS = {
    "generate": ["generate", "--out", "data", *PIPELINE],
    "train": ["train", "--dataset", DATA, "--out", "train", *PIPELINE],
    "eval": ["eval", "--checkpoint", CKPT, "--dataset", DATA, "--out", "eval", *PIPELINE],
    "export": ["export", "--checkpoint", CKPT, "--dataset", DATA,
               "--out", "export/embeddings.csv", *PIPELINE],
    "export-pooled": ["export", "--checkpoint", CKPT, "--dataset", DATA,
                      "--out", "export/pooled.csv", "--pooled", *PIPELINE],
    "sweep": ["sweep", "--lambdas", "0.1,1,10", "--ds", "2,1", "--set", "loss=cip", "--out", "sweep"],
}
CLI = "import sys; from cipbench.cli import main; sys.exit(main(sys.argv[1:]))"

# numbers and words are the runs of text between these separators
SEPARATORS = re.compile(r"([\s,:;\[\]{}()\"'=]+)")


def run_tree(src: Path, work: Path) -> None:
    """Run every command and demo against ``src``, with ``work`` as the
    working directory; each one's printed output goes to ``<name>.out``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "ignore"}
    jobs = [(f"{name}.out", [sys.executable, "-c", CLI, *argv]) for name, argv in COMMANDS.items()]
    jobs += [(f"demos/{demo.stem}.out", [sys.executable, str(demo)])
             for demo in sorted((src.parent / "demos").glob("*.py"))]
    (work / "demos").mkdir(parents=True)
    for out, argv in jobs:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        (work / out).write_text(f"{proc.stdout}--- stderr\n{proc.stderr}--- exit {proc.returncode}\n")


def _number(token: str):
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return None


def _same(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return struct.pack("<d", a) == struct.pack("<d", b)


def _only_in(text: str, other: str, side: str) -> list[str]:
    """``["only in <side>: <lines>"]`` naming up to three lines of ``text``
    that ``other`` lacks, each cut to 80 characters, or ``[]`` when there
    are none."""
    others = set(other.split("\n"))
    extra = [line if len(line) <= 80 else line[:77] + "..."
             for line in text.split("\n") if line not in others]
    if not extra:
        return []
    return [f"only in {side}: " + ", ".join(map(repr, extra[:3])) + (", ..." if extra[3:] else "")]


def verdict(old: bytes, new: bytes) -> tuple[str, bool]:
    """``(verdict text, differs)`` for one file's two versions."""
    if old == new:
        return "identical", False
    texts = [b.decode().replace("\r\n", "\n") for b in (old, new)]
    parts = [SEPARATORS.split(text) for text in texts]
    if len(parts[0]) != len(parts[1]):
        notes = _only_in(*texts, "old") + _only_in(*texts[::-1], "new")
        return f"differ ({'; '.join(notes) or 'different number of cells'})", True
    worst = None
    for i, (a, b) in enumerate(zip(*parts)):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if i % 2 or x is None or y is None:
            return f"differ (text {a!r} against {b!r})", True
        if not _same(x, y):
            rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
            worst = max(-1.0 if worst is None else worst, rel if rel == rel else math.inf)
    if worst is not None:
        return f"differ (largest relative difference {worst:.3g})", True
    return "same values", False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs=2, help="the two src directories to compare")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        works = [Path(tmp) / str(i) for i in range(2)]
        for src, work in zip(args.src, works):
            run_tree(Path(src).resolve(), work)
        files = [{str(p.relative_to(w)): p for p in w.rglob("*") if p.is_file()} for w in works]
        counts = {"identical": 0, "same values": 0, "differ": 0}
        for name in sorted(files[0].keys() | files[1].keys()):
            if name not in files[0] or name not in files[1]:
                text, differs = f"differ (only in {args.src[name in files[1]]})", True
            else:
                text, differs = verdict(files[0][name].read_bytes(), files[1][name].read_bytes())
            counts["differ" if differs else text] += 1
            print(f"{text:<48} {name}")
    print(", ".join(f"{n} {kind}" for kind, n in counts.items()))
    return 1 if counts["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
