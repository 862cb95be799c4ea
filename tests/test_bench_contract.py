"""The benchmark's trace slots still name the library's own functions.

``bench/workloads.py`` looks up library functions by name in every
benchmark mode, so deleting or renaming one of them crashes every benchmark
run.  These tests import the benchmark modules as they are, with ``bench/``
on the import path, and fail first.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_trace_slot_holds_the_library_function():
    assert workloads.untraced_faults() == []


def test_tracer_self_test_passes():
    assert [name for name, ok in spans.self_test() if not ok] == []
