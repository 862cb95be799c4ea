"""``tools/compare_outputs.py``'s verdict on one file's two versions, and
``tools/bench_pairs.py``'s summary of synthetic pairs of benchmark runs.

The tools are imported as they are, with ``tools/`` on the import path; no
test here runs the benchmark.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import summarize  # noqa: E402
from compare_outputs import verdict  # noqa: E402


def test_same_bytes_are_identical():
    assert verdict(b"seed = 0\n", b"seed = 0\n") == ("identical", False)


def test_numbers_with_the_same_bits_are_same_values():
    assert verdict(b"x,0.1,3\n", b"x,0.10000000000000001,3\r\n") == ("same values", False)


def test_a_number_difference_gives_the_largest_relative_difference():
    assert verdict(b"x,1.0,2.0\n", b"x,1.0,2.5\n") == (
        "differ (largest relative difference 0.2)", True)


def test_a_removed_line_is_named():
    old = b"seed = 0\nfinal_activation = identity\nepochs = 30\n"
    new = b"seed = 0\nepochs = 30\n"
    assert verdict(old, new) == ("differ (only in old: 'final_activation = identity')", True)


def test_lines_only_in_each_version_are_named_up_to_three():
    old = b"a = 1\nb = 2\nc = 3\nd = 4\nkeep = 0\n"
    new = b"keep = 0\ne = 5\n"
    assert verdict(old, new) == (
        "differ (only in old: 'a = 1', 'b = 2', 'c = 3', ...; only in new: 'e = 5')", True)


def test_a_long_line_is_cut_to_80_characters():
    # a one-line JSON file whose two versions hold different entries
    old = '{"layout": {"layer_dims": [24, 32, 16]}, "theta": [' + "0.125, " * 40 + "0.5]}"
    new = '{"layer_dims": [24, 32, 16], "theta": [' + "0.125, " * 40 + "0.5]}"
    assert verdict(old.encode(), new.encode()) == (
        f"differ (only in old: {old[:77] + '...'!r}; only in new: {new[:77] + '...'!r})", True)


def _run(pass_norm, ref_map, failed=0):
    return {"metrics": {"pass_norm": pass_norm, "ref_map": ref_map}, "attempted": 100, "failed": failed}


def test_bench_pairs_summary_gives_medians_quartiles_and_wins():
    end_to_end = [{"name": "pass_norm", "unit": "ref_loops", "better": "lower", "bound": 0.25},
                  {"name": "ref_map", "unit": "score", "better": "higher", "bound": 0.01}]
    pairs = [{"seed": seed, "parent": _run(p, 0.37), "change": _run(c, m, failed)}
               for seed, (p, c, m, failed) in enumerate(
                   [(300.0, 250.0, 0.37, 0), (310.0, 260.0, 0.37, 0), (290.0, 295.0, 0.37, 0),
                    (320.0, 320.0, 0.38, 1), (305.0, 240.0, 0.36, 0)], start=1)]
    summary = summarize(pairs, end_to_end)
    assert summary["pass_norm"] == {
        "unit": "ref_loops", "better": "lower",
        "parent": {"median": 305.0, "q1": 295.0, "q3": 315.0},
        "change": {"median": 260.0, "q1": 245.0, "q3": 307.5},
        "change_wins": 3,  # one loss and one tie
    }
    assert summary["ref_map"]["change_wins"] == 1
    assert summary["ref_map"]["parent"] == {"median": 0.37, "q1": 0.37, "q3": 0.37}
    assert summary["failed_share.parent"] == 0.0
    assert summary["failed_share.change"] == 1 / 500
