import itertools
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from cipbench import retrieval, vectors
from cipbench.losses import CenterlineBank
from cipbench.retrieval import (
    _BLOCK_ROWS,
    _SCORE_ROWS,
    RetrievalRun,
    average_precision,
    evaluate_run,
    f1_at,
    geometry_report,
    mean_pool,
    ndcg,
    pool_descriptors,
    pr_auc,
    rank,
)

from oracles import (
    ap_brute,
    block_distances,
    evaluate_loop,
    f1_brute,
    ndcg_brute,
    pool_loop,
    prauc_brute,
    rank_loop,
    scatter_at,
    seq_mean,
)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_rank_sorts_by_cosine_distance():
    descs = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
    labels = np.array([1, 1, 2])
    run = rank(descs, labels)
    np.testing.assert_array_equal(run.rankings[0], [1, 2])  # closest first
    np.testing.assert_array_equal(run.relevance[0], [1, 0])


def test_rank_excludes_query_itself():
    descs = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    run = rank(descs, np.array([1, 1, 2]))
    for qi, order in zip(run.query_indices, run.rankings):
        assert qi not in order
        assert len(order) == 2


def test_rank_all_same_class_all_relevant():
    descs = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.3]])
    run = rank(descs, np.array([1, 1, 1]))
    for rel in run.relevance:
        assert rel.sum() == len(rel)


def test_rank_ties_broken_by_ascending_index():
    # items 1 and 2 are identical, so equidistant from the query
    descs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    run = rank(descs, np.array([1, 2, 2]))
    np.testing.assert_array_equal(run.rankings[0], [1, 2])


def test_rank_scale_invariance():
    rng = np.random.default_rng(0)
    descs = rng.standard_normal((8, 4))
    labels = rng.integers(1, 4, 8)
    base = rank(descs, labels)
    scaled = rank(descs * rng.uniform(0.5, 20.0, size=(8, 1)), labels)
    for a, b in zip(base.rankings, scaled.rankings):
        np.testing.assert_array_equal(a, b)


def test_rank_zero_norm_excluded_with_warning():
    descs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
    with pytest.warns(UserWarning, match="zero-norm"):
        run = rank(descs, np.array([1, 1, 2, 1]))
    assert run.excluded == [1]
    assert run.num_queries == 3
    for order in run.rankings:
        assert 1 not in order


def test_rank_needs_two_usable_descriptors():
    with pytest.warns(UserWarning, match="zero-norm"):
        with pytest.raises(ValueError, match="at least two"):
            rank(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1, 1]))


def _assert_rank_matches_loop(descs, labels):
    run = rank(descs, labels)
    keep, rankings, relevance = rank_loop(descs, labels)
    np.testing.assert_array_equal(run.query_indices, keep)
    assert run.rankings.shape == rankings.shape == (keep.size, keep.size - 1)
    assert np.array_equal(run.rankings, rankings)
    assert run.relevance.dtype == bool
    assert np.array_equal(run.relevance, relevance)


def test_rank_equals_per_query_loop_on_random_descriptors():
    # 60 rows are one 64-row block; 150 end in a partial third block
    rng = np.random.default_rng(3)
    _assert_rank_matches_loop(rng.standard_normal((60, 5)), rng.integers(1, 5, 60))
    _assert_rank_matches_loop(rng.standard_normal((150, 5)), rng.integers(1, 5, 150))


def test_rank_equals_per_query_loop_with_exact_ties():
    # duplicated rows give bit-equal distances, and small integer vectors
    # give many parallel pairs: every such tie must break by ascending index
    rng = np.random.default_rng(4)
    base = rng.standard_normal((30, 4))
    descs = base[rng.integers(0, 12, 50)]
    _assert_rank_matches_loop(descs, rng.integers(1, 4, 50))
    _assert_rank_matches_loop(rng.integers(-2, 3, (50, 3)).astype(float) + [0.0, 0.0, 3.0],
                              rng.integers(1, 4, 50))
    # a group of duplicates on both sides of the first block edge (row 64)
    descs = rng.standard_normal((150, 4))
    descs[58:71] = descs[7]
    _assert_rank_matches_loop(descs, rng.integers(1, 4, 150))


def test_rank_equals_per_query_loop_with_zero_norm_rows():
    rng = np.random.default_rng(5)
    descs = rng.standard_normal((40, 4))
    descs[[0, 17, 39]] = 0.0
    descs[20] = descs[21]
    labels = rng.integers(1, 4, 40)
    with pytest.warns(UserWarning, match="zero-norm"):
        run = rank(descs, labels)
    assert run.excluded == [0, 17, 39]
    with pytest.warns(UserWarning, match="zero-norm"):
        _assert_rank_matches_loop(descs, labels)
    # zero-norm rows on both sides of input rows 64 and 128 shift each
    # later 64-row block of ranked rows; duplicates sit among them
    descs = rng.standard_normal((150, 4))
    descs[60:70] = descs[100]
    descs[[3, 63, 64, 66, 127, 130, 131]] = 0.0
    labels = rng.integers(1, 4, 150)
    with pytest.warns(UserWarning, match="zero-norm"):
        run = rank(descs, labels)
    assert run.excluded == [3, 63, 64, 66, 127, 130, 131]
    with pytest.warns(UserWarning, match="zero-norm"):
        _assert_rank_matches_loop(descs, labels)


# Every component is 0, +-1 or +-1/2 after normalizing, so every distance
# is exact and the oracle's one full matmul agrees bit for bit with rank's
# 64-row blocks.  From e0 the palette rows lie at 0 (e0), 1/2 (two rows),
# 1 (e1, e2), 3/2 and 2 (-e0).
TIE_PALETTE = np.array([[1.0, 0, 0, 0], [1, 1, 1, 1], [1, -1, 1, -1], [0, 1, 0, 0],
                        [0, 0, 1, 0], [-1, 1, -1, 1], [-1, 0, 0, 0]])
E0_RUNS = ([0], [1, 2], [3, 4], [5], [6])  # palette rows by distance from e0, nearest first
# zero-norm rows on both sides of input rows 64 and 128
ZEROED = {"no_exclusions": [], "zero_norm_rows": [3, 63, 64, 100, 129]}


def _rank_quietly(descs, labels):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rank(descs, labels)


def _palette_descriptors(zeroed):
    # 150 rows, ~21 shuffled copies of each palette row: three blocks, and
    # every row of every block is made of tie runs
    kinds = np.random.default_rng(7).permutation(np.arange(150) % len(TIE_PALETTE))
    descs = TIE_PALETTE[kinds]
    descs[zeroed] = 0.0
    return descs, kinds


@pytest.mark.parametrize("zeroed", ZEROED.values(), ids=ZEROED.keys())
def test_rank_repairs_adjacent_tie_runs_in_every_block(zeroed):
    descs, kinds = _palette_descriptors(zeroed)
    labels = kinds % 3 + 1
    run = _rank_quietly(descs, labels)
    keep, rankings, relevance = rank_loop(descs, labels)
    assert np.array_equal(run.query_indices, keep)
    assert np.array_equal(run.rankings, rankings)
    assert np.array_equal(run.relevance, relevance)
    # an e0 query's row is back-to-back runs (a, a, ..., b, b, ...): its
    # other e0 copies tie at the first ranked positions, the -e0 copies at
    # the last, and two palette rows share each run at 1/2 and at 1
    nonzero = np.linalg.norm(descs, axis=1) > 0
    e0_rows = np.flatnonzero(kinds[keep] == 0)
    assert set(e0_rows // 64) == {0, 1, 2}
    for row in e0_rows:
        query = keep[row]
        runs = [np.flatnonzero(np.isin(kinds, group) & nonzero) for group in E0_RUNS]
        assert min(r.size for r in runs) >= 3
        np.testing.assert_array_equal(run.rankings[row],
                                      np.concatenate([r[r != query] for r in runs]))


@pytest.mark.parametrize("zeroed", ZEROED.values(), ids=ZEROED.keys())
def test_rank_orders_a_group_of_three_identical_descriptors_in_every_row(zeroed):
    # the seed-9 eval-large shape: one group of 3 identical descriptors, here
    # one in each block, puts a tie in every row.  The group lies on an axis,
    # so each distance to it is one product, exact in any matmul.
    rng = np.random.default_rng(8)
    descs = rng.standard_normal((150, 4))
    group = [11, 70, 140]
    descs[group] = [2.0, 0.0, 0.0, 0.0]
    descs[zeroed] = 0.0
    labels = rng.integers(1, 4, 150)
    run = _rank_quietly(descs, labels)
    keep, rankings, relevance = rank_loop(descs, labels)
    assert np.array_equal(run.rankings, rankings)
    assert np.array_equal(run.relevance, relevance)
    for query, ranked in zip(run.query_indices, run.rankings):
        others = [g for g in group if g != query]
        at = np.flatnonzero(np.isin(ranked, others))
        np.testing.assert_array_equal(ranked[at], others)  # ascending index
        np.testing.assert_array_equal(np.diff(at), np.ones(len(at) - 1))  # one run
        if query in group:
            np.testing.assert_array_equal(at, [0, 1])  # the tie leads the row


@pytest.mark.parametrize("zeroed", ZEROED.values(), ids=ZEROED.keys())
def test_rank_outputs_own_c_contiguous_arrays(zeroed):
    descs, kinds = _palette_descriptors(zeroed)
    run = _rank_quietly(descs, kinds % 3 + 1)
    for out, dtype in ((run.rankings, np.int16), (run.relevance, np.bool_)):
        assert out.dtype == dtype
        assert out.flags.c_contiguous and out.flags.owndata and out.base is None
    q = run.num_queries
    assert run.rankings.nbytes == 2 * q * (q - 1)


def test_the_index_dtype_holds_every_index_below_the_descriptor_count():
    # n descriptors have indices up to n - 1, and int16 holds up to 2**15 - 1
    assert [retrieval._index_dtype(n) for n in (2, 2**15, 2**15 + 1, 2**31)] == [
        np.int16, np.int16, np.int32, np.int32]


@pytest.mark.parametrize("n", [2**15, 2**15 + 1])
def test_rank_writes_original_indices_past_the_kept_count(n):
    # six palette rows among n - 6 zero-norm ones: the kept indices fit in
    # int16 whatever n is, and the original ones, written, reach n - 1
    descs = np.zeros((n, 4))
    rows = [0, 1, n // 2, n - 3, n - 2, n - 1]
    descs[rows] = TIE_PALETTE[[0, 1, 3, 0, 6, 5]]
    labels = np.arange(n) % 3 + 1
    run = _rank_quietly(descs, labels)
    assert run.rankings.dtype == (np.int16 if n <= 2**15 else np.int32)
    keep, rankings, relevance = rank_loop(descs, labels)
    assert np.array_equal(keep, rows) and run.rankings.max() == n - 1
    assert np.array_equal(run.rankings, rankings)
    assert np.array_equal(run.relevance, relevance)


def _assert_ordered_by_block_distances(run, descs, labels):
    """Each row holds every other kept descriptor once, by ascending block
    distance, equal distances by ascending index; relevance follows."""
    keep, dist = block_distances(descs, _BLOCK_ROWS)
    q = keep.size
    assert np.array_equal(run.query_indices, keep)
    columns = np.searchsorted(keep, run.rankings)
    assert np.array_equal(keep[columns], run.rankings)
    others = np.tile(np.arange(q), (q, 1))[~np.eye(q, dtype=bool)].reshape(q, q - 1)
    assert np.array_equal(np.sort(columns, axis=1), others)
    ranked = np.take_along_axis(dist, columns, axis=1)
    assert (ranked[:, :-1] <= ranked[:, 1:]).all()
    equal = ranked[:, :-1] == ranked[:, 1:]
    assert (columns[:, :-1] < columns[:, 1:])[equal].all()
    assert np.array_equal(run.relevance, labels[run.rankings] == labels[keep][:, None])
    return keep, dist


def _perturbed_copies(rng, groups, size):
    # groups of `size` rows: a descriptor, then copies of it moved by ~1e-15.
    # From any other descriptor they lie a few ulps apart, inside one
    # packed-key prefix.
    descs = np.repeat(rng.standard_normal((groups, 4)), size, axis=0)
    moved = np.arange(groups * size) % size > 0
    descs[moved] += 1e-15 * rng.standard_normal((np.count_nonzero(moved), 4))
    return descs


def _assert_near_ties(dist, rows):
    # distances that differ, but by less than 1e-13, sit side by side
    ranked = np.sort(dist[rows], axis=1)
    gap = np.diff(ranked, axis=1)
    assert ((gap > 0) & (gap < 1e-13)).any(axis=1).all()


@pytest.mark.parametrize("zeroed", ZEROED.values(), ids=ZEROED.keys())
def test_rank_orders_near_ties_by_their_block_distances(zeroed):
    rng = np.random.default_rng(10)
    descs = _perturbed_copies(rng, 150, 2)
    descs[zeroed] = 0.0
    labels = rng.integers(1, 4, 300)
    run = _rank_quietly(descs, labels)
    keep, dist = _assert_ordered_by_block_distances(run, descs, labels)
    _assert_near_ties(dist, np.arange(keep.size))


# Exactly representable rows: every norm rounds to 1, and every product of
# two of them has at most two nonzero terms, each exact, so each distance has
# the same bits in any product.  t = 2^-26 and u = 2^-53, the spacing below 1.
_T, _U = 2.0**-26, 2.0**-53
BIT_PALETTE = np.array([
    [1.0, 0, 0, 0],  # e0
    [_U, 1, 0, 0], [2 * _U, 1, 0, 0], [3 * _U, 1, 0, 0],  # p1-p3: 1 - k u from e0
    [1, _U, 0, 0], [1, 2 * _U, 0, 0], [1, 3 * _U, 0, 0],  # x1-x3: 1 - (j + k) u from pj
    [_T, 1, 0, 0],  # w: 1 + 2^-52 with itself, so its copies lie at -2^-52
    [0, 0, 1, 0],  # e2
    [-1, 0, 0, 0],  # -e0
])
BIT_WIDTH_Q = (2, 3, 64, 65, 128, 129, 257)


def _bit_palette_descriptors(q, zero_rows):
    # the first rows in palette order, so at q = 3 the query e0 sees p2
    # nearer than p1 but at a higher index; the rest shuffled
    kinds = np.arange(q) % len(BIT_PALETTE)
    kinds[len(BIT_PALETTE):] = np.random.default_rng(q).permutation(kinds[len(BIT_PALETTE):])
    if not zero_rows:
        return BIT_PALETTE[kinds]
    # zero-norm rows first, in the middle and last; q rows stay ranked
    descs = np.zeros((q + 3, 4))
    ranked = np.ones(q + 3, dtype=bool)
    ranked[[0, (q + 3) // 2, q + 2]] = False
    descs[ranked] = BIT_PALETTE[kinds]
    return descs


@pytest.mark.parametrize("zero_rows", [False, True], ids=["no_exclusions", "zero_norm_rows"])
@pytest.mark.parametrize("q", BIT_WIDTH_Q)
def test_rank_packs_indices_at_every_bit_width(q, zero_rows):
    descs = _bit_palette_descriptors(q, zero_rows)
    labels = np.arange(len(descs)) % 3 + 1
    run = _rank_quietly(descs, labels)
    assert run.rankings.shape == (q, q - 1)
    _assert_ordered_by_block_distances(run, descs, labels)
    keep, rankings, relevance = rank_loop(descs, labels)
    assert np.array_equal(run.rankings, rankings)
    assert np.array_equal(run.relevance, relevance)
    if q == 3:  # e0, p1, p2: p2 is nearer to e0 by one ulp
        np.testing.assert_array_equal(run.rankings[0], keep[[2, 1]])


@pytest.mark.parametrize("zeroed", ZEROED.values(), ids=ZEROED.keys())
def test_rank_orders_distances_that_round_below_zero(zeroed):
    # copies of w = (2^-26, 1, 0, 0) have a computed norm of 1 and an exact
    # inner product of 1 + 2^-52, so 1 - cos is -2^-52 in any product.  They
    # sit among groups of five perturbed copies, whose near-ties every row
    # must repair and whose products round to 1 + 2^-52 or, depending on the
    # BLAS's order of summation, 1 + 2^-51 (two negative distances in a row)
    rng = np.random.default_rng(11)
    descs = _perturbed_copies(rng, 30, 5)
    copies = [5, 64, 65, 140]
    descs[copies] = [_T, 1.0, 0.0, 0.0]
    descs[zeroed] = 0.0
    labels = rng.integers(1, 4, 150)
    run = _rank_quietly(descs, labels)
    keep, dist = _assert_ordered_by_block_distances(run, descs, labels)
    kept_copies = np.flatnonzero(np.isin(keep, copies))
    assert kept_copies.size >= 3
    for row in kept_copies:
        others = [c for c in keep[kept_copies] if c != keep[row]]
        assert (dist[row, np.isin(keep, others)] == -(2.0**-52)).all()
        np.testing.assert_array_equal(run.rankings[row, :len(others)], others)
        assert (dist[row][np.isin(keep, run.rankings[row, len(others):])] >= 0.0).all()
    _assert_near_ties(dist, np.flatnonzero(~np.isin(keep, copies)))


@pytest.mark.parametrize("make, message", [
    (lambda: rank(np.ones((3, 2)), np.array([1, 2])), "need (N, n) descriptors with aligned labels"),
    (lambda: average_precision([]), "relevance must be a non-empty 1-D array"),
    (lambda: ndcg([[1, 0]]), "relevance must be a non-empty 1-D array"),
    (lambda: pr_auc([0, 0]), "PR-AUC undefined with no relevant items"),
    (lambda: evaluate_run(_relevance_run(np.zeros((3, 2), dtype=bool))), "no query had any relevant gallery item"),
    (lambda: geometry_report(np.ones((3, 2)), [1, 3, 1], CenterlineBank(np.eye(2))), "labels must lie in [1, 2]"),
])
def test_a_malformed_retrieval_input_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_rank_rejects_non_finite_descriptors():
    with pytest.raises(ValueError, match="finite"):
        rank(np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]), np.array([1, 1, 2]))


# ---------------------------------------------------------------------------
# worker threads
# ---------------------------------------------------------------------------


def _random_descriptors(q, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((q, 5)), rng.integers(1, 4, q)


def _palette_case(zeroed):
    descs, kinds = _palette_descriptors(zeroed)
    return descs, kinds % 3 + 1


THREAD_CASES = {
    "q40": lambda: _random_descriptors(40, 12),  # one block
    "q150": lambda: _random_descriptors(150, 13),  # three blocks, the last of 22 rows
    # 16 blocks: long enough for threads to overlap, so buffers that two
    # threads shared would show
    "q1000": lambda: _random_descriptors(1000, 16),
    "ties_in_every_block": lambda: _palette_case(ZEROED["no_exclusions"]),
    "ties_and_zero_norm_rows": lambda: _palette_case(ZEROED["zero_norm_rows"]),
}


def _outputs(descs, labels):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = rank(descs, labels)
    assert len(caught) == (1 if run.excluded else 0)  # one zero-norm warning, from the caller
    return (run.query_indices.tobytes(), run.rankings.tobytes(), run.relevance.tobytes(),
            run.excluded, repr(evaluate_run(run).to_dict()),
            repr(evaluate_run(run, f1_cutoff=5, ndcg_cutoff=7).to_dict()))


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize("case", THREAD_CASES.values(), ids=THREAD_CASES.keys())
def test_rank_and_evaluate_run_have_the_same_bytes_on_1_2_and_3_threads(monkeypatch, case):
    descs, labels = case()
    monkeypatch.setattr(retrieval, "_MIN_SHARED_BLOCKS", 1)
    monkeypatch.setattr(vectors.threading, "Thread", _CountedThread)
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(vectors, "_WORKERS", workers)
        _CountedThread.started = 0
        before = threading.active_count()
        outputs.append(_outputs(descs, labels))
        assert threading.active_count() == before  # every worker was joined
        # the caller is one of the threads, and no call starts more than its
        # blocks need (three calls: rank and two evaluate_run)
        rows = np.count_nonzero(np.linalg.norm(descs, axis=1))
        needed = {size: min(workers, -(-rows // size)) - 1 for size in (_BLOCK_ROWS, _SCORE_ROWS)}
        assert _CountedThread.started == needed[_BLOCK_ROWS] + 2 * needed[_SCORE_ROWS]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_more_threads_than_cpus_switching_often_run_every_block_once(monkeypatch):
    # a block handed out twice or never would leave wrong or unwritten rows
    descs, labels = THREAD_CASES["q1000"]()
    monkeypatch.setattr(vectors, "_WORKERS", 1)
    want = _outputs(descs, labels)
    monkeypatch.setattr(retrieval, "_MIN_SHARED_BLOCKS", 1)
    monkeypatch.setattr(vectors, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _outputs(descs, labels)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_a_call_with_few_blocks_starts_no_thread(monkeypatch):
    descs, labels = _random_descriptors(_BLOCK_ROWS * (retrieval._MIN_SHARED_BLOCKS - 1), 14)
    monkeypatch.setattr(vectors, "_WORKERS", 2)
    monkeypatch.setattr(vectors.threading, "Thread", _CountedThread)
    _CountedThread.started = 0
    evaluate_run(rank(descs, labels))
    assert _CountedThread.started == 0


def _relevance_run(relevance, labels=None):
    q = len(relevance)
    return RetrievalRun(query_indices=np.arange(q), rankings=np.zeros(relevance.shape, np.intp),
                        query_labels=np.ones(q, np.int64) if labels is None else labels,
                        relevance=relevance)


@pytest.mark.parametrize("rows, started", [(_BLOCK_ROWS * (retrieval._MIN_SHARED_BLOCKS - 1), 0),
                                           (_BLOCK_ROWS * (retrieval._MIN_SHARED_BLOCKS - 1) + 1, 1)])
def test_evaluate_run_shares_its_blocks_from_ranks_row_count(monkeypatch, rows, started):
    # evaluate_run scores larger blocks than rank sorts, but starts threads
    # at the same number of query rows
    relevance = np.random.default_rng(17).random((rows, 30)) < 0.3
    monkeypatch.setattr(vectors, "_WORKERS", 2)
    monkeypatch.setattr(vectors.threading, "Thread", _CountedThread)
    _CountedThread.started = 0
    evaluate_run(_relevance_run(relevance))
    assert _CountedThread.started == started


class _BlockFault(Exception):
    pass


def _failing_blocks(monkeypatch, fails):
    """Make every block ``fails(lo, block_rows)`` picks raise _BlockFault(lo)."""
    share = vectors.share_blocks

    def faulty(rows, block_rows, shared, body):
        def block(lo, hi):
            if fails(lo, block_rows):
                raise _BlockFault(lo)
            body(lo, hi)
        share(rows, block_rows, shared, block)

    monkeypatch.setattr(retrieval, "share_blocks", faulty)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fails, second_only", [(lambda lo, size: lo == size, True),
                                                (lambda lo, size: True, False)],
                         ids=["second_block", "every_block"])
def test_an_exception_in_a_block_reaches_the_caller_after_every_join(monkeypatch, workers,
                                                                     fails, second_only):
    descs, labels = _random_descriptors(3 * _BLOCK_ROWS + 5, 15)
    run = rank(descs, labels)
    monkeypatch.setattr(retrieval, "_MIN_SHARED_BLOCKS", 1)
    monkeypatch.setattr(vectors, "_WORKERS", workers)
    _failing_blocks(monkeypatch, fails)
    before = threading.active_count()
    for call, size in ((lambda: rank(descs, labels), _BLOCK_ROWS),
                       (lambda: evaluate_run(run), _SCORE_ROWS)):
        with pytest.raises(_BlockFault) as info:
            call()
        assert threading.active_count() == before
        if second_only:  # the second block of the call's own size
            assert info.value.args == (size,)


def test_no_thread_outlives_a_call_past_the_thread_threshold(monkeypatch):
    # vectors, the one module that starts threads and processes, forks only
    # while no other thread is alive, so every thread these calls start
    # must be joined when they return or raise
    rows = _BLOCK_ROWS * (retrieval._MIN_SHARED_BLOCKS - 1) + 1
    descs, labels = _random_descriptors(rows, 18)
    monkeypatch.setattr(vectors, "_WORKERS", 2)
    monkeypatch.setattr(vectors.threading, "Thread", _CountedThread)
    _CountedThread.started = 0
    before = threading.active_count()
    run = rank(descs, labels)
    assert threading.active_count() == before
    evaluate_run(run)
    assert threading.active_count() == before

    def body(lo, hi):
        if lo:
            raise _BlockFault(lo)

    with pytest.raises(_BlockFault):
        vectors.share_blocks(rows, _BLOCK_ROWS, retrieval._shared(rows), body)
    assert threading.active_count() == before
    assert _CountedThread.started == 3  # one thread in each call


# ---------------------------------------------------------------------------
# metric examples
# ---------------------------------------------------------------------------


def test_average_precision_examples():
    assert average_precision([1, 0, 1]) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)
    assert average_precision([1, 1, 1]) == 1.0
    assert average_precision([0, 1, 0, 1]) == pytest.approx(0.5, rel=1e-12)


def test_average_precision_no_relevant_rejected():
    with pytest.raises(ValueError, match="no relevant"):
        average_precision([0, 0, 0])


def test_pr_auc_examples():
    assert pr_auc([1]) == 1.0
    assert pr_auc([1, 1, 1, 0, 0]) == 1.0  # perfect ranking
    # relevant at ranks 2 and 4 of 4: brute-force trapezoid gives 1/3
    assert pr_auc([0, 1, 0, 1]) == pytest.approx(prauc_brute([0, 1, 0, 1]), abs=1e-15)
    assert pr_auc([0, 1, 0, 1]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_ndcg_examples():
    assert ndcg([1, 1, 0]) == 1.0
    expected = 1.5 / (1.0 + 1.0 / np.log2(3.0))
    assert ndcg([1, 0, 1]) == pytest.approx(expected, rel=1e-12)
    assert round(ndcg([1, 0, 1]), 5) == 0.91972
    assert ndcg([0, 0, 0], cutoff=3) == 0.0


def test_ndcg_cutoff_validation():
    with pytest.raises(ValueError, match="cutoff"):
        ndcg([1, 0], cutoff=0)


def test_f1_examples():
    assert f1_at([1, 1, 0, 0], cutoff=2) == 1.0  # perfect at cutoff = #relevant
    # precision 0.5, recall 0.5: 2 relevant total, 1 found in cutoff 2
    assert f1_at([1, 0, 0, 1], cutoff=2) == pytest.approx(0.5, rel=1e-12)
    assert f1_at([0, 0, 0, 1], cutoff=2) == pytest.approx(f1_brute([0, 0, 0, 1], 2), rel=1e-12)
    assert f1_at([0, 0, 0], cutoff=2) == 0.0


def test_f1_default_cutoff_perfect_ranking():
    assert f1_at([1, 1, 1, 0, 0]) == 1.0


# ---------------------------------------------------------------------------
# exhaustive oracle equivalence (every binary pattern up to length 8)
# ---------------------------------------------------------------------------


def test_metrics_match_brute_force_exhaustively():
    for length in range(1, 9):
        for pattern in itertools.product((0, 1), repeat=length):
            if sum(pattern) == 0:
                with pytest.raises(ValueError):
                    average_precision(pattern)
                assert ndcg(pattern) == 0.0
                assert f1_at(pattern, cutoff=1) == 0.0
                continue
            assert average_precision(pattern) == pytest.approx(ap_brute(pattern), abs=1e-14)
            assert pr_auc(pattern) == pytest.approx(prauc_brute(pattern), abs=1e-14)
            assert ndcg(pattern) == pytest.approx(ndcg_brute(pattern), abs=1e-14)
            assert f1_at(pattern) == pytest.approx(f1_brute(pattern), abs=1e-14)
            for cutoff in range(1, length + 1):
                assert ndcg(pattern, cutoff) == pytest.approx(ndcg_brute(pattern, cutoff), abs=1e-14)
                assert f1_at(pattern, cutoff) == pytest.approx(f1_brute(pattern, cutoff), abs=1e-14)


def test_map_invariant_within_equal_relevance_runs():
    # permuting items inside a run of equal flags cannot change AP
    base = [1, 0, 0, 1, 1, 0]
    rng = np.random.default_rng(1)
    reference = average_precision(base)
    for _ in range(20):
        perm = base.copy()
        # swap within the run of zeros at positions 1-2 and ones at 3-4
        if rng.random() < 0.5:
            perm[1], perm[2] = perm[2], perm[1]
        if rng.random() < 0.5:
            perm[3], perm[4] = perm[4], perm[3]
        assert average_precision(perm) == pytest.approx(reference, abs=1e-15)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_evaluate_run_counts_skipped_queries():
    # one singleton class: its query has no relevant gallery items
    descs = np.array([[1.0, 0.0], [0.9, 0.2], [0.0, 1.0]])
    run = rank(descs, np.array([1, 1, 2]))
    summary = evaluate_run(run)
    assert summary.total_queries == 3
    assert summary.skipped_queries == 1
    assert 0.0 <= summary.micro.map <= 1.0


def test_evaluate_run_perfect_embedding():
    descs = np.array([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0], [0.01, 1.0]])
    run = rank(descs, np.array([1, 1, 2, 2]))
    summary = evaluate_run(run)
    assert summary.micro.map == 1.0
    assert summary.macro.map == 1.0
    assert summary.micro.ndcg == 1.0


def test_evaluate_run_rejects_a_run_without_query_rows():
    empty = RetrievalRun(query_indices=np.empty(0, dtype=np.intp),
                         query_labels=np.empty(0, dtype=np.int64),
                         rankings=np.empty((0, 0), dtype=np.intp),
                         relevance=np.empty((0, 0), dtype=bool))
    with pytest.raises(ValueError, match="at least one query row"):
        evaluate_run(empty)


@pytest.mark.parametrize("rows", [1, 200])
def test_evaluate_run_rejects_an_empty_gallery_without_a_warning(rows):
    # a (Q, 0) relevance matrix has no relevant item; scoring it anyway
    # would warn of 0/0 in the F1 precision before raising
    run = _relevance_run(np.zeros((rows, 0), dtype=bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^no query had any relevant gallery item$"):
            evaluate_run(run)


def _unbalanced_run():
    # three classes of 140, 12 and 1 objects: AP sums 139 precisions (past
    # np.mean's 128-item pairwise block) or 11; the singleton's query has no
    # relevant item and is skipped
    rng = np.random.default_rng(6)
    labels = np.repeat([1, 2, 3], [140, 12, 1])
    centers = rng.standard_normal((3, 6))
    descs = centers[labels - 1] + 0.9 * rng.standard_normal((labels.size, 6))
    return rank(descs, labels)


@pytest.mark.parametrize("f1_cutoff", [None, 1, 5, 500])
@pytest.mark.parametrize("ndcg_cutoff", [None, 1, 5, 500])
def test_evaluate_run_equals_per_query_loop(f1_cutoff, ndcg_cutoff):
    run = _unbalanced_run()
    summary = evaluate_run(run, f1_cutoff, ndcg_cutoff)
    micro, macro, skipped = evaluate_loop(run.relevance, run.query_labels, f1_cutoff, ndcg_cutoff)
    assert (summary.total_queries, summary.skipped_queries) == (153, 1) and skipped == 1
    assert summary.macro.map != summary.micro.map  # the classes are unbalanced
    for report, want in ((summary.micro, micro), (summary.macro, macro)):
        # MAP and F1 sum in the loop's order; PR-AUC and NDCG may round differently
        assert report.map == want["map"]
        assert report.f1 == want["f1"]
        assert report.pr_auc == pytest.approx(want["pr_auc"], rel=1e-12)
        assert report.ndcg == pytest.approx(want["ndcg"], rel=1e-12)


@pytest.mark.parametrize("labels", [2, 3, 5])
def test_evaluate_run_names_both_sizes_when_labels_and_rows_disagree(labels):
    relevance = np.eye(4, 3, k=-1, dtype=bool)
    run = _relevance_run(relevance, np.arange(labels))
    with pytest.raises(ValueError, match=f"4 rows, query_labels of shape \\({labels},\\)") as info:
        evaluate_run(run)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("cutoffs", [(None, None), (3, 20)])
def test_evaluate_run_scores_int_and_float_relevance_as_bool(cutoffs):
    # 150 rows: two scoring blocks, a skipped row, and every dtype cast once
    rng = np.random.default_rng(18)
    relevance = rng.random((150, 40)) < rng.random((150, 1)) * 0.5
    relevance[7] = False
    labels = rng.integers(1, 5, 150)
    want = evaluate_run(_relevance_run(relevance, labels), *cutoffs).to_dict()
    assert want["skipped_queries"] >= 1
    for dtype in (np.int64, np.int8, np.float64, np.float32):
        run = _relevance_run(relevance.astype(dtype), labels)
        assert evaluate_run(run, *cutoffs).to_dict() == want


def test_evaluate_run_rejects_cutoff_below_one():
    with pytest.raises(ValueError, match="cutoff"):
        evaluate_run(_unbalanced_run(), f1_cutoff=0)


# a fractional, bool or string cutoff is no rank either: unchecked, 2.5 scored
# F1 at a fractional cutoff
@pytest.mark.parametrize("cutoff", [2**63, 10**23, 2.5, True, "3", 3.5])
def test_cutoffs_past_int64_are_one_value_error(cutoff):
    run = _unbalanced_run()
    for call in (lambda: f1_at([1, 0, 1], cutoff=cutoff), lambda: ndcg([1, 0, 1], cutoff=cutoff),
                 lambda: evaluate_run(run, f1_cutoff=cutoff),
                 lambda: evaluate_run(run, ndcg_cutoff=cutoff)):
        with pytest.raises(ValueError, match=r"cutoff must be in \[1, 2\*\*63 - 1\]") as info:
            call()
        assert "\n" not in str(info.value)


def test_the_int64_maximum_cutoff_scores_past_every_rank():
    big = 2**63 - 1
    # F1's precision divides by the cutoff as a float64, 2**63
    assert f1_at([1, 0, 1], cutoff=big) == 2 * 2.0**-62 / (2.0**-62 + 1.0)
    assert ndcg([1, 0, 1], cutoff=big) == ndcg([1, 0, 1])
    run = _unbalanced_run()
    assert evaluate_run(run, ndcg_cutoff=big) == evaluate_run(run)


# ---------------------------------------------------------------------------
# descriptor pooling
# ---------------------------------------------------------------------------


def test_pool_descriptors_means_per_object():
    feats = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
    oids = np.array([7, 7, 9])
    labels = np.array([1, 1, 2])
    descs, dlabels, order = pool_descriptors(feats, oids, labels)
    np.testing.assert_allclose(descs, [[2.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(dlabels, [1, 2])
    np.testing.assert_array_equal(order, [7, 9])


def test_pool_descriptors_equals_per_object_loop_bit_for_bit():
    # interleaved object ids with 1 to 11 views each, and a column of -0.0
    # (whose mean is +0.0, as the loop's mean(axis=0) gives)
    rng = np.random.default_rng(7)
    oids = rng.permutation(np.repeat(rng.permutation(50) + 100, rng.integers(1, 12, 50)))
    labels = oids % 7 + 1
    feats = rng.standard_normal((oids.size, 5)) * 10.0 ** rng.integers(-3, 4, (oids.size, 1))
    feats[:, 2] = -0.0
    got = pool_descriptors(feats, oids, labels)
    want = pool_loop(feats, oids, labels)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_pool_descriptors_sums_are_add_at_bit_for_bit():
    # unsorted object ids, five of them with one view: each object's sum is
    # ``np.add.at`` into zeros over its first-appearance slot
    rng = np.random.default_rng(8)
    oids = rng.permutation(np.repeat([40, 3, 17, 8, 25, 11, 30, 2], [1, 6, 1, 3, 1, 1, 9, 1]))
    feats = rng.standard_normal((oids.size, 4)) * 10.0 ** rng.integers(-3, 4, (oids.size, 1))
    descs, _, order = pool_descriptors(feats, oids, oids % 3 + 1)
    first_seen = list(dict.fromkeys(oids.tolist()))
    assert order.tolist() == first_seen
    slot = np.array([first_seen.index(o) for o in oids.tolist()])
    counts = np.bincount(slot)
    assert (counts == 1).sum() == 5
    want = scatter_at(np.add, len(first_seen), slot, feats) / counts[:, None]
    assert descs.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pool_descriptors_rejects_non_finite_features(bad):
    feats = np.ones((4, 2))
    feats[2, 1] = bad
    with pytest.raises(ValueError, match=r"features\[2\] has non-finite"):
        pool_descriptors(feats, np.array([1, 1, 2, 2]), np.array([1, 1, 2, 2]))


# ``mean_pool`` is ``pool_descriptors`` of one object's views


def test_mean_pool_two_views():
    np.testing.assert_allclose(mean_pool([np.array([1.0, 0.0]), np.array([3.0, 0.0])]),
                               [2.0, 0.0])


def test_mean_pool_single_view_identity():
    v = np.array([0.4, -1.2, 7.0])
    np.testing.assert_array_equal(mean_pool([v]), v)


def test_mean_pool_symmetric_cancellation():
    v = np.array([2.0, -3.0])
    np.testing.assert_allclose(mean_pool([v, -v]), [0.0, 0.0], atol=1e-15)


def test_mean_pool_empty_rejected():
    with pytest.raises(ValueError, match="need non-empty"):
        mean_pool([])


def test_mean_pool_mixed_dims_rejected():
    with pytest.raises(ValueError, match="inhomogeneous shape"):
        mean_pool([np.ones(2), np.ones(3)])


def test_mean_pool_accumulation_tolerance():
    # descriptor must equal the sequential mean of its views very tightly
    rng = np.random.default_rng(3)
    views = [rng.standard_normal(8) * 10 for _ in range(50)]
    np.testing.assert_allclose(mean_pool(views), seq_mean(views), atol=1e-12 * len(views))


def test_mean_pool_minimizes_summed_squared_distance():
    # grid oracle: scan candidate descriptors on a 2-D lattice around the
    # views; none may beat the pooled mean
    views = [np.array([0.5, 1.0]), np.array([2.0, -1.0]), np.array([-1.0, 0.25])]
    pooled = mean_pool(views)

    def objective(d):
        return sum(float(np.sum((v - d) ** 2)) for v in views)

    best = objective(pooled)
    for gx in np.linspace(-2.0, 2.5, 41):
        for gy in np.linspace(-1.5, 1.5, 41):
            assert objective(np.array([gx, gy])) >= best - 1e-9


# ---------------------------------------------------------------------------
# geometry report
# ---------------------------------------------------------------------------


def test_geometry_perfect_fixture():
    bank = CenterlineBank(np.eye(3) * 2.0)
    feats = np.array([[5.0, 0, 0], [0, 3.0, 0], [0, 0, 1.0]])
    labels = np.array([1, 2, 3])
    geo = geometry_report(feats, labels, bank)
    off = geo.centerline_cosines[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.0, atol=1e-12)
    np.testing.assert_allclose(geo.own_cosine_mean, 1.0, atol=1e-12)
    assert geo.max_pairwise_centerline_cosine == pytest.approx(0.0, abs=1e-12)
    assert geo.mean_own_cosine == pytest.approx(1.0, abs=1e-12)


def test_geometry_45_degree_feature():
    bank = CenterlineBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    feats = np.array([[1.0, 1.0]])
    labels = np.array([1])
    geo = geometry_report(feats, labels, bank)
    assert geo.own_cosine_mean[0] == pytest.approx(np.sqrt(0.5), rel=1e-9)
    assert round(geo.own_cosine_mean[0], 5) == 0.70711


def test_geometry_random_smoke():
    rng = np.random.default_rng(2)
    bank = CenterlineBank(rng.normal(0, 0.01, (4, 6)))
    feats = rng.standard_normal((20, 6))
    labels = rng.integers(1, 5, 20)
    geo = geometry_report(feats, labels, bank)
    assert np.isfinite(geo.centerline_cosines).all()
    assert np.isfinite(geo.max_cross_inner)
    assert np.all(np.abs(geo.centerline_cosines) <= 1.0 + 1e-12)


def test_geometry_rejects_empty_features():
    bank = CenterlineBank(np.eye(2))
    with pytest.raises(ValueError, match="need non-empty"):
        geometry_report(np.empty((0, 2)), np.empty(0, dtype=np.int64), bank)


def test_geometry_rejects_features_of_another_width():
    bank = CenterlineBank(np.eye(2, 3))
    with pytest.raises(ValueError, match="features have width 4, the centerline bank 3"):
        geometry_report(np.ones((3, 4)), np.array([1, 2, 1]), bank)


def test_geometry_serialization(tmp_path):
    bank = CenterlineBank(np.eye(2))
    geo = geometry_report(np.array([[1.0, 0.0]]), np.array([1]), bank)
    geo.save_json(tmp_path / "geometry.json")
    geo.save_cosine_csv(tmp_path / "geometry.csv")
    lines = (tmp_path / "geometry.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + K rows
    import json

    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert "max_pairwise_centerline_cosine" in doc
