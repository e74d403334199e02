"""Differential tests pinning the position-major segment reduce to its per-run-length oracle.

``repro.nn.tensor_utils._segment_reduce`` folds each segment one entry at a
time, first to last; so does the loop it replaced (``tests/segment_oracle.py``,
which reduces a ``(runs, length, ...)`` gather along its middle axis).  Same
order, same float32 bits: every comparison here is on the raw bit patterns,
for ``np.add`` and ``np.maximum``, with and without ``rows``, with and without
``indptr``, over every shape the layers produce.

Rows of a single element are compared at dtype tolerance instead: NumPy
coalesces unit axes, so either side may see a run as one contiguous vector and
sum it unrolled.  The tolerance is the textbook bound for summing ``n`` floats
in any order, ``n * eps * sum(|x|)``, doubled because both sides may err.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import tensor_utils as tu
from segment_oracle import segment_reduce as oracle_reduce

UFUNCS = [(np.add, 0), (np.maximum, -np.inf)]
TRAILING = [(), (1,), (32,), (100,), (128,), (256,), (2, 5)]


class CountingUfunc:
    """Stands in for the kernel's *ufunc*: counts in-place folds (trips) and reduces."""

    def __init__(self, ufunc):
        self.ufunc, self.folds, self.reduces = ufunc, 0, 0

    def __call__(self, *args, **kwargs):
        self.folds += 1
        return self.ufunc(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.reduces += 1
        return self.ufunc.reduce(*args, **kwargs)


def build_case(rng, lengths, trailing, use_rows, shuffle, hand_indptr):
    """Arguments of one reduce: ``(values, ids, n, indptr, rows)`` for runs of *lengths*."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ids = np.repeat(np.arange(len(lengths)), lengths)
    if shuffle:
        rng.shuffle(ids)
    table = int(rng.integers(1, 40)) if use_rows else len(ids)
    values = rng.normal(size=(table,) + trailing).astype(np.float32)
    rows = rng.integers(0, table, size=len(ids)) if use_rows else None
    indptr = None
    if hand_indptr and not shuffle:
        indptr = np.concatenate(([0], np.cumsum(lengths)))
    return values, ids, len(lengths), indptr, rows


def assert_same_reduce(ufunc, fill, case):
    values, ids, n, indptr, rows = case
    expected = oracle_reduce(ufunc, values, ids, n, indptr, fill, rows)
    actual = tu._segment_reduce(ufunc, values, ids, n, indptr, fill, rows)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype == np.float32
    if ufunc is np.maximum or int(np.prod(values.shape[1:])) > 1:
        np.testing.assert_array_equal(actual.view(np.uint32), expected.view(np.uint32))
        return
    # One-element rows: summation order is NumPy's on both sides.
    entries = np.abs(values if rows is None else values[rows]).astype(np.float64)
    magnitude = np.zeros(expected.shape)
    np.add.at(magnitude, ids, entries)
    count = np.bincount(ids, minlength=n).reshape((n,) + (1,) * (values.ndim - 1))
    bound = 2 * np.finfo(np.float32).eps * count * magnitude
    assert np.all(np.abs(actual.astype(np.float64) - expected) <= bound)


@st.composite
def run_lengths(draw):
    """Run lengths of the shapes that matter: empty runs anywhere, few or many distinct lengths."""
    num_segments = draw(st.integers(1, 30))
    longest = draw(st.sampled_from([0, 1, 3, 10, 25]))
    lengths = draw(st.lists(st.integers(0, longest), min_size=num_segments, max_size=num_segments))
    if draw(st.booleans()):                       # a hub: the walk stops and a tail finishes it
        lengths[draw(st.integers(0, num_segments - 1))] = draw(st.integers(40, 300))
    if draw(st.booleans()):                       # leading / trailing empty segments
        lengths = [0] * draw(st.integers(0, 3)) + lengths + [0] * draw(st.integers(0, 3))
    return lengths


class TestBitForBitAgainstThePerLengthLoop:
    @given(run_lengths(), st.sampled_from(TRAILING), st.booleans(), st.booleans(), st.booleans(),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_add_and_maximum(self, lengths, trailing, use_rows, shuffle, hand_indptr, seed):
        case = build_case(np.random.default_rng(seed), lengths, trailing, use_rows, shuffle,
                          hand_indptr)
        for ufunc, fill in UFUNCS:
            assert_same_reduce(ufunc, fill, case)

    @pytest.mark.parametrize("lengths", [[0], [0, 0, 0], [0, 4, 0], [7], [1, 1, 1], [3, 3, 0, 3]])
    @pytest.mark.parametrize("use_rows", [False, True])
    def test_degenerate_blocks(self, lengths, use_rows):
        rng = np.random.default_rng(0)
        for hand_indptr in (False, True):
            case = build_case(rng, lengths, (32,), use_rows, False, hand_indptr)
            for ufunc, fill in UFUNCS:
                assert_same_reduce(ufunc, fill, case)

    def test_small_integers_keep_their_dtype(self):
        """``add.reduce`` widens int32 to int64; the scratch and the result must not follow."""
        lengths = [12, 1, 0, 5, 12, 30]
        ids = np.repeat(np.arange(6), lengths)
        values = np.random.default_rng(4).integers(-99, 100, size=(60, 3)).astype(np.int32)
        actual = tu.segment_sum(values, ids, 6)
        assert actual.dtype == np.int32
        np.testing.assert_array_equal(actual, oracle_reduce(np.add, values, ids, 6, None, 0))

    def test_public_wrappers_take_rows(self):
        rng = np.random.default_rng(1)
        values, ids, n, indptr, rows = build_case(rng, [3, 0, 9, 1, 25], (128,), True, False, True)
        expected = oracle_reduce(np.add, values, ids, n, indptr, 0, rows)
        np.testing.assert_array_equal(tu.segment_sum(values, ids, n, indptr, rows=rows), expected)
        lengths = np.maximum(indptr[1:] - indptr[:-1], 1).astype(np.float32)[:, None]
        np.testing.assert_array_equal(
            tu.segment_mean(values, ids, n, indptr, rows=rows), expected / lengths)


class TestOneLongRun:
    """One run of 5 000 among 1 000 runs of at most 10: a tail, not 5 000 trips."""

    @pytest.mark.parametrize("use_rows", [False, True])
    def test_matches_oracle_within_the_trip_bound(self, use_rows):
        rng = np.random.default_rng(2)
        lengths = rng.integers(0, 11, size=1001)
        lengths[rng.integers(0, 1001)] = 5000
        case = build_case(rng, lengths, (32,), use_rows, False, True)
        for ufunc, fill in UFUNCS:
            assert_same_reduce(ufunc, fill, case)
        values, ids, n, indptr, rows = case
        counting = CountingUfunc(np.add)
        tu._segment_reduce(counting, values, ids, n, indptr, 0, rows)
        # The fold is one reduce; each tail is one more.
        trips, tails = counting.folds, counting.reduces - 1
        assert trips + tails <= (1 + tu._TAIL_COST) * np.sqrt(len(ids)) + 1
        assert trips <= 10 and tails == 1

    def test_few_long_runs_are_all_tails(self):
        rng = np.random.default_rng(3)
        case = build_case(rng, [2000, 1, 1500, 0, 1800], (8,), False, False, True)
        for ufunc, fill in UFUNCS:
            assert_same_reduce(ufunc, fill, case)
        values, ids, n, indptr, rows = case
        counting = CountingUfunc(np.add)
        tu._segment_reduce(counting, values, ids, n, indptr, 0, rows)
        assert (counting.folds, counting.reduces - 1) == (0, 3)


class TestMisuseRaisesByDesign:
    def test_non_monotone_indptr(self):
        values = np.ones((4, 2), np.float32)
        ids = np.array([0, 0, 1, 2])
        with pytest.raises(ValueError, match="indptr must hold .* ascending"):
            tu.segment_sum(values, ids, 3, np.array([0, 3, 2, 4]))

    @pytest.mark.parametrize("indptr", [[1, 2, 3, 4], [0, 2, 3, 5], [0, 2, 4]])
    def test_indptr_that_does_not_span_the_entries(self, indptr):
        values = np.ones((4, 2), np.float32)
        with pytest.raises(ValueError, match="indptr must hold"):
            tu.segment_sum(values, np.array([0, 0, 1, 2]), 3, np.array(indptr))

    @pytest.mark.parametrize("bad", [5, -1])
    @pytest.mark.parametrize("position", [0, 7])    # inside the shared fold / beyond it
    def test_rows_out_of_range(self, bad, position):
        table = np.ones((5, 2), np.float32)
        ids = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1])
        rows = np.zeros(9, dtype=np.int64)
        rows[position] = bad
        for indptr in (None, np.array([0, 8, 9])):
            with pytest.raises(IndexError, match="rows must lie in"):
                tu.segment_mean(table, ids, 2, indptr, rows=rows)

    def test_one_entry_per_id(self):
        ids = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="one entry per id"):
            tu.segment_sum(np.ones((2, 2), np.float32), ids, 2)
        with pytest.raises(ValueError, match="one entry per id"):
            tu.segment_sum(np.ones((5, 2), np.float32), ids, 2, rows=np.array([0, 1]))


class TestAgainstScipySparse:
    """An oracle that shares nothing with NumPy's reductions: CSR x dense (ROADMAP item 5)."""

    @given(run_lengths(), st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sum_and_mean_are_a_csr_product(self, lengths, shuffle, seed):
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(seed)
        lengths = np.asarray(lengths)
        ids = np.repeat(np.arange(len(lengths)), lengths)
        if shuffle:
            rng.shuffle(ids)
        # Small integers in float64: every association of every sum is exact.
        table = rng.integers(-8, 9, size=(17, 5)).astype(np.float64)
        rows = rng.integers(0, 17, size=len(ids))
        incidence = sparse.csr_matrix(
            (np.ones(len(ids)), (ids, rows)), shape=(len(lengths), 17))
        np.testing.assert_array_equal(
            tu.segment_sum(table, ids, len(lengths), rows=rows), incidence @ table)
        np.testing.assert_array_equal(
            tu.segment_mean(table, ids, len(lengths), rows=rows),
            (incidence @ table) / np.maximum(lengths, 1)[:, None])
