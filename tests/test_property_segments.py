"""Property tests: the CSR segment reductions against a ``ufunc.at`` scatter oracle.

The oracle below is the implementation ``repro.nn.tensor_utils`` used before
aggregation became a reduce over contiguous runs; it survives only here.
Float64 cases draw small integers, so every association of the sums is exact
and the comparison is bit-for-bit; float32 cases draw normals and get the
tolerance the dtype allows (sums are re-associated, never re-defined).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import tensor_utils as tu


# --------------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------------- #
def oracle_sum(values, ids, n):
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


def _divisor(ids, n, like):
    counts = np.maximum(np.bincount(ids, minlength=n), 1).astype(like.dtype)
    return counts.reshape((-1,) + (1,) * (like.ndim - 1))


def oracle_mean(values, ids, n):
    return oracle_sum(values, ids, n) / _divisor(ids, n, values)


def oracle_mean_backward(grad_out, ids, n):
    return (grad_out / _divisor(ids, n, grad_out))[ids]


def oracle_softmax(scores, ids, n):
    if len(scores) == 0:
        return scores.copy()
    seg_max = np.full((n,) + scores.shape[1:], -np.inf, dtype=scores.dtype)
    np.maximum.at(seg_max, ids, scores)
    exp = np.exp(scores - seg_max[ids])
    denom = np.maximum(oracle_sum(exp, ids, n), np.finfo(scores.dtype).tiny)
    return exp / denom[ids]


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #
@st.composite
def segment_cases(draw):
    """(values, ids, num_segments, indptr-or-None) over the shapes the layers produce."""
    num_segments = draw(st.integers(1, 12))
    lo = draw(st.integers(0, num_segments - 1))       # leading empty segments
    hi = draw(st.integers(lo, num_segments - 1))      # trailing empty segments
    num_edges = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ids = rng.integers(lo, hi + 1, size=num_edges).astype(np.int64)
    if hi - lo >= 2 and draw(st.booleans()):          # an interior empty segment
        ids[ids == lo + 1] = lo
    is_sorted = draw(st.booleans())
    if is_sorted:
        ids.sort()
    trailing = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    if draw(st.booleans()):
        values = rng.integers(-8, 9, size=(num_edges,) + trailing).astype(np.float64)
    else:
        values = rng.normal(size=(num_edges,) + trailing).astype(np.float32)
    # Grouped ids may hand over their offsets, as Block.dst_indptr does.
    indptr = None
    if is_sorted and draw(st.booleans()):
        indptr = np.searchsorted(ids, np.arange(num_segments + 1))
    return values, ids, num_segments, indptr


def assert_matches(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    if expected.dtype == np.float64:
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-5)


class TestSegmentReductionsMatchScatterOracle:
    @given(segment_cases())
    @settings(max_examples=150, deadline=None)
    def test_segment_sum(self, case):
        values, ids, n, indptr = case
        assert_matches(tu.segment_sum(values, ids, n, indptr), oracle_sum(values, ids, n))

    @given(segment_cases())
    @settings(max_examples=150, deadline=None)
    def test_segment_mean(self, case):
        values, ids, n, indptr = case
        assert_matches(tu.segment_mean(values, ids, n, indptr), oracle_mean(values, ids, n))

    @given(segment_cases())
    @settings(max_examples=100, deadline=None)
    def test_segment_mean_backward(self, case):
        """Summing ``grad / count`` through ``rows=ids`` sums the per-entry matrix, to the bit."""
        values, ids, n, indptr = case
        grad_out = oracle_sum(values, ids, n)  # any (n, ...) array of the right dtype
        sources = np.random.default_rng(len(ids)).integers(0, 7, size=len(ids))
        quotient = grad_out / tu.mean_divisor(ids, n, indptr, grad_out)
        np.testing.assert_array_equal(
            tu.segment_sum(quotient, sources, 7, rows=ids),
            tu.segment_sum(oracle_mean_backward(grad_out, ids, n), sources, 7),
        )

    @given(segment_cases())
    @settings(max_examples=150, deadline=None)
    def test_segment_softmax(self, case):
        scores, ids, n, indptr = case
        actual = tu.segment_softmax(scores, ids, n, indptr)
        expected = oracle_softmax(scores, ids, n)
        assert actual.shape == expected.shape and actual.dtype == expected.dtype
        # exp() of identical shifts, divided by re-associated sums of them.
        rtol = 1e-12 if scores.dtype == np.float64 else 1e-5
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=0)


class TestSegmentEdgeCases:
    def test_zero_edges_give_fill_rows(self):
        empty = np.zeros((0, 3), dtype=np.float32)
        ids = np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(tu.segment_sum(empty, ids, 4), np.zeros((4, 3)))
        np.testing.assert_array_equal(tu.segment_mean(empty, ids, 4), np.zeros((4, 3)))
        np.testing.assert_array_equal(
            tu.segment_sum(np.ones((4, 3), np.float32), ids, 2, rows=ids), np.zeros((2, 3)))

    def test_one_long_segment_keeps_edge_order(self):
        # Within a segment rows are reduced in their original order, so a
        # float32 sum that depends on association repeats the scatter's bits.
        values = np.array([[1e8], [1.0], [-1e8], [1.0]], dtype=np.float32)
        ids = np.zeros(4, dtype=np.int64)
        np.testing.assert_array_equal(tu.segment_sum(values, ids, 1), oracle_sum(values, ids, 1))

    def test_unsorted_ids_are_stable_sorted(self):
        values = np.array([[1e8], [5.0], [1.0], [-1e8]], dtype=np.float32)
        ids = np.array([1, 0, 1, 1])
        np.testing.assert_array_equal(tu.segment_sum(values, ids, 2), oracle_sum(values, ids, 2))

    @pytest.mark.parametrize("bad", [[0, 3], [-1, 0]])
    def test_out_of_range_ids_raise(self, bad):
        with pytest.raises(ValueError, match=r"ids must lie in \[0, 3\)"):
            tu.segment_sum(np.ones((2, 2)), np.array(bad), 3)

    @pytest.mark.parametrize("indptr", [[0, 1, 2], [0, 1, 1, 1], [0, 1, 2, 3]])
    def test_indptr_that_disagrees_with_the_rows_raises(self, indptr):
        # Too few offsets, or offsets that do not end at the last row, would
        # silently drop or mis-sum rows.
        with pytest.raises(ValueError, match="indptr must hold num_segments \\+ 1 offsets"):
            tu.segment_sum(np.ones((2, 2)), np.array([0, 1]), 3, np.array(indptr))


class TestFusedGather:
    """``rows=`` reads ``values`` through an index; the bits must not notice."""

    @given(segment_cases(), st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_segment_mean_of_rows_equals_mean_of_the_gathered_matrix(self, case, table_rows):
        values, ids, n, indptr = case
        rng = np.random.default_rng(len(ids))
        table = rng.normal(size=(table_rows,) + values.shape[1:]).astype(values.dtype)
        rows = rng.integers(0, table_rows, size=len(ids))
        fused = tu.segment_mean(table, ids, n, indptr, rows=rows)
        plain = tu.segment_mean(table[rows], ids, n, indptr)
        assert fused.dtype == plain.dtype
        np.testing.assert_array_equal(fused, plain)

    @pytest.mark.parametrize("fanouts", [[3], [10, 25], [-1, 4]], ids=str)
    def test_sage_layer_forward_backward(self, small_dataset, fanouts):
        """The layer's fused aggregation against the two-gather formula it replaced."""
        from repro.nn.graphsage import SAGELayer
        from repro.sampling.neighbor_sampler import NeighborSampler

        minibatch = NeighborSampler(small_dataset.graph, fanouts, seed=8).sample(np.arange(30))
        block = minibatch.blocks[0]
        h_src = small_dataset.features[minibatch.input_global].astype(np.float32)
        layer = SAGELayer(h_src.shape[1], 16, seed=2)

        agg = tu.segment_mean(h_src[block.edge_src], block.edge_dst, block.num_dst,
                              block.dst_indptr)
        pre = h_src[: block.num_dst] @ layer.w_self.value + agg @ layer.w_neigh.value \
            + layer.bias.value
        out = layer.forward(block, h_src)
        np.testing.assert_array_equal(out, tu.relu(pre))

        grad_out = np.random.default_rng(0).normal(size=out.shape).astype(np.float32)
        grad_pre = tu.relu_backward(grad_out, pre)
        grad_h_src = layer.backward(grad_out)
        np.testing.assert_array_equal(layer.w_neigh.grad, agg.T @ grad_pre)
        grad_messages = oracle_mean_backward(
            grad_pre @ layer.w_neigh.value.T, block.edge_dst, block.num_dst)
        expected = tu.segment_sum(grad_messages, block.edge_src, block.num_src)
        expected[: block.num_dst] += grad_pre @ layer.w_self.value.T
        np.testing.assert_array_equal(grad_h_src, expected)
