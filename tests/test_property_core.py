"""Property-based tests for the prefetch buffer, scoreboards, and hit-rate metrics."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scoreboard_oracle import CompactAccessScoreboard

from repro.core.buffer import PrefetchBuffer
from repro.core.config import PrefetchConfig
from repro.core.metrics import HitRateTracker, hit_rate
from repro.core.scoreboard import DenseAccessScoreboard, EvictionScores
from repro.nn import tensor_utils as tu


@st.composite
def buffer_and_queries(draw):
    universe = draw(st.integers(min_value=4, max_value=200))
    capacity = draw(st.integers(min_value=1, max_value=min(universe, 32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ids = rng.choice(universe, size=capacity, replace=False).astype(np.int64)
    dim = draw(st.integers(min_value=1, max_value=8))
    feats = rng.normal(size=(capacity, dim)).astype(np.float32)
    num_queries = draw(st.integers(min_value=0, max_value=64))
    queries = rng.integers(0, universe, size=num_queries).astype(np.int64)
    return ids, feats, queries


class TestBufferProperties:
    @given(buffer_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_membership(self, data):
        ids, feats, queries = data
        buf = PrefetchBuffer(ids, feats)
        hit_mask, slots = buf.lookup(queries)
        expected = np.isin(queries, ids)
        np.testing.assert_array_equal(hit_mask, expected)
        # Every hit returns exactly the stored feature row.
        for q, hit, slot in zip(queries, hit_mask, slots):
            if hit:
                original_row = feats[np.nonzero(ids == q)[0][0]]
                np.testing.assert_allclose(buf.get_features(np.array([slot]))[0], original_row)

    @given(buffer_and_queries(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_replace_preserves_capacity_and_uniqueness(self, data, seed):
        ids, feats, _ = data
        buf = PrefetchBuffer(ids, feats)
        rng = np.random.default_rng(seed)
        num_replace = rng.integers(0, buf.capacity + 1)
        if num_replace == 0:
            return
        slots = rng.choice(buf.capacity, size=num_replace, replace=False)
        # New ids disjoint from anything resident.
        new_ids = (np.arange(num_replace) + ids.max() + 1000).astype(np.int64)
        new_feats = rng.normal(size=(num_replace, buf.feature_dim)).astype(np.float32)
        buf.replace(slots, new_ids, new_feats)
        assert buf.capacity == len(ids)
        assert len(np.unique(buf.node_ids)) == buf.capacity
        assert buf.contains(new_ids).all()


class TestScoreboardProperties:
    @given(
        st.lists(st.integers(0, 499), min_size=1, max_size=60, unique=True),
        st.lists(st.integers(0, 59), min_size=0, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_dense_and_compact_agree(self, halo_list, increment_positions):
        halo = np.array(sorted(halo_list), dtype=np.int64)
        dense = DenseAccessScoreboard(500, halo)
        compact = CompactAccessScoreboard(halo)
        increments = halo[np.array(increment_positions, dtype=np.int64) % len(halo)] if increment_positions else np.zeros(0, dtype=np.int64)
        if len(increments):
            dense.increment(increments)
            compact.increment(increments)
        np.testing.assert_allclose(dense.get(halo), compact.get(halo))
        np.testing.assert_array_equal(
            np.sort(dense.top_candidates(3)), np.sort(compact.top_candidates(3))
        )

    @given(
        st.integers(1, 64),
        st.floats(min_value=0.01, max_value=0.999),
        st.integers(1, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_eviction_scores_bounded_by_decay(self, capacity, gamma, rounds):
        scores = EvictionScores(capacity)
        for _ in range(rounds):
            scores.decay(np.ones(capacity, dtype=bool), gamma)
        np.testing.assert_allclose(scores.values, gamma ** rounds, rtol=1e-9)
        # Eq. 1 threshold: after exactly delta unused rounds the score equals alpha.
        config = PrefetchConfig(gamma=gamma, delta=rounds)
        assert scores.values[0] <= config.effective_alpha + 1e-12


class TestMetricProperties:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_hit_rate_always_in_unit_interval(self, steps):
        tracker = HitRateTracker()
        for hits, misses in steps:
            tracker.record(hits, misses)
        assert 0.0 <= tracker.cumulative_hit_rate <= 1.0
        hits = np.asarray(tracker.hits_history, dtype=np.float64)
        per_step = hits / np.maximum(hits + tracker.misses_history, 1.0)
        assert np.all((per_step >= 0) & (per_step <= 1))
        running = tracker.running_hit_rate()
        assert np.all((running >= 0) & (running <= 1))
        total_h = sum(h for h, _ in steps)
        total_m = sum(m for _, m in steps)
        assert tracker.cumulative_hit_rate == hit_rate(total_h, total_m)

    @given(
        st.integers(1, 50),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_segment_mean_bounded_by_extremes(self, num_edges, num_segments, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(num_edges, 3))
        segments = rng.integers(0, num_segments, size=num_edges)
        mean = tu.segment_mean(values, segments, num_segments)
        for s in range(num_segments):
            rows = values[segments == s]
            if len(rows) == 0:
                np.testing.assert_allclose(mean[s], 0.0)
            else:
                assert np.all(mean[s] <= rows.max(axis=0) + 1e-9)
                assert np.all(mean[s] >= rows.min(axis=0) - 1e-9)

    @given(st.integers(1, 80), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_segment_softmax_sums_to_one_per_nonempty_segment(self, num_edges, num_segments, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(num_edges, 2))
        segments = rng.integers(0, num_segments, size=num_edges)
        alpha = tu.segment_softmax(scores, segments, num_segments)
        sums = tu.segment_sum(alpha, segments, num_segments)
        for s in range(num_segments):
            if np.any(segments == s):
                np.testing.assert_allclose(sums[s], 1.0, rtol=1e-5)
