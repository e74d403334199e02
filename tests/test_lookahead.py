"""Tests for the look-ahead minibatch queue and its timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.lookahead import LookaheadQueue, simulate_lookahead, steady_state_step_time


class TestLookaheadQueue:
    def test_submit_and_pop_ready(self):
        queue = LookaheadQueue(capacity=1)
        queue.submit("mb1", prepare_time=1.0, now=0.0)
        payload, stall = queue.pop(now=2.0)
        assert payload == "mb1"
        assert stall == 0.0

    def test_pop_stalls_when_not_ready(self):
        queue = LookaheadQueue(capacity=1)
        queue.submit("mb1", prepare_time=3.0, now=0.0)
        _, stall = queue.pop(now=1.0)
        assert stall == pytest.approx(2.0)
        assert queue.stats.total_stall == pytest.approx(2.0)

    def test_capacity_enforced(self):
        queue = LookaheadQueue(capacity=1)
        queue.submit("a", 1.0, 0.0)
        assert queue.is_full
        with pytest.raises(RuntimeError):
            queue.submit("b", 1.0, 0.0)

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError):
            LookaheadQueue().pop(0.0)

    def test_single_worker_serializes_preparations(self):
        queue = LookaheadQueue(capacity=2, workers=1)
        queue.submit("a", 2.0, now=0.0)
        queue.submit("b", 2.0, now=0.0)
        assert queue.peek_ready_at() == pytest.approx(2.0)
        queue.pop(now=10.0)
        # Second preparation could only start after the first finished.
        assert queue.peek_ready_at() == pytest.approx(4.0)

    def test_two_workers_overlap_preparations(self):
        queue = LookaheadQueue(capacity=2, workers=2)
        queue.submit("a", 2.0, now=0.0)
        queue.submit("b", 2.0, now=0.0)
        queue.pop(now=10.0)
        assert queue.peek_ready_at() == pytest.approx(2.0)

    def test_stats_track_depth_and_pops(self):
        queue = LookaheadQueue(capacity=3, workers=3)
        for name in "abc":
            queue.submit(name, 1.0, 0.0)
        assert queue.stats.max_queue_depth == 3
        queue.pop(5.0)
        queue.pop(5.0)
        assert queue.stats.pops == 2
        assert queue.stats.mean_stall == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LookaheadQueue(capacity=0)
        with pytest.raises(ValueError):
            LookaheadQueue().submit("x", -1.0, 0.0)


class TestSteadyStateFormula:
    def test_matches_eq5_for_single_lookahead(self):
        assert steady_state_step_time(2.0, 3.0, lookahead=1) == 3.0
        assert steady_state_step_time(4.0, 3.0, lookahead=1) == 4.0

    def test_deeper_lookahead_divides_preparation(self):
        assert steady_state_step_time(4.0, 1.0, lookahead=4) == 1.0
        assert steady_state_step_time(4.0, 1.0, lookahead=2) == 2.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            steady_state_step_time(-1.0, 1.0)
        with pytest.raises(ValueError):
            steady_state_step_time(1.0, 1.0, lookahead=0)


class TestSimulation:
    def test_empty_run(self):
        total, stats = simulate_lookahead([], [])
        assert total == 0.0 and stats.pops == 0

    def test_perfect_overlap_total(self):
        # prepare 1s, train 2s -> after the first prepare, training dominates.
        total, stats = simulate_lookahead([1.0] * 10, [2.0] * 10, lookahead=1)
        assert total == pytest.approx(1.0 + 10 * 2.0)
        assert stats.total_stall == 0.0

    def test_preparation_bound_total(self):
        # prepare 3s, train 1s with lookahead=1 -> steady state bound by preparation.
        total, _ = simulate_lookahead([3.0] * 10, [1.0] * 10, lookahead=1)
        expected_steady = steady_state_step_time(3.0, 1.0, 1)
        assert total == pytest.approx(3.0 + 1.0 + 9 * expected_steady, rel=0.05)

    def test_deeper_lookahead_reduces_preparation_bound_time(self):
        shallow, _ = simulate_lookahead([3.0] * 20, [1.0] * 20, lookahead=1)
        deep, _ = simulate_lookahead([3.0] * 20, [1.0] * 20, lookahead=3)
        assert deep < shallow

    def test_deeper_lookahead_never_helps_when_training_bound(self):
        shallow, _ = simulate_lookahead([1.0] * 20, [2.0] * 20, lookahead=1)
        deep, _ = simulate_lookahead([1.0] * 20, [2.0] * 20, lookahead=4)
        assert deep == pytest.approx(shallow)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            simulate_lookahead([1.0], [1.0, 2.0])

    def test_total_time_nonincreasing_in_depth(self):
        totals = [simulate_lookahead([4.0] * 50, [1.0] * 50, lookahead=k)[0] for k in range(1, 5)]
        assert all(totals[i + 1] <= totals[i] + 1e-9 for i in range(len(totals) - 1))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=30),
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=30),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_time_bounds(self, prepares, trains, lookahead):
        """Property: total time is at least the training-only lower bound and at
        most the fully serialized upper bound."""
        n = min(len(prepares), len(trains))
        prepares, trains = prepares[:n], trains[:n]
        total, _ = simulate_lookahead(prepares, trains, lookahead=lookahead)
        lower = sum(trains) + prepares[0]
        upper = sum(trains) + sum(prepares) + 1e-9
        assert lower - 1e-9 <= total <= upper
