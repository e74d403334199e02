"""Unit tests for the discrete-event core (repro.events)."""

import numpy as np
import pytest

from repro.distributed.clock import SimClock
from repro.distributed.cost_model import CongestedCostModel, CostModel
from repro.events.loop import EventLoop
from repro.events.schedule import (
    FAILURE_HORIZON_STEPS,
    CongestionSpec,
    FailureSchedule,
    FailureSpec,
)


class TestEventLoop:
    def test_pops_in_time_order(self):
        loop = EventLoop()
        loop.push(3.0, "c", rank=0)
        loop.push(1.0, "a", rank=0)
        loop.push(2.0, "b", rank=0)
        assert [loop.pop().kind for _ in range(3)] == ["a", "b", "c"]
        assert loop.pop() is None

    def test_ties_broken_by_rank_then_seq(self):
        loop = EventLoop()
        loop.push(1.0, "r2-first", rank=2)
        loop.push(1.0, "r0", rank=0)
        loop.push(1.0, "r2-second", rank=2)
        loop.push(1.0, "engine", rank=-1)
        kinds = [loop.pop().kind for _ in range(4)]
        assert kinds == ["engine", "r0", "r2-first", "r2-second"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().push(-0.1, "bad")

    def test_history_records_pop_order(self):
        loop = EventLoop(record=True)
        loop.push(2.0, "b", rank=1)
        loop.push(1.0, "a", rank=0)
        loop.pop(), loop.pop()
        assert [h[0] for h in loop.history] == ["a", "b"]
        assert [h[2] for h in loop.history] == [0, 1]

    def test_history_is_opt_in(self):
        loop = EventLoop()
        loop.push(1.0, "a", rank=0)
        assert loop.pop().kind == "a"
        assert loop.history == []


class TestFailureSchedule:
    def test_same_seed_same_plan(self):
        spec = FailureSpec(rate=0.2)
        a = FailureSchedule(spec, world_size=4, seed=7)
        b = FailureSchedule(spec, world_size=4, seed=7)
        for rank in range(4):
            assert a._plan[rank] == b._plan[rank]

    def test_different_seed_different_plan(self):
        spec = FailureSpec(rate=0.2)
        a = FailureSchedule(spec, world_size=4, seed=7)
        b = FailureSchedule(spec, world_size=4, seed=8)
        assert any(a._plan[r] != b._plan[r] for r in range(4))

    def test_per_rank_plans_independent_of_world_size(self):
        spec = FailureSpec(rate=0.2)
        small = FailureSchedule(spec, world_size=2, seed=7)
        large = FailureSchedule(spec, world_size=6, seed=7)
        for rank in range(2):
            assert small._plan[rank] == large._plan[rank]

    def test_downtime_factor_bounds(self):
        spec = FailureSpec(rate=0.5, min_downtime_steps=2.0, max_downtime_steps=4.0)
        schedule = FailureSchedule(spec, world_size=2, seed=0)
        factors = [
            schedule.downtime_factor(rank, step)
            for rank in range(2)
            for step in range(FAILURE_HORIZON_STEPS)
            if schedule.downtime_factor(rank, step) is not None
        ]
        assert factors, "a 50% rate over the horizon must schedule failures"
        assert all(2.0 <= f <= 4.0 for f in factors)

    def test_zero_rate_schedules_nothing(self):
        schedule = FailureSchedule(FailureSpec(rate=0.0), world_size=3, seed=1)
        assert all(schedule.downtime_factor(rank, step) is None
                   for rank in range(3) for step in range(FAILURE_HORIZON_STEPS))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FailureSpec(rate=1.5)
        with pytest.raises(ValueError):
            FailureSpec(min_downtime_steps=5.0, max_downtime_steps=2.0)


class TestCongestion:
    def test_square_wave_windows(self):
        spec = CongestionSpec(period_s=1.0, duty=0.5, latency_multiplier=8.0,
                              bandwidth_divisor=2.0)
        assert spec.congested_at(0.1) and spec.congested_at(0.49)
        assert not spec.congested_at(0.51) and not spec.congested_at(0.99)
        assert spec.congested_at(1.25)  # periodic
        assert spec.factors_at(0.1) == (8.0, 2.0)
        assert spec.factors_at(0.6) == (1.0, 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CongestionSpec(duty=0.0)
        with pytest.raises(ValueError):
            CongestionSpec(latency_multiplier=0.5)

    def test_congested_cost_model_scales_rpc_only(self):
        base = CostModel.cpu()
        clock = SimClock()
        spec = CongestionSpec(period_s=1.0, duty=0.5, latency_multiplier=10.0,
                              bandwidth_divisor=4.0)
        model = CongestedCostModel(base, spec, clock)
        # Congested window (t=0): latency x10, bandwidth /4.
        congested = model.time_rpc(100, 32, num_requests=2)
        payload = 100 * 32 * 4
        expected = 2 * base.rpc_latency_s * 10.0 + payload * 4.0 / base.network_bandwidth_Bps
        assert congested == pytest.approx(expected)
        # Clear window: identical to the base model.
        clock.advance(0.6)
        assert model.time_rpc(100, 32, num_requests=2) == pytest.approx(
            base.time_rpc(100, 32, num_requests=2)
        )
        # Non-RPC components always delegate untouched.
        assert model.time_copy(100, 32) == base.time_copy(100, 32)
        assert model.time_allreduce(1000, 4) == base.time_allreduce(1000, 4)
        assert model.backend == base.backend

    def test_congested_batched_pull_empty_is_free(self):
        model = CongestedCostModel(CostModel.cpu(), CongestionSpec(), SimClock())
        assert model.time_rpc_batched(0, 32, 0) == 0.0
        assert model.time_rpc(0, 32) == 0.0

    def test_deterministic_given_clock(self):
        base = CostModel.cpu()
        spec = CongestionSpec()
        times = []
        for _ in range(2):
            clock = SimClock()
            model = CongestedCostModel(base, spec, clock)
            clock.advance(1.234e-3)
            times.append(model.time_rpc(50, 16))
        assert times[0] == times[1]

    def test_factors_vary_over_time(self):
        spec = CongestionSpec(period_s=2.0e-3, duty=0.5)
        samples = {spec.congested_at(t) for t in np.linspace(0, 4.0e-3, 41)}
        assert samples == {True, False}
