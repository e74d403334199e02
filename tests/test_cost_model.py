"""Tests for the simulated cost model and clocks."""

import pytest

from repro.distributed.clock import SimClock, mean_breakdown, merge_breakdowns
from repro.distributed.cost_model import BYTES_PER_FEATURE, CostModel


class TestCostModelPresets:
    def test_cpu_preset(self, cpu_cost_model):
        assert cpu_cost_model.backend == "cpu"
        cpu_cost_model.validate()

    def test_gpu_preset_faster_compute(self, cpu_cost_model, gpu_cost_model):
        assert gpu_cost_model.compute_flops_per_s > 3 * cpu_cost_model.compute_flops_per_s
        assert gpu_cost_model.allreduce_bandwidth_Bps > cpu_cost_model.allreduce_bandwidth_Bps

    def test_preset_dispatch(self):
        assert CostModel.preset("cpu").backend == "cpu"
        assert CostModel.preset("gpu").backend == "gpu"
        with pytest.raises(ValueError):
            CostModel.preset("tpu")

    def test_scaled(self, cpu_cost_model):
        scaled = cpu_cost_model.scaled(rpc_latency_s=2.0)
        assert scaled.rpc_latency_s == pytest.approx(2 * cpu_cost_model.rpc_latency_s)
        with pytest.raises(AttributeError):
            cpu_cost_model.scaled(nonexistent=2.0)


class TestComponentTimes:
    def test_rpc_time_zero_nodes(self, cpu_cost_model):
        assert cpu_cost_model.time_rpc(0, 128) == 0.0

    def test_rpc_latency_plus_bandwidth(self, cpu_cost_model):
        cm = cpu_cost_model
        t = cm.time_rpc(100, 128, num_requests=2)
        expected = 2 * cm.rpc_latency_s + 100 * 128 * BYTES_PER_FEATURE / cm.network_bandwidth_Bps
        assert t == pytest.approx(expected)

    def test_rpc_slower_than_copy(self, cpu_cost_model):
        assert cpu_cost_model.time_rpc(1000, 128) > cpu_cost_model.time_copy(1000, 128)

    def test_copy_scales_linearly(self, cpu_cost_model):
        assert cpu_cost_model.time_copy(200, 64) == pytest.approx(
            2 * cpu_cost_model.time_copy(100, 64)
        )

    def test_sampling_time(self, cpu_cost_model):
        assert cpu_cost_model.time_sampling(1000) == pytest.approx(
            1000 * cpu_cost_model.sample_cost_per_edge_s
        )
        assert cpu_cost_model.time_sampling(-5) == 0.0

    def test_compute_time_backend_gap(self, cpu_cost_model, gpu_cost_model):
        flops = 1e9
        assert cpu_cost_model.time_compute(flops) > gpu_cost_model.time_compute(flops)

    def test_allreduce_zero_for_single_trainer(self, cpu_cost_model):
        assert cpu_cost_model.time_allreduce(10_000, 1) == 0.0

    def test_allreduce_grows_with_world_size(self, cpu_cost_model):
        t2 = cpu_cost_model.time_allreduce(1_000_000, 2)
        t8 = cpu_cost_model.time_allreduce(1_000_000, 8)
        assert t8 > t2

    def test_lookup_scoring_eviction_nonnegative(self, cpu_cost_model):
        assert cpu_cost_model.time_lookup(100) > 0
        assert cpu_cost_model.time_scoring(100) > 0
        assert cpu_cost_model.time_eviction(100, 10) > 0
        assert cpu_cost_model.time_lookup(0) == 0.0


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.0, "rpc")
        clock.advance(0.5, "ddp")
        assert clock.time == pytest.approx(1.5)
        assert clock.component_time("rpc") == pytest.approx(1.0)

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance(1.0, "ddp")
        clock.advance_to(3.0)
        assert clock.time == pytest.approx(3.0)
        assert clock.component_time("stall") == pytest.approx(2.0)
        # advancing to a past timestamp is a no-op
        clock.advance_to(1.0)
        assert clock.time == pytest.approx(3.0)

    def test_reset(self):
        clock = SimClock()
        clock.advance(2.0, "rpc")
        clock.reset()
        assert clock.time == 0.0
        assert clock.breakdown() == {}

    def test_merge_and_mean_breakdowns(self):
        a, b = SimClock(), SimClock()
        a.advance(1.0, "rpc")
        b.advance(3.0, "rpc")
        merged = merge_breakdowns([a, b])
        assert merged["rpc"] == pytest.approx(4.0)
        mean = mean_breakdown([a, b])
        assert mean["rpc"] == pytest.approx(2.0)

    def test_mean_breakdown_of_no_clocks_is_empty(self):
        assert mean_breakdown([]) == {}

    def test_component_time_of_an_unrecorded_component_is_zero(self):
        clock = SimClock()
        clock.advance(1.0, "rpc")
        assert clock.component_time("ddp") == 0.0
        assert "ddp" not in clock.breakdown()

    def test_breakdown_is_a_copy(self):
        clock = SimClock()
        clock.advance(1.0, "rpc")
        clock.breakdown()["rpc"] = 99.0
        assert clock.component_time("rpc") == 1.0

    def test_snapshot_restore_is_bit_exact(self):
        clock = SimClock()
        for seconds, component in [(0.1, "rpc"), (0.2, "ddp"), (0.3, "rpc")]:
            clock.advance(seconds, component)
        state = clock.snapshot()
        clock.advance(5.0, "rpc")
        clock.advance(1.0, "stall")
        clock.restore(state)
        assert clock.time == 0.1 + 0.2 + 0.3
        assert clock.breakdown() == {"rpc": 0.1 + 0.3, "ddp": 0.2}

    def test_snapshot_is_detached_from_the_clock(self):
        clock = SimClock()
        clock.advance(1.0, "rpc")
        state = clock.snapshot()
        clock.advance(2.0, "rpc")
        assert state == {"time": 1.0, "components": {"rpc": 1.0}}

    def test_restored_clock_keeps_accumulating(self):
        clock = SimClock()
        clock.restore({"time": 2.0, "components": {"ddp": 2.0}})
        clock.advance(1.0, "ddp")
        clock.advance(0.5, "rpc")
        assert clock.time == 3.5
        assert clock.breakdown() == {"ddp": 3.0, "rpc": 0.5}
