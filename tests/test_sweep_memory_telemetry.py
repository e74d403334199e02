"""Tests for parameter sweeps, memory profiling, and telemetry structures."""

import numpy as np
import pytest

from repro.core.config import PrefetchConfig
from repro.core.metrics import HitRateTracker
from repro.scenarios import SCENARIOS
from repro.training.config import TrainConfig
from repro.training.memory import compare_memory, profile_memory
from repro.training.sweep import (
    delta_sweep,
    find_optimal,
    gamma_sweep,
    run_parameter_sweep,
)
from repro.training.telemetry import (
    ComponentAccumulator,
    EpochRecord,
    StepTiming,
    TrainingReport,
)


QUICK_SCENARIO = SCENARIOS.build("uniform").with_overrides(
    trainers_per_machine=1, batch_size=128, fanouts=(4, 6)
)
QUICK_SEED = 3
QUICK_TRAIN = TrainConfig(epochs=1, hidden_dim=16, seed=0)


class TestSweeps:
    def test_run_parameter_sweep_shape(self, small_dataset):
        sweep = run_parameter_sweep(
            QUICK_SCENARIO,
            seed=QUICK_SEED,
            dataset=small_dataset,
            train_config=QUICK_TRAIN,
            halo_fractions=(0.25,),
            gammas=(0.95, 0.995),
            deltas=(8,),
        )
        assert len(sweep.points) == 2
        assert sweep.baseline.mode == "baseline"
        for point in sweep.points:
            assert point.total_time_s > 0
            assert 0.0 <= point.hit_rate <= 1.0

    def test_include_no_eviction_adds_point(self, small_dataset):
        sweep = run_parameter_sweep(
            QUICK_SCENARIO,
            seed=QUICK_SEED,
            dataset=small_dataset,
            train_config=QUICK_TRAIN,
            halo_fractions=(0.25,),
            gammas=(0.995,),
            deltas=(8,),
            include_no_eviction=True,
        )
        assert len(sweep.points) == 2
        assert any(not p.eviction_enabled for p in sweep.points)

    def test_no_eviction_point_claims_no_gamma_or_delta(self, small_dataset):
        sweep = run_parameter_sweep(
            QUICK_SCENARIO, seed=QUICK_SEED, dataset=small_dataset, train_config=QUICK_TRAIN,
            halo_fractions=(0.25,), gammas=(0.95,), deltas=(8,), include_no_eviction=True,
        )
        assert [(p.eviction_enabled, p.gamma, p.delta) for p in sweep.points] == [
            (False, None, None), (True, 0.95, 8),
        ]
        sweep.points = sweep.points[:1]
        optimal = find_optimal(sweep)
        assert optimal["eviction_enabled"] is False
        assert optimal["gamma"] is None and optimal["delta"] is None

    def test_best_and_find_optimal(self, small_dataset):
        sweep = run_parameter_sweep(
            QUICK_SCENARIO,
            seed=QUICK_SEED,
            dataset=small_dataset,
            train_config=QUICK_TRAIN,
            halo_fractions=(0.15, 0.5),
            gammas=(0.995,),
            deltas=(8,),
        )
        best = sweep.best(by="time")
        assert best.total_time_s == min(p.total_time_s for p in sweep.points)
        optimal = find_optimal(sweep)
        assert optimal["total_time_s"] == pytest.approx(best.total_time_s)
        assert optimal["eviction_enabled"] is True
        best_hit = sweep.best(by="hit_rate")
        assert best_hit.hit_rate == max(p.hit_rate for p in sweep.points)
        with pytest.raises(ValueError):
            sweep.best(by="loss")

    def test_as_rows(self, small_dataset):
        sweep = run_parameter_sweep(
            QUICK_SCENARIO, seed=QUICK_SEED, dataset=small_dataset, train_config=QUICK_TRAIN,
            halo_fractions=(0.25,), gammas=(0.995,), deltas=(8,),
        )
        rows = sweep.as_rows()
        assert len(rows) == 1 and len(rows[0]) == 6

    def test_delta_sweep_structure(self, small_dataset):
        out = delta_sweep(
            QUICK_SCENARIO, gamma_values=[0.995], delta_values=[4, 16],
            seed=QUICK_SEED, dataset=small_dataset, train_config=QUICK_TRAIN,
        )
        assert set(out) == {0.995}
        assert len(out[0.995]) == 2

    def test_gamma_sweep_structure(self, small_dataset):
        out = gamma_sweep(
            QUICK_SCENARIO, gamma_values=[0.95, 0.995], delta_values=[8],
            seed=QUICK_SEED, dataset=small_dataset, train_config=QUICK_TRAIN,
        )
        assert set(out) == {0.95, 0.995}
        for stats in out.values():
            assert stats["min_time_s"] <= stats["mean_time_s"] <= stats["max_time_s"]

    def test_empty_sweep_best_raises(self, small_dataset):
        from repro.training.sweep import SweepResult
        from repro.training.telemetry import TrainingReport

        empty = SweepResult(
            baseline=TrainingReport(
                mode="baseline", backend="cpu", dataset="x", arch="sage",
                num_machines=1, trainers_per_machine=1, epochs=1,
            ),
            points=[],
        )
        with pytest.raises(ValueError):
            empty.best()


class TestMemoryProfiling:
    def test_profile_and_compare(self, small_dataset):
        profiles = compare_memory(
            QUICK_SCENARIO,
            seed=QUICK_SEED,
            prefetch_config=PrefetchConfig(halo_fraction=0.5, delta=1, gamma=0.95),
            dataset=small_dataset,
            train_config=TrainConfig(epochs=1, hidden_dim=16, max_steps_per_epoch=2, seed=0),
        )
        base, pref = profiles["baseline"], profiles["prefetch"]
        assert base.init_peak_bytes > 0 and base.train_peak_bytes > 0
        assert pref.train_peak_bytes > 0
        # Prefetching should not blow up training peak memory by more than ~2x
        # at this scale (the paper reports ~10% on papers100M).
        assert pref.train_peak_bytes < 3.0 * base.train_peak_bytes
        assert "init_peak_mb" in base.as_dict()

    def test_profile_invalid_mode(self, small_dataset):
        with pytest.raises(ValueError):
            profile_memory(QUICK_SCENARIO, "turbo", dataset=small_dataset)

    def test_baseline_rejects_a_prefetch_config(self, small_dataset):
        """The baseline pipeline never reads it, so it is refused, not dropped."""
        with pytest.raises(ValueError, match="no effect on the 'baseline' pipeline"):
            profile_memory(
                QUICK_SCENARIO, "baseline", prefetch_config=PrefetchConfig(),
                dataset=small_dataset,
            )


class TestTelemetry:
    def test_component_accumulator_mean_and_overlap(self):
        acc = ComponentAccumulator()
        acc.add(StepTiming(sampling=1.0, ddp=2.0, prepare=1.0, hidden=1.0, critical_path=2.0))
        acc.add(StepTiming(sampling=3.0, ddp=2.0, prepare=2.0, hidden=1.0, critical_path=2.0))
        mean = acc.mean()
        assert mean["sampling"] == pytest.approx(2.0)
        assert acc.overlap_efficiency() == pytest.approx(2.0 / 3.0)
        empty = ComponentAccumulator()
        assert empty.mean()["ddp"] == 0.0
        assert empty.overlap_efficiency() == 1.0

    def test_training_report_speedup_helpers(self):
        base = TrainingReport(
            mode="baseline", backend="cpu", dataset="d", arch="sage",
            num_machines=2, trainers_per_machine=2, epochs=1, total_simulated_time_s=10.0,
        )
        fast = TrainingReport(
            mode="prefetch", backend="cpu", dataset="d", arch="sage",
            num_machines=2, trainers_per_machine=2, epochs=1, total_simulated_time_s=8.0,
        )
        assert fast.speedup_vs(base) == pytest.approx(1.25)
        assert fast.improvement_percent_vs(base) == pytest.approx(20.0)
        assert fast.world_size == 4
        assert base.hit_rate == 0.0

    def test_training_report_epoch_helpers(self):
        report = TrainingReport(
            mode="baseline", backend="cpu", dataset="d", arch="sage",
            num_machines=1, trainers_per_machine=1, epochs=2,
            epoch_records=[
                EpochRecord(0, 1.0, 2.0, 0.3),
                EpochRecord(1, 1.5, 1.0, 0.5),
            ],
        )
        np.testing.assert_allclose(report.epoch_times(), [1.0, 1.5])
        assert report.loss_history == [2.0, 1.0]

    def test_hit_rate_from_tracker(self):
        tracker = HitRateTracker()
        tracker.record(3, 1)
        report = TrainingReport(
            mode="prefetch", backend="cpu", dataset="d", arch="sage",
            num_machines=1, trainers_per_machine=1, epochs=1, hit_tracker=tracker,
        )
        assert report.hit_rate == pytest.approx(0.75)
