"""Tests for the serving subsystem: engine replay, reports, engines registry,
the shared percentile helper, and the ``repro serve`` CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.distributed.cluster import SimCluster
from repro.graph.datasets import load_dataset
from repro.scenarios import SCENARIOS, build_scenario
from repro.serving.engine import InferenceClusterEngine
from repro.serving.report import COMPONENTS
from repro.training.config import TrainConfig
from repro.training.engines import ENGINES, build_engine
from repro.training.telemetry import percentile_summary

SCALE = 0.05
REQUESTS = 64


def _run_serving(scenario_name, seed=0, requests=REQUESTS, record_events=False,
                 **spec_overrides):
    """Materialize a serving scenario at test scale; returns (engine, report)."""
    scenario = SCENARIOS.build(scenario_name)
    spec = scenario.serving.with_overrides(num_requests=requests, **spec_overrides)
    scenario = scenario.with_overrides(scale=SCALE, serving=spec)
    dataset = load_dataset(scenario.dataset, scale=scenario.scale, seed=seed)
    cluster = SimCluster(dataset, scenario.cluster_config(seed))
    engine = InferenceClusterEngine(
        cluster, TrainConfig(epochs=1, hidden_dim=32, seed=seed),
        scenario=scenario.name, serving=spec, record_events=record_events,
    )
    report = engine.run(scenario.pipeline, prefetch_config=scenario.prefetch_config,
                        cache_config=scenario.cache_config)
    return engine, report


@pytest.fixture(scope="module")
def steady():
    return _run_serving("steady-poisson", seed=0, record_events=True)


@pytest.fixture(scope="module")
def flash():
    return _run_serving("flash-crowd-burst", seed=0)


class TestEngine:
    def test_every_request_served(self, steady):
        _, report = steady
        assert report.completed == report.num_requests == REQUESTS
        assert len(report.requests) == REQUESTS

    def test_request_ledgers_consistent(self, steady):
        _, report = steady
        for r in report.requests:
            assert r.latency_s > 0
            assert r.queue_wait_s >= -1e-12
            assert r.start_s >= r.arrival_s - 1e-12
            service_s = r.sample_s + r.fetch_s + r.compute_s
            assert r.latency_s == pytest.approx(r.queue_wait_s + service_s)
            assert r.done_s == pytest.approx(r.start_s + service_s)
            assert set(r.component_times_s()) == set(COMPONENTS)

    def test_routing_is_ownership(self, steady):
        engine, report = steady
        owned = {t.global_rank: set(np.asarray(t.partition.owned_global).tolist())
                 for t in engine.cluster.trainers}
        for r in report.requests:
            assert r.user in owned[r.global_rank]

    def test_warmup_off_the_timeline(self, steady):
        _, report = steady
        assert report.warmup_time_s > 0
        first = min(r.arrival_s for r in report.requests)
        assert first < report.warmup_time_s  # timeline restarted at zero

    def test_worker_stats_cover_all_requests(self, steady):
        _, report = steady
        assert sum(w.requests for w in report.worker_stats) == REQUESTS
        for w in report.worker_stats:
            assert w.busy_time_s >= 0
            if w.hit_rate is not None:
                assert 0.0 <= w.hit_rate <= 1.0

    def test_tier_hit_rates_present(self, steady):
        _, report = steady
        tiers = report.mean_tier_hit_rates()
        assert tiers  # the 2-tier serving cache must report per-tier rates
        assert all(0.0 <= rate <= 1.0 for rate in tiers.values())
        summary = report.summary()
        assert any(key.startswith("cache.") for key in summary)
        assert "latency_ms.p99" in summary

    def test_serving_scenarios_run_the_cached_path(self):
        for name in ("steady-poisson", "diurnal-cache-drift", "flash-crowd-burst"):
            scenario = SCENARIOS.build(name)
            assert scenario.pipeline == "tiered-cache"
            assert scenario.cache_config is not None and scenario.cache_config.tiers == 2


class TestDeterminism:
    def test_same_seed_identical_history_and_report(self, steady):
        engine1, report1 = steady
        engine2, report2 = _run_serving("steady-poisson", seed=0, record_events=True)
        assert engine1.event_history == engine2.event_history
        assert len(engine1.event_history) == 2 * REQUESTS  # request + done each
        canon1 = json.dumps(report1.as_dict(), sort_keys=True)
        canon2 = json.dumps(report2.as_dict(), sort_keys=True)
        assert canon1 == canon2

    def test_different_seed_differs(self, steady):
        _, report1 = steady
        _, report2 = _run_serving("steady-poisson", seed=1)
        assert (json.dumps(report1.as_dict(), sort_keys=True)
                != json.dumps(report2.as_dict(), sort_keys=True))


class TestTailBehavior:
    def test_flash_crowd_p99_exceeds_steady(self, steady, flash):
        _, steady_report = steady
        _, flash_report = flash
        assert flash_report.latency_ms()["p99"] > steady_report.latency_ms()["p99"]

    def test_phase_split_only_when_multiphase(self, steady, flash):
        _, steady_report = steady
        _, flash_report = flash
        assert steady_report.phase_latency_ms() == {}
        assert "phase_latency_ms" not in steady_report.as_dict()
        split = flash_report.phase_latency_ms()
        assert set(split) == {"steady", "peak"}
        assert flash_report.as_dict()["phase_latency_ms"] == split

    def test_slo_accounting(self, steady, flash):
        _, flash_report = flash
        by_hand = sum(1 for r in flash_report.requests
                      if r.latency_s > flash_report.slo_ms / 1e3)
        assert flash_report.slo_violations == by_hand
        assert flash_report.slo_violation_rate == pytest.approx(by_hand / REQUESTS)


class TestEnginesRegistry:
    SPEC_SCENARIO = "steady-poisson"

    def _spec(self):
        return SCENARIOS.build(self.SPEC_SCENARIO).serving

    def test_training_engines_reject_serving_spec(self):
        for engine in ("lockstep", "async"):
            with pytest.raises(ValueError, match="serving"):
                build_engine(engine, None, None, serving=self._spec())

    def test_serving_engine_requires_spec(self):
        with pytest.raises(ValueError, match="ServingSpec"):
            build_engine("serving", None, None)

    def test_serving_engine_rejects_failures_and_sync(self):
        from repro.events.schedule import FailureSpec

        with pytest.raises(ValueError, match="failures"):
            build_engine("serving", None, None, serving=self._spec(),
                         failures=FailureSpec(rate=0.1))
        with pytest.raises(ValueError, match="sync"):
            build_engine("serving", None, None, serving=self._spec(),
                         sync="local-sgd")

    def test_aliases_resolve(self):
        assert ENGINES.resolve("serve") == "serving"
        assert ENGINES.resolve("inference") == "serving"

    def test_execution_labels(self):
        assert SCENARIOS.build("steady-poisson").execution == "serving · poisson(1500 rps)"
        assert SCENARIOS.build("flash-crowd-burst").execution.startswith(
            "serving · flash-crowd")
        assert SCENARIOS.build("diurnal-cache-drift").execution.startswith(
            "serving · diurnal")

    def test_serving_scenarios_registered(self):
        names = set(SCENARIOS.names())
        assert {"steady-poisson", "diurnal-cache-drift", "flash-crowd-burst"} <= names


class TestPercentileSummary:
    def test_empty_is_zeros(self):
        out = percentile_summary([])
        assert out == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}

    def test_known_values(self):
        values = list(range(1, 101))
        out = percentile_summary(values)
        assert out["p50"] == pytest.approx(50.5)
        assert out["max"] == 100.0
        assert out["mean"] == pytest.approx(50.5)
        assert out["p99"] == pytest.approx(np.percentile(values, 99.0))

    def test_custom_percentiles(self):
        out = percentile_summary([1.0, 2.0, 3.0], percentiles=(25.0,))
        assert set(out) == {"p25", "mean", "max"}

    def test_cluster_report_busy_time_keys(self):
        workload = build_scenario("uniform", seed=0, scale=SCALE, epochs=1,
                                  train_config=TrainConfig(epochs=1, hidden_dim=32, seed=0))
        report = workload.run()
        summary = report.summary()
        for key in ("p50", "p95", "p99", "mean", "max"):
            assert f"busy_time.{key}" in summary
        # Busy time excludes barrier waits, so its max is bounded by — not
        # equal to — the critical path unless one trainer never waited.
        busiest = report.busy_time_percentiles()["max"]
        assert busiest == pytest.approx(max(t.busy_time_s for t in report.trainer_stats))
        assert busiest <= max(t.simulated_time_s for t in report.trainer_stats)


class TestServeCli:
    ARGS = ["--scale", str(SCALE), "--requests", str(REQUESTS)]

    def test_serve_smoke(self, capsys):
        assert main(["serve", "--scenario", "steady-poisson", "--seed", "3",
                     *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "latency ms:" in out and "SLO" in out
        assert "execution=serving · poisson" in out

    def test_serve_rejects_training_scenario(self, capsys):
        assert main(["serve", "--scenario", "uniform"]) == 2
        err = capsys.readouterr().err
        assert "steady-poisson" in err  # error lists the serving scenarios

    def test_run_cluster_routes_serving_scenario(self, capsys):
        code = main(["run", "--scenario", "flash-crowd-burst",
                     "--scale", str(SCALE), "--epochs", "1", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[serving] flash-crowd" in out
        assert "phase p99 ms:" in out

    def test_serve_trace_deterministic(self, capsys, tmp_path):
        for sub in ("a", "b"):
            assert main(["serve", "--scenario", "steady-poisson", "--seed", "5",
                         "--trace-dir", str(tmp_path / sub), *self.ARGS]) == 0
        capsys.readouterr()
        trace_a = (tmp_path / "a" / "serving_steady-poisson.json").read_bytes()
        trace_b = (tmp_path / "b" / "serving_steady-poisson.json").read_bytes()
        assert trace_a == trace_b
        payload = json.loads(trace_a)
        assert payload["completed"] == REQUESTS
        assert set(payload["component_ms"]) == set(COMPONENTS)

    def test_serve_overrides_spec(self, capsys):
        assert main(["serve", "--scenario", "steady-poisson", "--arrival", "flash-crowd",
                     "--rate", "900", "--slo-ms", "2", "--seed", "3",
                     *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd(900 rps" in out
        assert "SLO 2 ms" in out
