"""ClusterEngine numerics, scenario-registry and cluster-telemetry coverage.

A lockstep run's numbers are pinned by ``tests/golden/single_run.json`` (the
embedded :class:`TrainingReport`) and ``tests/golden/cluster_2x2.json`` (the
cluster roll-up).  What this file pins on top is that explicit unit
``compute_multipliers`` do not perturb a bit and that a straggler machine is
charged.  Runs are compared on freshly built clusters because sampler/seed RNG
streams are stateful across runs on a shared cluster.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.graph.partition import skewed_partition
from repro.scenarios import SCENARIOS, available_scenarios, build_scenario
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig

CLUSTER_KW = dict(batch_size=64, fanouts=(5, 10), seed=7)
PREFETCH = dict(halo_fraction=0.35, gamma=0.995, delta=8)
TRAIN = dict(epochs=2, hidden_dim=32, seed=1)


def _assert_bit_identical(reference, cluster_report):
    """Losses, hit rates, simulated times, and traffic must match exactly."""
    report = cluster_report.report
    assert [r.loss for r in reference.epoch_records] == [r.loss for r in report.epoch_records]
    assert [r.train_accuracy for r in reference.epoch_records] == [
        r.train_accuracy for r in report.epoch_records
    ]
    assert reference.total_simulated_time_s == report.total_simulated_time_s
    assert [r.simulated_time_s for r in reference.epoch_records] == [
        r.simulated_time_s for r in report.epoch_records
    ]
    assert reference.component_breakdown == report.component_breakdown
    assert reference.per_trainer_breakdown == report.per_trainer_breakdown
    assert reference.rpc_stats.as_dict() == report.rpc_stats.as_dict()
    assert reference.num_minibatches == report.num_minibatches
    assert reference.hit_rate == report.hit_rate
    assert [r.hit_rate for r in reference.epoch_records] == [
        r.hit_rate for r in report.epoch_records
    ]
    assert reference.prefetch_init == report.prefetch_init
    assert reference.overlap_efficiency == report.overlap_efficiency


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("pipeline", ["baseline", "prefetch"])
    def test_1x1_cluster_never_waits(self, small_dataset, pipeline):
        """A single trainer never waits for peers and is its own critical path."""
        kwargs = {} if pipeline == "baseline" else {
            "prefetch_config": PrefetchConfig(**PREFETCH)
        }
        config = ClusterConfig(num_machines=1, trainers_per_machine=1, **CLUSTER_KW)
        cluster_report = ClusterEngine(
            SimCluster(small_dataset, config), TrainConfig(**TRAIN)
        ).run(pipeline, **kwargs)
        assert cluster_report.total_barrier_wait_s == 0.0
        assert cluster_report.critical_path_time_s == (
            cluster_report.report.total_simulated_time_s
        )
        assert cluster_report.load_imbalance == 1.0

    def test_explicit_unit_multipliers_are_exact(self, small_dataset):
        """compute_multipliers=(1.0, 1.0) must not perturb a single bit."""
        base = ClusterConfig(num_machines=2, trainers_per_machine=2, **CLUSTER_KW)
        unit = ClusterConfig(
            num_machines=2, trainers_per_machine=2,
            compute_multipliers=(1.0, 1.0), **CLUSTER_KW
        )
        reference = ClusterEngine(
            SimCluster(small_dataset, base), TrainConfig(**TRAIN)
        ).run("baseline").report
        cluster_report = ClusterEngine(
            SimCluster(small_dataset, unit), TrainConfig(**TRAIN)
        ).run("baseline")
        _assert_bit_identical(reference, cluster_report)


class TestClusterTelemetry:
    @pytest.fixture(scope="class")
    def cluster_report(self, small_dataset):
        config = ClusterConfig(num_machines=2, trainers_per_machine=2, **CLUSTER_KW)
        engine = ClusterEngine(SimCluster(small_dataset, config), TrainConfig(**TRAIN))
        return engine.run("prefetch", prefetch_config=PrefetchConfig(**PREFETCH))

    def test_trainer_stats_cover_world(self, cluster_report):
        assert len(cluster_report.trainer_stats) == 4
        assert [t.global_rank for t in cluster_report.trainer_stats] == [0, 1, 2, 3]
        for t in cluster_report.trainer_stats:
            assert t.num_steps > 0
            assert t.simulated_time_s > 0
            assert 0.0 <= (t.hit_rate or 0.0) <= 1.0
            assert t.busy_time_s == pytest.approx(
                t.simulated_time_s - t.barrier_wait_s
            )

    def test_critical_path_is_max_trainer_time(self, cluster_report):
        times = [t.simulated_time_s for t in cluster_report.trainer_stats]
        assert cluster_report.critical_path_time_s == max(times)
        critical = cluster_report.trainer_stats[cluster_report.critical_trainer_rank]
        assert critical.simulated_time_s == max(times)
        # Synchronous DDP: the run ends when the slowest trainer does.
        assert cluster_report.report.total_simulated_time_s == pytest.approx(
            cluster_report.critical_path_time_s
        )

    def test_rpc_totals_match_report(self, cluster_report):
        assert cluster_report.total_rpc_bytes == cluster_report.report.rpc_stats.bytes_fetched
        assert cluster_report.total_rpc_requests == cluster_report.report.rpc_stats.requests

    def test_store_summary_aggregates_sources(self, cluster_report):
        summary = cluster_report.store_summary
        assert summary  # local.* and halo.* keys present
        assert any(key.startswith("local.") for key in summary)
        assert any(key.startswith("halo.") for key in summary)

    def test_as_dict_is_json_serializable(self, cluster_report):
        import json

        dump = json.loads(json.dumps(cluster_report.as_dict()))
        assert dump["num_machines"] == 2
        assert len(dump["trainers"]) == 4
        assert len(dump["losses"]) == TRAIN["epochs"]

    def test_machine_times(self, cluster_report):
        times = cluster_report.machine_times()
        assert sorted(times) == [0, 1]
        for machine, t in times.items():
            expected = max(
                s.simulated_time_s for s in cluster_report.trainer_stats
                if s.machine == machine
            )
            assert t == expected


class TestHeterogeneousCluster:
    def test_straggler_machine_burns_more_ddp_time(self, small_dataset):
        config = ClusterConfig(
            num_machines=2, trainers_per_machine=2,
            compute_multipliers=(3.0, 1.0), **CLUSTER_KW
        )
        report = ClusterEngine(
            SimCluster(small_dataset, config), TrainConfig(**TRAIN)
        ).run("baseline")
        slow = [t for t in report.trainer_stats if t.machine == 0]
        fast = [t for t in report.trainer_stats if t.machine == 1]
        assert all(t.compute_multiplier == 3.0 for t in slow)
        # Serial accounting (Eq. 2) puts DDP compute on the critical path, so
        # the slow machine's trainers must show strictly more ddp time per step.
        slow_ddp = np.mean([t.components["ddp"] / t.num_steps for t in slow])
        fast_ddp = np.mean([t.components["ddp"] / t.num_steps for t in fast])
        assert slow_ddp > 1.5 * fast_ddp
        # Everyone still ends at the same barrier-synchronized time.
        times = {round(t.simulated_time_s, 12) for t in report.trainer_stats}
        assert len(times) == 1

    def test_straggler_machine_is_charged_through_run_pipeline(self, small_dataset):
        """The embedded TrainingReport shows the per-machine compute charge."""
        def total_time(multipliers):
            config = ClusterConfig(
                num_machines=2, trainers_per_machine=1,
                compute_multipliers=multipliers, **CLUSTER_KW
            )
            engine = ClusterEngine(SimCluster(small_dataset, config), TrainConfig(**TRAIN))
            report = engine.run("baseline").report
            return report.total_simulated_time_s, report.component_breakdown["ddp"]

        uniform_time, uniform_ddp = total_time(None)
        straggler_time, straggler_ddp = total_time((1.0, 3.0))
        assert straggler_time > uniform_time
        # One of two machines computes 3x slower: mean ddp roughly doubles.
        assert straggler_ddp > 1.5 * uniform_ddp

    def test_run_pipeline_validates_seed_coverage(self, small_dataset):
        config = ClusterConfig(num_machines=2, trainers_per_machine=2, **CLUSTER_KW)
        cluster = SimCluster(small_dataset, config)
        cluster.trainers[0].seeds_local = cluster.trainers[1].seeds_local
        with pytest.raises(ValueError, match="seed partitioning"):
            ClusterEngine(cluster, TrainConfig(**TRAIN)).run("baseline")

    def test_multiplier_validation(self):
        with pytest.raises(ValueError, match="one entry per machine"):
            ClusterConfig(num_machines=2, compute_multipliers=(1.0,))
        with pytest.raises(ValueError):
            ClusterConfig(num_machines=2, compute_multipliers=(1.0, -2.0))

    def test_seed_coverage_validated_at_init(self, small_dataset):
        config = ClusterConfig(num_machines=2, trainers_per_machine=2, **CLUSTER_KW)
        cluster = SimCluster(small_dataset, config)
        cluster.validate_seed_coverage()  # sane cluster passes
        # Corrupt one trainer's assignment: duplicate another trainer's seeds.
        cluster.trainers[0].seeds_local = cluster.trainers[1].seeds_local
        with pytest.raises(ValueError, match="seed partitioning"):
            ClusterEngine(cluster, TrainConfig(**TRAIN))


class TestScenarioRegistry:
    def test_registered_names(self):
        assert available_scenarios() == [
            "async-staleness", "cache-churn", "cascading-failure",
            "congested-link", "diurnal-cache-drift", "flash-crowd-burst",
            "hot-halo", "hot-set-drift", "rolling-upgrade", "scale-out-burst",
            "skewed-partitions", "steady-poisson", "straggler-machine",
            "trainer-flaky", "uniform",
        ]
        assert available_scenarios(engine="serving") == [
            "diurnal-cache-drift", "flash-crowd-burst", "steady-poisson",
        ]
        assert "nominal" in SCENARIOS       # alias
        assert "straggler" in SCENARIOS     # alias
        assert "drift" in SCENARIOS         # alias
        assert "churn" in SCENARIOS         # alias
        assert "staleness" in SCENARIOS     # alias
        assert "flaky" in SCENARIOS         # alias
        assert "congestion" in SCENARIOS    # alias

    def test_unknown_scenario_lists_valid_names(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("chaos-monkey")

    def test_skewed_partition_sizes_are_geometric(self, small_dataset):
        result = skewed_partition(small_dataset.graph, 4, seed=0, skew=0.6)
        sizes = result.sizes()
        assert sizes.sum() == small_dataset.num_nodes
        assert all(sizes[i] > sizes[i + 1] for i in range(3))
        assert result.stats["balance"] > 1.3  # deliberately imbalanced

    def test_skewed_scenario_runs_and_skews_steps(self):
        workload = build_scenario(
            "skewed-partitions", seed=0, scale=0.05,
            train_config=TrainConfig(epochs=1, hidden_dim=16, seed=0),
        )
        report = workload.run()
        steps = {}
        for t in report.trainer_stats:
            steps.setdefault(t.machine, 0)
            steps[t.machine] += t.num_steps
        # Machine 0 owns the big partition: its trainers run more minibatches.
        assert steps[0] >= steps[1]

    def test_override_resizes_multipliers(self):
        scenario = SCENARIOS.build("straggler-machine")
        resized = scenario.with_overrides(num_machines=4)
        assert resized.compute_multipliers == (2.5, 1.0, 1.0, 1.0)
        shrunk = scenario.with_overrides(num_machines=1)
        assert shrunk.compute_multipliers == (2.5,)

    def test_scenario_report_carries_name(self):
        workload = build_scenario(
            "uniform", seed=0, scale=0.05,
            train_config=TrainConfig(epochs=1, hidden_dim=16, seed=0),
        )
        report = workload.run()
        assert report.scenario == "uniform"
        assert report.summary()["scenario"] == "uniform"


class TestClusterCLI:
    def test_run_cluster_scenario_end_to_end(self, capsys, tmp_path):
        code = cli_main([
            "run", "--cluster", "--scenario", "skewed-partitions",
            "--scale", "0.05", "--epochs", "1", "--trace-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "skewed-partitions" in out
        assert "critical path" in out
        assert (tmp_path / "cluster_skewed-partitions.json").exists()

    def test_scenarios_command_lists_all(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out
