"""Integration tests: the full baseline and prefetch training pipelines.

These tests exercise the complete stack — dataset, partitioning, cluster,
sampling, RPC/KVStore, GNN training, DDP averaging, prefetcher — and assert
the qualitative properties the paper reports:

* the prefetch pipeline reduces remote-node fetches and end-to-end simulated
  time relative to the DistDGL-style baseline;
* accuracy is unaffected by prefetching (both pipelines learn);
* CPU training sees larger relative gains than GPU training (overlap);
* the hit rate is sensible and grows as training proceeds.
"""

import numpy as np
import pytest

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.nn import build_model
from repro.scenarios import SCENARIOS
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.training.evaluate import evaluate_accuracy


def majority_class_accuracy(dataset, node_ids):
    """Accuracy of always predicting the most frequent class (a learning floor)."""
    labels = dataset.labels[node_ids]
    return float(np.mean(labels == np.argmax(np.bincount(labels))))


@pytest.fixture(scope="module")
def comparison_reports(request):
    """One baseline + one prefetch run shared by several assertions."""
    from repro.graph.datasets import load_dataset

    dataset = load_dataset("arxiv", scale=0.25, seed=3)
    workload = SCENARIOS.build("uniform").with_overrides(batch_size=128).materialize(
        7, train_config=TrainConfig(epochs=3, hidden_dim=32, seed=1), dataset=dataset
    )
    baseline = workload.run("baseline").report
    prefetch = workload.run(
        "prefetch", prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)
    ).report
    return dataset, baseline, prefetch


class TestBaselinePipeline:
    def test_report_structure(self, comparison_reports):
        _, baseline, _ = comparison_reports
        assert baseline.mode == "baseline"
        assert baseline.total_simulated_time_s > 0
        assert baseline.num_minibatches > 0
        assert len(baseline.epoch_records) == 3
        assert baseline.hit_tracker is None

    def test_baseline_learns(self, comparison_reports):
        dataset, baseline, _ = comparison_reports
        first, last = baseline.epoch_records[0], baseline.epoch_records[-1]
        assert last.loss < first.loss
        assert last.train_accuracy > 2.0 / dataset.num_classes

    def test_component_breakdown_populated(self, comparison_reports):
        _, baseline, _ = comparison_reports
        breakdown = baseline.component_breakdown
        assert breakdown["sampling"] > 0
        assert breakdown["rpc"] > 0
        assert breakdown["ddp"] > 0
        assert breakdown["lookup"] == 0.0  # no prefetcher in the baseline

    def test_rpc_stats_recorded(self, comparison_reports):
        _, baseline, _ = comparison_reports
        assert baseline.rpc_stats.nodes_fetched > 0
        assert baseline.rpc_stats.bytes_fetched > 0


class TestPrefetchPipeline:
    def test_report_structure(self, comparison_reports):
        _, _, prefetch = comparison_reports
        assert prefetch.mode == "prefetch"
        assert prefetch.hit_tracker is not None
        assert len(prefetch.prefetch_init) == prefetch.world_size
        assert 0.0 < prefetch.overlap_efficiency <= 1.0

    def test_prefetch_learns_like_baseline(self, comparison_reports):
        """Prefetching must not change the training quality (paper Section V)."""
        dataset, baseline, prefetch = comparison_reports
        assert prefetch.epoch_records[-1].loss < prefetch.epoch_records[0].loss
        # Final accuracy within a few points of the baseline run.
        assert abs(prefetch.final_train_accuracy - baseline.final_train_accuracy) < 0.15

    def test_prefetch_is_faster(self, comparison_reports):
        _, baseline, prefetch = comparison_reports
        improvement = prefetch.improvement_percent_vs(baseline)
        assert improvement > 5.0
        assert prefetch.speedup_vs(baseline) > 1.05

    def test_prefetch_reduces_remote_fetches(self, comparison_reports):
        _, baseline, prefetch = comparison_reports
        assert prefetch.remote_nodes_fetched() < baseline.remote_nodes_fetched()

    def test_hit_rate_reasonable(self, comparison_reports):
        _, _, prefetch = comparison_reports
        assert 0.05 < prefetch.hit_rate <= 1.0

    def test_extras_record_buffer_memory(self, comparison_reports):
        _, _, prefetch = comparison_reports
        assert prefetch.extras["mean_buffer_nbytes"] > 0
        assert prefetch.extras["mean_scoreboard_nbytes"] > 0

    def test_summary_dict(self, comparison_reports):
        _, baseline, prefetch = comparison_reports
        for report in (baseline, prefetch):
            summary = report.summary()
            assert summary["total_simulated_time_s"] > 0


class TestBackendContrast:
    def test_cpu_gains_exceed_gpu_gains(self, small_dataset):
        """Slower CPU compute gives more room for overlap, hence larger gains (Fig. 6)."""
        prefetch_config = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)
        train_config = TrainConfig(epochs=2, hidden_dim=32, seed=0)
        improvements = {}
        for backend in ("cpu", "gpu"):
            workload = SCENARIOS.build("uniform").with_overrides(
                backend=backend, batch_size=128
            ).materialize(5, train_config=train_config, dataset=small_dataset)
            baseline = workload.run("baseline").report
            prefetch = workload.run("prefetch", prefetch_config=prefetch_config).report
            improvements[backend] = prefetch.improvement_percent_vs(baseline)
        assert improvements["cpu"] >= improvements["gpu"] - 1.0

    def test_gpu_overlap_efficiency_lower(self, small_dataset):
        prefetch_config = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)
        train_config = TrainConfig(epochs=2, hidden_dim=32, seed=0)
        overlaps = {}
        for backend in ("cpu", "gpu"):
            cluster = SimCluster(small_dataset, ClusterConfig(
                num_machines=2, trainers_per_machine=2, batch_size=128,
                fanouts=(5, 10), backend=backend, seed=5,
            ))
            report = ClusterEngine(cluster, train_config).run(
                "prefetch", prefetch_config=prefetch_config
            ).report
            overlaps[backend] = report.overlap_efficiency
        assert overlaps["cpu"] >= overlaps["gpu"]


class TestEngineDetails:
    def test_shared_cluster_runs_are_independent(self, small_cluster, quick_train_config, quick_prefetch_config):
        engine = ClusterEngine(small_cluster, quick_train_config)
        first = engine.run("prefetch", prefetch_config=quick_prefetch_config).report
        second = engine.run("prefetch", prefetch_config=quick_prefetch_config).report
        # The cluster is reset between runs, so totals are comparable (same order).
        assert first.num_minibatches == second.num_minibatches
        assert second.total_simulated_time_s == pytest.approx(
            first.total_simulated_time_s, rel=0.5
        )

    def test_max_steps_per_epoch_caps_work(self, small_cluster, quick_prefetch_config):
        config = TrainConfig(epochs=1, hidden_dim=16, max_steps_per_epoch=1, seed=0)
        engine = ClusterEngine(small_cluster, config)
        report = engine.run("baseline").report
        assert report.num_minibatches <= small_cluster.world_size

    def test_gat_architecture_runs(self, small_dataset):
        cluster = SimCluster(small_dataset, ClusterConfig(
            num_machines=2, trainers_per_machine=1, batch_size=64, fanouts=(4, 4), seed=2
        ))
        report = ClusterEngine(
            cluster, TrainConfig(epochs=1, arch="gat", hidden_dim=8, num_heads=2, seed=0)
        ).run("prefetch", prefetch_config=PrefetchConfig(halo_fraction=0.25, delta=8)).report
        assert report.arch == "gat"
        assert report.total_simulated_time_s > 0

    def test_wall_clock_recorded(self, comparison_reports):
        _, baseline, prefetch = comparison_reports
        assert baseline.wall_clock_s > 0 and prefetch.wall_clock_s > 0


class TestEvaluation:
    def test_evaluate_flag_produces_scores(self, small_dataset):
        cluster = SimCluster(small_dataset, ClusterConfig(
            num_machines=2, trainers_per_machine=1, batch_size=128, fanouts=(5, 10), seed=1
        ))
        report = ClusterEngine(
            cluster, TrainConfig(epochs=3, hidden_dim=32, evaluate=True, seed=0)
        ).run("baseline").report
        assert report.val_accuracy is not None and report.test_accuracy is not None
        assert report.val_accuracy > majority_class_accuracy(small_dataset, small_dataset.val_nids()) * 0.9

    def test_evaluate_accuracy_function(self, small_dataset, small_cluster, quick_train_config,
                                        trained_models):
        ClusterEngine(small_cluster, quick_train_config).run("baseline")
        acc = evaluate_accuracy(
            trained_models[-1], small_dataset, small_dataset.val_nids(), fanouts=(5, 10), seed=0
        )
        assert 0.0 <= acc <= 1.0

    def test_evaluate_empty_node_set(self, small_dataset, small_cluster, quick_train_config,
                                     trained_models):
        ClusterEngine(small_cluster, quick_train_config).run("baseline")
        empty = np.array([], dtype=np.int64)
        assert evaluate_accuracy(trained_models[-1], small_dataset, empty) == 0.0

    @staticmethod
    def _untrained_model(dataset):
        return build_model("sage", dataset.features.shape[1], 16, dataset.num_classes, seed=0)

    def test_evaluate_is_deterministic_per_seed(self, small_dataset):
        model, nids = self._untrained_model(small_dataset), small_dataset.val_nids()
        runs = [evaluate_accuracy(model, small_dataset, nids, fanouts=(5, 10), seed=4)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_max_batches_scores_only_the_leading_batches(self, small_dataset):
        model, nids = self._untrained_model(small_dataset), small_dataset.val_nids()
        assert len(nids) > 64
        capped = evaluate_accuracy(model, small_dataset, nids, fanouts=(5, 10),
                                   batch_size=32, seed=0, max_batches=2)
        leading = evaluate_accuracy(model, small_dataset, nids[:64], fanouts=(5, 10),
                                    batch_size=32, seed=0)
        assert capped == leading

    @pytest.mark.parametrize("kwargs, node_ids", [
        ({"batch_size": 0}, [0, 1]),
        ({}, [-1]),
        ({}, [10 ** 9]),
    ])
    def test_evaluate_rejects_bad_arguments(self, small_dataset, kwargs, node_ids):
        with pytest.raises(ValueError):
            evaluate_accuracy(self._untrained_model(small_dataset), small_dataset,
                              np.array(node_ids), **kwargs)
