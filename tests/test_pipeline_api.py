"""Tests for the composable minibatch pipeline.

The acceptance bar for the API redesign: baseline and prefetch training both
run through ``MiniBatchPipeline``/``FeatureStore`` with no mode branching in
the engine, and the two named pipelines report identical accuracy on a shared
cluster (the paper's Section V claim).
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.features import FeatureStore, LocalKVStoreSource, RemoteRPCSource
from repro.sampling.pipeline import (
    BatchStage,
    FetchFeatureStage,
    MiniBatchPipeline,
    PipelineBatch,
    SampleStage,
    SeedStage,
)
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.training.pipelines import build_pipeline

CLUSTER_KW = dict(
    num_machines=2, trainers_per_machine=2, batch_size=128, fanouts=(5, 10), seed=7
)
PREFETCH = dict(halo_fraction=0.35, gamma=0.995, delta=8)
TRAIN = dict(epochs=2, hidden_dim=32, seed=1)


class TestStageChaining:
    def test_rshift_builds_pipeline(self, small_cluster):
        trainer = small_cluster.trainers[0]
        store = FeatureStore(
            partition=trainer.partition,
            local_source=LocalKVStoreSource(trainer.rpc),
            halo_source=RemoteRPCSource.from_book(trainer.rpc, small_cluster.book),
        )
        pipeline = (
            SeedStage(trainer.dataloader.seed_iterator)
            >> SampleStage(trainer.dataloader)
            >> FetchFeatureStage(store)
            >> BatchStage()
        )
        assert isinstance(pipeline, MiniBatchPipeline)
        assert pipeline.describe() == "seed >> sample >> fetch-feature >> batch"
        batches = list(pipeline.epoch())
        assert len(batches) == trainer.dataloader.num_batches_per_epoch
        for step, batch in enumerate(batches):
            assert isinstance(batch, PipelineBatch)
            assert batch.step == step
            assert batch.features.shape == (
                batch.minibatch.num_input_nodes,
                small_cluster.dataset.feature_dim,
            )
            assert batch.fetch.merged.num_requested == batch.minibatch.num_input_nodes

    def test_seed_stage_must_be_first(self, small_cluster):
        trainer = small_cluster.trainers[0]
        stage = SeedStage(trainer.dataloader.seed_iterator)
        with pytest.raises(ValueError, match="source stage"):
            stage.apply(iter([np.array([0])]))

    def test_batch_stage_requires_features(self, small_cluster):
        trainer = small_cluster.trainers[0]
        minibatch = next(iter(trainer.dataloader.epoch()))
        with pytest.raises(ValueError, match="without features"):
            list(BatchStage().apply(iter([PipelineBatch(minibatch=minibatch)])))


class TestEngineIsPipelineDriven:
    def test_accuracy_close_across_pipelines(self, small_dataset):
        """Section V: the data path must not change what the model learns.

        Consecutive runs on a shared cluster draw fresh sampler RNG (as in the
        seed implementation), so accuracies match closely rather than exactly;
        exact per-seed numbers are pinned by ``tests/golden/single_run.json``.
        """
        cluster = SimCluster(small_dataset, ClusterConfig(**CLUSTER_KW))
        engine = ClusterEngine(cluster, TrainConfig(**TRAIN))
        baseline = engine.run("baseline").report
        prefetch = engine.run("prefetch", prefetch_config=PrefetchConfig(**PREFETCH)).report
        static = engine.run("static-cache", prefetch_config=PrefetchConfig(**PREFETCH)).report
        assert abs(baseline.final_train_accuracy - prefetch.final_train_accuracy) < 0.1
        assert abs(baseline.final_train_accuracy - static.final_train_accuracy) < 0.1
        assert (baseline.mode, prefetch.mode, static.mode) == (
            "baseline", "prefetch", "static-cache"
        )
        assert baseline.hit_tracker is None
        for cached in (prefetch, static):
            assert cached.hit_tracker is not None
            assert len(cached.prefetch_init) == cached.world_size
        # Every pipeline sees the same per-batch feature values, so losses land
        # in the same regime even though the sampled minibatches differ.
        assert baseline.epoch_records[-1].loss == pytest.approx(
            prefetch.epoch_records[-1].loss, rel=0.25
        )

    def test_custom_builder_callable(self, small_dataset):
        """The engine accepts any builder, not just registered names."""
        cluster = SimCluster(small_dataset, ClusterConfig(**CLUSTER_KW))
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, hidden_dim=16, seed=1))

        def builder(trainer, cluster, prefetch_config, cache_config):
            return build_pipeline("baseline", trainer, cluster)

        report = engine.run(builder).report
        assert report.mode == "baseline"
        assert report.total_simulated_time_s > 0

    def test_unknown_pipeline_name(self, small_dataset):
        cluster = SimCluster(small_dataset, ClusterConfig(**CLUSTER_KW))
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, seed=1))
        with pytest.raises(ValueError, match="unknown pipeline"):
            engine.run("hyperloop")

    def test_static_cache_hit_rate_not_above_prefetch(self, small_dataset):
        """The scored buffer should match or beat a same-capacity static cache."""
        cluster = SimCluster(small_dataset, ClusterConfig(**CLUSTER_KW))
        engine = ClusterEngine(cluster, TrainConfig(epochs=3, hidden_dim=16, seed=1))
        prefetch = engine.run("prefetch", prefetch_config=PrefetchConfig(**PREFETCH)).report
        static = engine.run("static-cache", prefetch_config=PrefetchConfig(**PREFETCH)).report
        assert prefetch.hit_rate >= static.hit_rate - 0.05


class TestCLIVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_console_entry_point_declared(self):
        from pathlib import Path

        setup_py = Path(__file__).resolve().parents[1] / "setup.py"
        text = setup_py.read_text()
        assert "console_scripts" in text
        assert "repro = repro.cli:main" in text
