"""Tests for the minibatch pipeline and the pipeline table.

The acceptance bar for the API: baseline and prefetch training both run
through ``MiniBatchPipeline``/``FeatureStore`` with no mode branching in the
engine, the two named pipelines report identical accuracy on a shared
cluster (the paper's Section V claim), and every pipeline row refuses a
config it would not read — in ``build_pipeline``, ``ClusterWorkload.run``
and ``repro run`` alike.
"""

import pytest

from repro.cache.config import CacheConfig
from repro.cli import main as cli_main
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.features import (
    FeatureStore,
    LocalKVStoreSource,
    RemoteRPCSource,
    TieredCacheSource,
)
from repro.sampling.pipeline import MiniBatchPipeline, PipelineBatch
from repro.scenarios import SCENARIOS
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.training.pipelines import (
    PIPELINES,
    OverlappedTimingPolicy,
    SerialTimingPolicy,
    build_pipeline,
)

CLUSTER_KW = dict(
    num_machines=2, trainers_per_machine=2, batch_size=128, fanouts=(5, 10), seed=7
)
PREFETCH = dict(halo_fraction=0.35, gamma=0.995, delta=8)
TRAIN = dict(epochs=2, hidden_dim=32, seed=1)


def _store(trainer, halo_source, cls=FeatureStore):
    return cls(
        partition=trainer.partition,
        local_source=LocalKVStoreSource(trainer.rpc),
        halo_source=halo_source,
    )


class TestMiniBatchPipeline:
    def test_epoch_yields_numbered_model_ready_batches(self, small_cluster):
        trainer = small_cluster.trainers[0]
        store = _store(trainer, RemoteRPCSource.from_book(trainer.rpc, small_cluster.book))
        timing = SerialTimingPolicy()
        pipeline = MiniBatchPipeline(trainer.dataloader, store, timing, "by-hand")
        assert (pipeline.name, pipeline.timing, pipeline.feature_store) == (
            "by-hand", timing, store
        )
        assert pipeline.init_report is None and pipeline.init_time_s == 0.0
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
        # Steps count over the pipeline's lifetime, not per epoch.
        assert next(pipeline.epoch()).step == len(batches)

    def test_constructor_initializes_the_store(self, small_cluster):
        trainer = small_cluster.trainers[0]
        halo = TieredCacheSource(trainer.rpc, trainer.partition, capacity=8)
        pipeline = MiniBatchPipeline(
            trainer.dataloader, _store(trainer, halo), OverlappedTimingPolicy(), "cached"
        )
        assert pipeline.init_report["buffer_capacity"] == 8.0
        assert pipeline.init_time_s == pipeline.init_report["rpc_time_s"] > 0
        next(pipeline.epoch())  # an uninitialized tier would raise here

    def test_epoch_starts_the_seed_epoch_when_called(self, small_cluster):
        """Not at the first ``next()``: ``ClusterRun.begin_epoch`` opens
        iterators for held-out elastic ranks that never step, and the drift
        window reads this count."""
        trainer = small_cluster.trainers[1]
        pipeline = build_pipeline("baseline", trainer, small_cluster)
        seeds = trainer.dataloader.seed_iterator
        before = seeds.snapshot()["epochs_started"]
        batches = pipeline.epoch()
        assert seeds.snapshot()["epochs_started"] == before + 1
        next(batches)
        assert seeds.snapshot()["epochs_started"] == before + 1

    def test_a_store_with_the_wrong_row_count_raises_inside_epoch(self, small_cluster):
        class ShortStore(FeatureStore):
            def fetch_minibatch(self, minibatch):
                features, fetch = super().fetch_minibatch(minibatch)
                return features[:-1], fetch

        trainer = small_cluster.trainers[0]
        store = _store(
            trainer, RemoteRPCSource.from_book(trainer.rpc, small_cluster.book), ShortStore
        )
        batches = MiniBatchPipeline(trainer.dataloader, store, SerialTimingPolicy(), "short")
        with pytest.raises(ValueError, match="does not provide one row per input node"):
            next(batches.epoch())


# The misuse table: per row, the error (None = accepted) for no PrefetchConfig,
# a PrefetchConfig, and a CacheConfig.  Messages are verbatim.
CASES = ("no PrefetchConfig", "a PrefetchConfig", "a CacheConfig")
CACHE_MISUSE = (
    "a CacheConfig (--cache-tiers/--admission/--eviction/--adaptive-cache) has no "
    "effect on the {!r} pipeline; use pipeline 'tiered-cache' (or 'prefetch', which "
    "consumes the machine-shared tier)"
)
NEEDS = "the {!r} pipeline requires a PrefetchConfig"
MISUSE = {
    "baseline": (None, "a PrefetchConfig has no effect on the 'baseline' pipeline",
                 CACHE_MISUSE.format("baseline")),
    "prefetch": (NEEDS.format("prefetch"), None, None),
    "static-cache": (NEEDS.format("static-cache") + " (its halo_fraction sets the cache capacity)",
                     None, CACHE_MISUSE.format("static-cache")),
    "tiered-cache": (NEEDS.format("tiered-cache") + " (its halo_fraction sets the cache budget)",
                     None, None),
}
CELLS = [(name, case) for name in MISUSE for case in range(len(CASES))]
CELL_IDS = [f"{name}-{CASES[case]}" for name, case in CELLS]
CLI_FLAGS = {1: ["--halo-fraction", "0.3"], 2: ["--cache-tiers", "1"]}
CLI_PREFETCH_MISUSE = (
    "--halo-fraction has no effect on the {!r} pipeline (it takes no PrefetchConfig); "
    "pick another --pipeline, or --mode both to compare"
)
CLI_CELLS = [(name, case) for name, case in CELLS if case and MISUSE[name][case]]


def _configs(name, case):
    """``(prefetch_config, cache_config)`` of one cell."""
    if case == 0:
        return None, None
    if case == 1:
        return PrefetchConfig(), None
    reads_prefetch = MISUSE[name][1] is None
    return (PrefetchConfig() if reads_prefetch else None), CacheConfig()


def _expect(error, call):
    if error is None:
        call()
        return
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value).startswith(error)


@pytest.fixture(scope="module")
def tiny_workload():
    scenario = SCENARIOS.build("uniform").with_overrides(scale=0.05, epochs=1)
    return scenario.materialize(
        0, train_config=TrainConfig(epochs=1, hidden_dim=8, max_steps_per_epoch=1, seed=0)
    )


class TestPipelineMisuse:
    def test_the_table_covers_every_row(self):
        assert sorted(MISUSE) == PIPELINES.names()
        for name, (_, with_prefetch, with_cache) in MISUSE.items():
            row = PIPELINES.get(name)
            assert row.reads_prefetch_config == (with_prefetch is None)
            assert row.reads_cache_config == (with_cache is None)

    @pytest.mark.parametrize("name, case", CELLS, ids=CELL_IDS)
    def test_build_pipeline(self, small_cluster, name, case):
        prefetch_config, cache_config = _configs(name, case)
        trainer = small_cluster.trainers[0]
        _expect(MISUSE[name][case], lambda: build_pipeline(
            name, trainer, small_cluster, prefetch_config, cache_config
        ))

    @pytest.mark.parametrize("name, case", CELLS, ids=CELL_IDS)
    def test_cluster_workload_run(self, tiny_workload, name, case):
        """The recipe supplies a PrefetchConfig to every row that reads one."""
        prefetch_config, cache_config = _configs(name, case)
        error = None if case == 0 else MISUSE[name][case]
        _expect(error, lambda: tiny_workload.run(
            name, prefetch_config=prefetch_config, cache_config=cache_config
        ))

    @pytest.mark.parametrize("name, case", CLI_CELLS,
                             ids=[f"{name}-{CASES[case]}" for name, case in CLI_CELLS])
    def test_repro_run_exits_2_with_one_line(self, capsys, name, case):
        """The CLI fills in the recipe's PrefetchConfig like ``ClusterWorkload.run``,
        so its misuse cells are the workload's; its own flag check words case 1."""
        error = (CLI_PREFETCH_MISUSE if case == 1 else CACHE_MISUSE).format(name)
        argv = ["run", "--pipeline", name, *CLI_FLAGS[case], "--scale", "0.05", "--epochs", "1"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {error}"]


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
            halo = RemoteRPCSource.from_book(trainer.rpc, cluster.book)
            return MiniBatchPipeline(
                trainer.dataloader, _store(trainer, halo), SerialTimingPolicy(), "custom"
            )

        report = engine.run(builder).report
        assert report.mode == "custom"
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
