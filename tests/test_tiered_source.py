"""Integration tests: the tiered cache wired into sources, engines, scenarios.

The heart of the suite is differential: the default
:class:`~repro.cache.config.CacheConfig` must make the tier-backed data path
**bit-identical** to the pre-tier static cache — same rows, same FetchStats,
same losses and simulated times — while the non-default configurations are
pinned for their intended behavior (shared-tier wire reduction, adaptive
controller activity, hot-set drift).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.features import TieredCacheSource
from repro.sampling.seeds import SeedIterator
from repro.scenarios import SCENARIOS
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig

PREFETCH = dict(halo_fraction=0.25, gamma=0.995, delta=8)


@pytest.fixture()
def trainer(small_cluster):
    small_cluster.reset()
    return small_cluster.trainers[0]


class TestTieredSourceDefaultEquivalence:
    """Default config == the historical static cache, stat for stat."""

    def test_default_config_reports_the_flat_schema(self, make_halo_source, trainer):
        source = make_halo_source("tiered-cache", trainer, PrefetchConfig(**PREFETCH))
        source.initialize()
        halo = trainer.partition.halo_global
        for batch in (halo[:40], halo[5:25], halo[:0], np.repeat(halo[:6], 2)):
            _, stats = source.fetch(batch)
            assert stats.num_hits + stats.num_misses == len(batch)
            assert stats.tier_counters == {}  # default config: legacy flat schema
        assert source.tier_summary() == {}
        assert not any(key.startswith("tier.") for key in source.summary())

    def test_engine_runs_bit_identical(self, small_dataset, quick_train_config):
        # Fresh clusters per run: RNG streams advance across runs on a shared
        # cluster, so a differential comparison needs identical start states.
        def run(pipeline, cache_config=None):
            cluster = SimCluster(
                small_dataset,
                ClusterConfig(num_machines=2, trainers_per_machine=2,
                              batch_size=128, fanouts=(5, 10), seed=11),
            )
            engine = ClusterEngine(cluster, quick_train_config)
            return engine.run(
                pipeline,
                prefetch_config=PrefetchConfig(**PREFETCH),
                cache_config=cache_config,
            ).report

        static = run("static-cache")
        tiered = run("tiered-cache", CacheConfig())
        assert [r.loss for r in static.epoch_records] == [
            r.loss for r in tiered.epoch_records
        ]
        assert [r.simulated_time_s for r in static.epoch_records] == [
            r.simulated_time_s for r in tiered.epoch_records
        ]
        assert static.hit_rate == tiered.hit_rate
        assert static.rpc_stats.as_extended_dict() == tiered.rpc_stats.as_extended_dict()


class TestTieredSourceEdgeCases:
    def test_zero_capacity_budget_serves_correct_rows(self, small_cluster, trainer):
        source = TieredCacheSource(
            trainer.rpc, trainer.partition, capacity=0,
            cache_config=CacheConfig(admission="always", eviction="lru"),
        )
        report = source.initialize()
        assert report["num_prefetched"] == 0.0
        halo = trainer.partition.halo_global[:12]
        rows, stats = source.fetch(halo)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[halo])
        assert stats.num_hits == 0 and stats.num_misses == 12
        assert source.stack.total_resident == 0

    def test_empty_fetch_counts_nothing(self, make_halo_source, trainer):
        source = make_halo_source("tiered-cache", trainer)
        source.initialize()
        before = trainer.rpc.stats.as_dict()
        rows, stats = source.fetch(np.zeros(0, dtype=np.int64))
        assert rows.shape[0] == 0
        assert stats.num_requested == 0 and stats.rpc_time_s == 0.0
        assert trainer.rpc.stats.as_dict() == before  # zero-miss fetch: no RPC traffic

    def test_repeated_batches_converge_to_all_hits(
        self, small_cluster, make_halo_source, trainer
    ):
        source = make_halo_source(
            "tiered-cache", trainer, PrefetchConfig(**PREFETCH),
            cache_config=CacheConfig(admission="always", eviction="lru"),
        )
        source.initialize()
        batch = trainer.partition.halo_global[:30]
        # Two warm-up rounds: at step 0 the seeded rows and the fresh hits tie
        # on recency, so LRU may churn batch members once before converging.
        source.fetch(batch)
        source.fetch(batch)
        wire_before = trainer.rpc.stats.nodes_fetched
        rows, stats = source.fetch(batch)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[batch])
        assert stats.num_hits == 30 and stats.num_misses == 0
        assert trainer.rpc.stats.nodes_fetched == wire_before

    def test_fetch_before_initialize_raises(self, make_halo_source, trainer):
        source = make_halo_source("tiered-cache", trainer)
        with pytest.raises(RuntimeError, match="initialize"):
            source.fetch(trainer.partition.halo_global[:2])


class TestSharedTierAcrossTrainers:
    def _products_cluster(self, products_dataset):
        return SimCluster(
            products_dataset,
            ClusterConfig(
                num_machines=2, trainers_per_machine=2,
                batch_size=64, fanouts=(5, 10), seed=3,
            ),
        )

    def test_prefetch_with_shared_tier_keeps_numerics_cuts_wire_rows(
        self, products_dataset
    ):
        # Fresh cluster per run (RNG streams advance across runs).
        def run(cache_config=None):
            cluster = self._products_cluster(products_dataset)
            engine = ClusterEngine(cluster, TrainConfig(epochs=2, hidden_dim=32, seed=1))
            return engine.run(
                "prefetch",
                prefetch_config=PrefetchConfig(**PREFETCH),
                cache_config=cache_config,
            )

        plain = run()
        plain_losses = [r.loss for r in plain.report.epoch_records]
        plain_wire = plain.report.rpc_stats.nodes_fetched

        shared = run(
            CacheConfig(
                tiers=2, admission="always", eviction="lru",
                shared_admission="always", shared_eviction="lru",
            ),
        )
        shared_losses = [r.loss for r in shared.report.epoch_records]
        # Same minibatches, same feature values -> identical training numerics.
        assert plain_losses == shared_losses
        # Rows a machine peer already pulled ride the shared tier, not the wire.
        assert shared.report.rpc_stats.nodes_fetched < plain_wire
        # The shared tier counters surface in trainer cache stats.
        assert any(
            t.cache_stats.get("halo.tier.shared.hits", 0) > 0
            for t in shared.trainer_stats
        )

    def test_tiered_pipeline_shared_tier_is_per_machine(self, products_dataset):
        cluster = self._products_cluster(products_dataset)
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, hidden_dim=32, seed=1))
        engine.run(
            "tiered-cache",
            prefetch_config=PrefetchConfig(**PREFETCH),
            cache_config=CacheConfig(tiers=2, admission="always", eviction="lru"),
        )
        tiers = cluster._shared_cache_tiers
        assert set(tiers) == {0, 1}
        # Both trainers on the machine funded the same tier instance.
        for machine, tier in tiers.items():
            contributions = [
                t for t in cluster.trainers if t.machine == machine
            ]
            assert tier.capacity > 0 and len(contributions) == 2

    def test_shared_tier_counters_counted_once_per_machine(self):
        # Regression: the shared tier is one object reported identically by
        # every trainer on its machine; cluster totals used to sum it per
        # trainer, multiplying shared evictions by trainers_per_machine.
        from repro.features.store import merge_store_summaries
        from repro.training.cluster_engine import ClusterReport, TrainerRunStats

        def trainer(rank, machine):
            return TrainerRunStats(
                global_rank=rank, machine=machine, local_rank=rank % 2,
                simulated_time_s=1.0, barrier_wait_s=0.0, num_steps=1,
                cache_stats={
                    "halo.tier.hot.evictions": 3.0,
                    "halo.tier.shared.evictions": 10.0,   # same tier, same value
                    "halo.tier.shared.hit_rate": 0.5,
                },
            )

        report = ClusterReport(
            report=None,  # totals below only read trainer_stats
            trainer_stats=[trainer(0, 0), trainer(1, 0), trainer(2, 1), trainer(3, 1)],
        )
        # 4 trainers x 3 hot + one shared tier of 10 per machine x 2 machines.
        assert report.total_tier_evictions == 4 * 3 + 2 * 10
        merged = merge_store_summaries(
            [t.cache_stats for t in report.trainer_stats]
        )
        assert merged["halo.tier.shared.evictions"] == 10.0   # averaged, not 40
        assert merged["halo.tier.hot.evictions"] == 12.0      # still summed

    def test_cluster_reset_drops_shared_tiers(self, products_dataset):
        cluster = self._products_cluster(products_dataset)
        cluster.shared_cache_tier(0, CacheConfig(tiers=2))
        assert cluster._shared_cache_tiers
        cluster.reset()
        assert cluster._shared_cache_tiers == {}


class TestAdaptiveControllerWiring:
    def test_controller_history_in_cluster_report(self, products_dataset):
        cluster = SimCluster(
            products_dataset,
            ClusterConfig(num_machines=2, trainers_per_machine=2,
                          batch_size=64, fanouts=(5, 10), seed=3),
        )
        engine = ClusterEngine(cluster, TrainConfig(epochs=3, hidden_dim=32, seed=1))
        report = engine.run(
            "tiered-cache",
            prefetch_config=PrefetchConfig(halo_fraction=0.1, gamma=0.995, delta=8),
            cache_config=CacheConfig(
                tiers=2, admission="always", eviction="clock", adaptive=True
            ),
        )
        adjustments = report.store_summary.get("halo.controller.adjustments", 0.0)
        assert adjustments > 0
        rates = report.mean_tier_hit_rates()
        assert "halo.tier.hot" in rates and "halo.tier.shared" in rates
        assert "cache.halo.tier.hot.hit_rate" in report.summary()


class TestCacheConfigNeverDropped:
    """A CacheConfig reaches cache tiers or raises — from the API, not only the CLI."""

    TWO_TIER = dict(tiers=2, admission="always", eviction="lru")

    @pytest.mark.parametrize("pipeline", ["baseline", "distdgl", "static-cache"])
    def test_explicit_cache_config_on_a_cacheless_pipeline_raises(self, pipeline):
        workload = SCENARIOS.build("uniform").with_overrides(scale=0.05, epochs=1).materialize()
        with pytest.raises(ValueError, match="no effect on the '(baseline|static-cache)'"):
            workload.run(pipeline=pipeline, cache_config=CacheConfig(**self.TWO_TIER))

    def test_recipe_that_pairs_baseline_with_a_cache_raises(self):
        scenario = SCENARIOS.build("cache-churn").with_overrides(
            scale=0.05, epochs=1, pipeline="baseline"
        )
        with pytest.raises(ValueError, match="no effect"):
            scenario.materialize().run()

    def test_baseline_comparison_leaves_the_recipe_cache_behind(self):
        # run(pipeline="baseline") on a cache scenario is "the same workload
        # without the cache" (the e2e benchmark's speed-up denominator).
        workload = SCENARIOS.build("cache-churn").with_overrides(
            scale=0.05, epochs=1
        ).materialize()
        report = workload.run(pipeline="baseline")
        assert report.report.mode == "baseline"
        assert all(not t.cache_stats for t in report.trainer_stats)
        assert workload.cluster._shared_cache_tiers == {}


class TestCacheCLIGuards:
    """The --cache-* flags never silently no-op (review regressions)."""

    def test_cache_flags_rejected_on_cacheless_pipelines(self, capsys):
        from repro.cli import main
        for pipeline in ("baseline", "static-cache"):
            code = main(["run", "--pipeline", pipeline, "--cache-tiers", "2",
                         "--scale", "0.05", "--epochs", "1"])
            assert code == 2
            assert "no effect" in capsys.readouterr().err

    def test_adaptive_without_two_tiers_exits(self, capsys):
        from repro.cli import main
        assert main(["run", "--adaptive-cache", "--scale", "0.05", "--epochs", "1"]) == 2
        assert "tiers=2" in capsys.readouterr().err

    def test_explicit_eviction_implies_open_admission(self):
        from repro.cli import _build_cache_config, build_parser
        args = build_parser().parse_args(["run", "--eviction", "lru"])
        config = _build_cache_config(args)
        assert config.eviction == "lru" and config.admission == "always"
        # An explicit admission choice always wins.
        args = build_parser().parse_args(
            ["run", "--eviction", "lru", "--admission", "static-degree"]
        )
        assert _build_cache_config(args).admission == "static-degree"

    TWO_TIER = dict(tiers=2, admission="always", eviction="lru")

    @pytest.mark.parametrize("kind", ["buffered", "tiered-cache"])
    def test_two_tier_config_needs_the_machine_tier(self, make_halo_source, trainer, kind):
        # The cluster owns the one shared tier per machine; a two-tier config
        # without it must not silently degrade to single-tier.
        with pytest.raises(ValueError, match="shared_cache_tier"):
            make_halo_source(kind, trainer, cache_config=CacheConfig(**self.TWO_TIER))

    @pytest.mark.parametrize("kind", ["buffered", "tiered-cache"])
    def test_two_tier_config_funds_the_machine_tier(
        self, small_cluster, make_halo_source, trainer, kind
    ):
        config = CacheConfig(**self.TWO_TIER)
        tier = small_cluster.shared_cache_tier(trainer.machine, config)
        assert tier.capacity == 0
        make_halo_source(kind, trainer, cache_config=config, shared_tier=tier)
        assert tier.capacity > 0

    def test_buffered_source_rejects_adaptive_config(self, make_halo_source, trainer):
        with pytest.raises(ValueError, match="tiered-cache"):
            make_halo_source(
                "buffered", trainer,
                cache_config=CacheConfig(**self.TWO_TIER, adaptive=True),
            )


class TestSeedDrift:
    def test_defaults_are_the_full_stationary_window(self):
        seeds = np.arange(50, dtype=np.int64)
        it = SeedIterator(seeds, batch_size=16, seed=5)
        window = it.active_window(3)
        np.testing.assert_array_equal(np.sort(window), seeds)
        assert it.num_active == 50 and it.num_batches == 4

    def test_window_rotates_and_wraps(self):
        seeds = np.arange(10, dtype=np.int64)
        it = SeedIterator(seeds, batch_size=4, seed=5,
                          active_fraction=0.4, rotation=0.5)
        np.testing.assert_array_equal(it.active_window(0), [0, 1, 2, 3])
        np.testing.assert_array_equal(it.active_window(1), [5, 6, 7, 8])
        np.testing.assert_array_equal(it.active_window(2), [0, 1, 2, 3])  # wrapped
        it_wrap = SeedIterator(seeds, batch_size=4, seed=5,
                               active_fraction=0.4, rotation=0.8)
        np.testing.assert_array_equal(it_wrap.active_window(1), [8, 9, 0, 1])

    def test_internal_epoch_counter_drives_rotation_and_resets(self):
        seeds = np.arange(10, dtype=np.int64)
        it = SeedIterator(seeds, batch_size=10, seed=5,
                          active_fraction=0.4, rotation=0.5)
        first = np.sort(np.concatenate(list(it.epoch())))
        second = np.sort(np.concatenate(list(it.epoch())))
        np.testing.assert_array_equal(first, [0, 1, 2, 3])
        np.testing.assert_array_equal(second, [5, 6, 7, 8])
        it.reset()
        again = np.sort(np.concatenate(list(it.epoch())))
        np.testing.assert_array_equal(again, first)

    def test_each_epoch_emits_only_the_active_window(self):
        seeds = np.arange(40, dtype=np.int64)
        it = SeedIterator(seeds, batch_size=8, seed=5,
                          active_fraction=0.25, rotation=0.25)
        for epoch in range(4):
            batches = list(it.epoch(epoch))
            emitted = np.sort(np.concatenate(batches))
            np.testing.assert_array_equal(emitted, it.active_window(epoch))
            assert len(emitted) == it.num_active == 10

    def test_validation(self):
        seeds = np.arange(4, dtype=np.int64)
        with pytest.raises(ValueError, match="active_fraction"):
            SeedIterator(seeds, 2, active_fraction=0.0)
        with pytest.raises(ValueError, match="rotation"):
            SeedIterator(seeds, 2, rotation=1.5)
        with pytest.raises(ValueError, match="seed_active_fraction"):
            ClusterConfig(num_machines=1, trainers_per_machine=1,
                          seed_active_fraction=0.0)


class TestCacheScenarios:
    @pytest.mark.parametrize("name", ["hot-set-drift", "cache-churn"])
    def test_scenario_runs_end_to_end(self, name):
        workload = (
            SCENARIOS.build(name)
            .with_overrides(scale=0.05, epochs=1)
            .materialize(seed=0)
        )
        report = workload.run()
        assert report.report.mode == "tiered-cache"
        assert report.mean_hit_rate is not None
        assert report.report.num_minibatches > 0

    def test_drift_scenario_prefers_adaptive_tiers(self):
        """The acceptance property: a non-default policy beats static on drift."""
        results = {}
        for key, cache_config in {
            "static": CacheConfig(),
            "adaptive": CacheConfig(
                tiers=2, admission="always", eviction="lru",
                hot_fraction=0.25, adaptive=True,
            ),
        }.items():
            workload = (
                SCENARIOS.build("hot-set-drift")
                .with_overrides(scale=0.05, epochs=3)
                .materialize(seed=0)
            )
            results[key] = workload.run(cache_config=cache_config).mean_hit_rate
        assert results["adaptive"] > results["static"] + 0.01
