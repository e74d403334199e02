"""Tests for repro.features: sources, routing, and fetch accounting."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import PrefetchConfig
from repro.core.prefetcher import Prefetcher
from repro.distributed.rpc import RPCStats
from repro.features import (
    FeatureSource,
    FeatureStore,
    FetchStats,
    LocalKVStoreSource,
    RemoteRPCSource,
)


@pytest.fixture()
def trainer(small_cluster):
    return small_cluster.trainers[0]


class TestFetchStats:
    def test_merge_sums_counts_and_times(self):
        a = FetchStats(num_requested=3, num_hits=3, copy_time_s=0.5, lookup_nodes=2)
        b = FetchStats(num_requested=2, num_misses=2, rpc_time_s=1.5,
                       eviction_round=True, nodes_replaced=4, buffer_capacity=10)
        merged = a.merge(b)
        assert merged.num_requested == 5
        assert merged.num_hits == 3 and merged.num_misses == 2
        assert merged.copy_time_s == 0.5 and merged.rpc_time_s == 1.5
        assert merged.eviction_round is True
        assert merged.nodes_replaced == 4 and merged.buffer_capacity == 10

    def test_hit_rate(self):
        assert FetchStats(num_hits=3, num_misses=1).hit_rate == 0.75
        assert FetchStats().hit_rate == 0.0


class TestLocalKVStoreSource:
    def test_serves_owned_rows_exactly(self, small_cluster, trainer):
        source = LocalKVStoreSource(trainer.rpc)
        owned = trainer.partition.owned_global[:17]
        rows, stats = source.fetch(owned)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[owned])
        assert stats.num_requested == 17 and stats.num_hits == 17
        assert stats.copy_time_s > 0 and stats.rpc_time_s == 0.0

    def test_nbytes_counts_nothing_trainer_side(self, trainer):
        # The co-located server's matrix is shared machine-wide, not pinned
        # per trainer; the summary still exposes its size.
        source = LocalKVStoreSource(trainer.rpc)
        assert source.nbytes() == 0
        assert source.summary()["server_nbytes"] > 0


class TestRemoteRPCSource:
    def test_serves_halo_rows_exactly(self, small_cluster, trainer):
        source = RemoteRPCSource(trainer.rpc, trainer.partition)
        halo = trainer.partition.halo_global[:23]
        before = trainer.rpc.stats.merge(RPCStats())  # copy
        rows, stats = source.fetch(halo)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[halo])
        assert stats.num_misses == 23 and stats.rpc_time_s > 0
        # The rows moved are counted once, in the channel's ledger.
        assert trainer.rpc.stats.nodes_fetched - before.nodes_fetched == 23
        assert trainer.rpc.stats.bytes_fetched > before.bytes_fetched

    def test_empty_request(self, small_cluster, trainer):
        source = RemoteRPCSource(trainer.rpc, trainer.partition)
        rows, stats = source.fetch(np.zeros(0, dtype=np.int64))
        assert rows.shape[0] == 0 and stats.num_requested == 0

    def test_partition_routing_rejects_foreign_ids(self, trainer):
        """Ids that are neither owned nor halo have no owner entry — must raise."""
        source = RemoteRPCSource(trainer.rpc, trainer.partition)
        known = np.concatenate([trainer.partition.owned_global, trainer.partition.halo_global])
        foreign = np.setdiff1d(np.arange(known.max() + 2, dtype=np.int64), known)[:1]
        assert len(foreign) == 1
        with pytest.raises(KeyError, match="not halo neighbors"):
            source.fetch(foreign)


class TestPrefetcherSource:
    def test_is_a_feature_source(self, make_halo_source, trainer):
        assert isinstance(make_halo_source("prefetcher", trainer), FeatureSource)

    def test_fetch_counts_steps(self, small_cluster, make_halo_source, trainer):
        source = make_halo_source("prefetcher", trainer)
        assert isinstance(source, Prefetcher)
        report = source.initialize()
        assert report["buffer_capacity"] > 0
        halo = trainer.partition.halo_global[:31]
        rows, stats = source.fetch(halo)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[halo])
        assert stats.num_requested == 31
        assert stats.num_hits + stats.num_misses == 31
        assert stats.lookup_nodes > 0
        assert source.tracker.num_steps == 1
        assert source.nbytes() == source.buffer_nbytes() + source.scoreboard_nbytes() > 0

    def test_preserves_prefetcher_operation_counts(self, make_halo_source, trainer):
        source = make_halo_source("prefetcher", trainer)
        source.initialize()
        halo = trainer.partition.halo_global[:8]
        _, stats = source.fetch(halo)
        # Algorithm 2 accounting: every requested node plus every buffer slot
        # is looked up; unused slots are decayed.
        assert stats.lookup_nodes == 8 + source.buffer.capacity
        assert stats.buffer_capacity == source.buffer.capacity

    def test_fetch_stats_repeat_process_minibatch(self, make_halo_source, trainer):
        # One prefetcher is fed through fetch() (its own step counter), the
        # other through process_minibatch(ids, step): every FetchStats field
        # the step result has must match, on eviction steps too.
        config = PrefetchConfig(halo_fraction=0.25, gamma=0.5, delta=2)
        via_fetch = make_halo_source("prefetcher", trainer, config)
        direct = make_halo_source("prefetcher", trainer, config)
        via_fetch.initialize()
        direct.initialize()
        halo = trainer.partition.halo_global
        rng = np.random.default_rng(5)
        names = [f.name for f in dataclasses.fields(FetchStats) if f.name != "copy_time_s"]
        replaced = 0
        for step in range(10):
            ids = rng.choice(halo, size=40)
            rows, stats = via_fetch.fetch(ids)
            result = direct.process_minibatch(ids, step)
            np.testing.assert_array_equal(rows, result.features)
            for name in names:
                assert getattr(stats, name) == getattr(result, name), (step, name)
            assert stats.copy_time_s == 0.0
            replaced += stats.nodes_replaced
        assert replaced > 0 and "scoring_nodes" in names and "buffer_capacity" in names


class TestStaticCacheSource:
    """The tier stack under the default CacheConfig: the degree-ranked static cache."""

    def test_caches_top_degree_halo_nodes(self, small_cluster, make_halo_source, trainer):
        source = make_halo_source("tiered-cache", trainer)
        report = source.initialize()
        assert report["num_prefetched"] > 0
        cached = source.hot_tier.resident_ids
        assert np.all(np.diff(cached) > 0)  # ascending, unique
        assert len(cached) == source.hot_tier.size
        halo = trainer.partition.halo_global
        rows, stats = source.fetch(halo[:40])
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[halo[:40]])
        hit_mask = np.isin(halo[:40], cached)
        assert stats.num_hits == int(hit_mask.sum())
        assert stats.num_misses == int((~hit_mask).sum())

    def test_fetch_before_initialize_raises(self, make_halo_source, trainer):
        source = make_halo_source("tiered-cache", trainer)
        with pytest.raises(RuntimeError):
            source.fetch(np.array([0], dtype=np.int64))


class TestFeatureStore:
    def _store(self, small_cluster, trainer):
        return FeatureStore(
            partition=trainer.partition,
            local_source=LocalKVStoreSource(trainer.rpc),
            halo_source=RemoteRPCSource(trainer.rpc, trainer.partition),
        )

    def test_fetch_minibatch_assembles_exact_features(self, small_cluster, trainer):
        store = self._store(small_cluster, trainer)
        minibatch = next(iter(trainer.dataloader.epoch()))
        features, result = store.fetch_minibatch(minibatch)
        np.testing.assert_array_equal(
            features, small_cluster.dataset.features[minibatch.input_global]
        )
        local, halo = result.source("local"), result.source("halo")
        assert local.num_requested + halo.num_requested == minibatch.num_input_nodes
        assert local.copy_time_s > 0
        merged = result.merged
        assert merged.num_requested == minibatch.num_input_nodes

    def test_fetch_routes_by_ownership(self, small_cluster, trainer):
        store = self._store(small_cluster, trainer)
        mixed = np.concatenate(
            [trainer.partition.owned_global[:5], trainer.partition.halo_global[:7]]
        )
        rows, stats = store.fetch(mixed)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[mixed])
        assert stats.num_hits == 5 and stats.num_misses == 7

    def test_halo_ids_above_every_owned_id_route_to_halo(self, small_cluster):
        # An id past the last owned id is not owned: the ownership test must
        # not clip it onto the last owned row.
        for trainer in small_cluster.trainers:
            halo = trainer.partition.halo_global
            above = halo[halo > trainer.partition.owned_global.max()][:3]
            if len(above):
                break
        assert len(above)
        store = self._store(small_cluster, trainer)
        ids = np.concatenate([trainer.partition.owned_global[-2:], above])
        rows, stats = store.fetch(ids)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[ids])
        assert stats.num_hits == 2 and stats.num_misses == len(above)

    def test_partition_that_owns_nothing_routes_every_id_to_halo(self, small_cluster, trainer):
        partition = trainer.partition
        owns_nothing = SimpleNamespace(
            owned_global=np.zeros(0, dtype=np.int64),
            part_id=partition.part_id,
            contains=partition.contains,
        )
        local = LocalKVStoreSource(trainer.rpc)
        store = FeatureStore(
            partition=owns_nothing,
            local_source=local,
            halo_source=RemoteRPCSource(trainer.rpc, trainer.partition),
        )
        halo = partition.halo_global[:9]
        rows, stats = store.fetch(halo)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[halo])
        assert stats.num_hits == 0 and stats.num_misses == 9
        assert local.summary()["calls"] == 0.0

    def test_summary_and_nbytes(self, small_cluster, make_halo_source, trainer):
        store = self._store(small_cluster, trainer)
        summary = store.summary()
        assert summary["nbytes"] == store.nbytes() == 0  # nothing cached trainer-side
        assert summary["local.server_nbytes"] > 0
        assert any(key.startswith("halo.") for key in summary)
        buffered = FeatureStore(
            partition=trainer.partition,
            local_source=LocalKVStoreSource(trainer.rpc),
            halo_source=make_halo_source("prefetcher", trainer),
        )
        buffered.initialize()
        assert buffered.nbytes() > 0  # the prefetch buffer is pinned per trainer

    def test_telemetry_passthrough(self, small_cluster, make_halo_source, trainer):
        plain = self._store(small_cluster, trainer)
        assert plain.tracker is None and plain.hit_rate is None
        buffered = FeatureStore(
            partition=trainer.partition,
            local_source=LocalKVStoreSource(trainer.rpc),
            halo_source=make_halo_source("prefetcher", trainer),
        )
        buffered.initialize()
        assert buffered.tracker is buffered.halo_source.tracker
