"""Tests for repro.features: sources, routing, and fetch accounting."""

import numpy as np
import pytest

from repro.features import (
    BufferedSource,
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
        a = FetchStats(source="x", num_requested=3, num_hits=3, copy_time_s=0.5, lookup_nodes=2)
        b = FetchStats(source="y", num_requested=2, num_misses=2, rpc_time_s=1.5,
                       eviction_round=True, nodes_replaced=4, buffer_capacity=10)
        merged = a.merge(b)
        assert merged.source == "merged"
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
        source = RemoteRPCSource.from_book(trainer.rpc, small_cluster.book)
        halo = trainer.partition.halo_global[:23]
        rows, stats = source.fetch(halo)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[halo])
        assert stats.num_misses == 23 and stats.remote_nodes_fetched == 23
        assert stats.rpc_time_s > 0 and stats.bytes_fetched > 0

    def test_book_and_partition_routing_agree(self, small_cluster, trainer):
        via_book = RemoteRPCSource.from_book(trainer.rpc, small_cluster.book)
        via_partition = RemoteRPCSource.from_partition(trainer.rpc, trainer.partition)
        halo = trainer.partition.halo_global[:11]
        rows_a, _ = via_book.fetch(halo)
        rows_b, _ = via_partition.fetch(halo)
        np.testing.assert_array_equal(rows_a, rows_b)

    def test_empty_request(self, small_cluster, trainer):
        source = RemoteRPCSource.from_book(trainer.rpc, small_cluster.book)
        rows, stats = source.fetch(np.zeros(0, dtype=np.int64))
        assert rows.shape[0] == 0 and stats.num_requested == 0

    def test_partition_routing_rejects_foreign_ids(self, trainer):
        """Ids that are neither owned nor halo have no owner entry — must raise."""
        source = RemoteRPCSource.from_partition(trainer.rpc, trainer.partition)
        known = np.concatenate([trainer.partition.owned_global, trainer.partition.halo_global])
        foreign = np.setdiff1d(np.arange(known.max() + 2, dtype=np.int64), known)[:1]
        assert len(foreign) == 1
        with pytest.raises(KeyError, match="not halo neighbors"):
            source.fetch(foreign)


class TestBufferedSource:
    def test_wraps_prefetcher_and_counts_steps(self, small_cluster, make_halo_source, trainer):
        source = make_halo_source("buffered", trainer)
        assert isinstance(source, BufferedSource)
        report = source.initialize()
        assert report["buffer_capacity"] > 0
        halo = trainer.partition.halo_global[:31]
        rows, stats = source.fetch(halo)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[halo])
        assert stats.num_requested == 31
        assert stats.num_hits + stats.num_misses == 31
        assert stats.lookup_nodes > 0
        assert source.prefetcher.tracker.num_steps == 1
        assert source.nbytes() > 0

    def test_preserves_prefetcher_operation_counts(self, make_halo_source, trainer):
        source = make_halo_source("buffered", trainer)
        source.initialize()
        halo = trainer.partition.halo_global[:8]
        _, stats = source.fetch(halo)
        # Algorithm 2 accounting: every requested node plus every buffer slot
        # is looked up; unused slots are decayed.
        assert stats.lookup_nodes == 8 + source.prefetcher.buffer.capacity
        assert stats.buffer_capacity == source.prefetcher.buffer.capacity


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
            halo_source=RemoteRPCSource.from_book(trainer.rpc, small_cluster.book),
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

    def test_summary_and_nbytes(self, small_cluster, make_halo_source, trainer):
        store = self._store(small_cluster, trainer)
        summary = store.summary()
        assert summary["nbytes"] == store.nbytes() == 0  # nothing cached trainer-side
        assert summary["local.server_nbytes"] > 0
        assert any(key.startswith("halo.") for key in summary)
        buffered = FeatureStore(
            partition=trainer.partition,
            local_source=LocalKVStoreSource(trainer.rpc),
            halo_source=make_halo_source("buffered", trainer),
        )
        buffered.initialize()
        assert buffered.nbytes() > 0  # the prefetch buffer is pinned per trainer

    def test_telemetry_passthrough(self, small_cluster, make_halo_source, trainer):
        plain = self._store(small_cluster, trainer)
        assert plain.tracker is None and plain.prefetcher is None and plain.hit_rate is None
        buffered = FeatureStore(
            partition=trainer.partition,
            local_source=LocalKVStoreSource(trainer.rpc),
            halo_source=make_halo_source("buffered", trainer),
        )
        buffered.initialize()
        assert buffered.prefetcher is not None
        assert buffered.tracker is buffered.prefetcher.tracker
