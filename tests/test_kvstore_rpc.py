"""Tests for the KVStore, the per-partition stores, and the simulated RPC channel."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.distributed.cost_model import CostModel
from repro.distributed.kvstore import KVStore
from repro.distributed.rpc import RPCChannel, RPCStats, aggregate_rpc_stats


@pytest.fixture()
def stores():
    """Two KVStores splitting 10 nodes with 4-dim features."""
    features = np.arange(40, dtype=np.float32).reshape(10, 4)
    even = np.arange(0, 10, 2)
    odd = np.arange(1, 10, 2)
    return {
        0: KVStore(even, features[even], part_id=0),
        1: KVStore(odd, features[odd], part_id=1),
    }, features


class TestKVStore:
    def test_pull_returns_correct_rows(self, stores):
        kv, features = stores
        out = kv[0].pull(np.array([0, 4, 8]))
        np.testing.assert_allclose(out, features[[0, 4, 8]])

    def test_pull_unsorted_ids(self, stores):
        kv, features = stores
        out = kv[0].pull(np.array([8, 0]))
        np.testing.assert_allclose(out, features[[8, 0]])

    def test_pull_missing_raises(self, stores):
        kv, _ = stores
        with pytest.raises(KeyError):
            kv[0].pull(np.array([1]))

    def test_pull_empty(self, stores):
        kv, _ = stores
        out = kv[0].pull(np.array([], dtype=np.int64))
        assert out.shape == (0, 4)

    def test_pull_repeated_ids(self, stores):
        kv, features = stores
        out = kv[0].pull(np.array([4, 4, 0]))
        np.testing.assert_allclose(out, features[[4, 4, 0]])

    def test_pull_partly_foreign_names_only_the_foreign_ids(self, stores):
        kv, _ = stores
        with pytest.raises(KeyError, match=r"partition 0 does not own nodes \[1, 3\]"):
            kv[0].pull(np.array([0, 1, 2, 3]))

    def test_foreign_id_message_names_at_most_five_ids(self, stores):
        kv, _ = stores
        with pytest.raises(KeyError, match=r"does not own nodes \[0, 2, 4, 6, 8\]'"):
            kv[1].pull(np.arange(10))

    def test_pulled_rows_are_a_copy(self, stores):
        kv, features = stores
        out = kv[0].pull(np.array([2]))
        out[:] = -1.0
        np.testing.assert_allclose(kv[0].pull(np.array([2])), features[[2]])

    def test_feature_dim_and_nbytes(self, stores):
        kv, _ = stores
        assert kv[0].feature_dim == 4
        # Five float32 rows of width 4 plus five int64 ids.
        assert kv[0].nbytes() == 5 * 4 * 4 + 5 * 8

    def test_misaligned_construction_raises(self):
        with pytest.raises(ValueError):
            KVStore(np.array([0, 1]), np.zeros((3, 4), dtype=np.float32))


class TestRPCChannel:
    def test_local_pull(self, stores):
        kv, features = stores
        channel = RPCChannel(kv, local_part=0, cost_model=CostModel.cpu())
        rows, t_copy = channel.local_pull(np.array([0, 2]))
        np.testing.assert_allclose(rows, features[[0, 2]])
        assert t_copy > 0

    def test_remote_pull_routes_by_owner(self, stores):
        kv, features = stores
        channel = RPCChannel(kv, local_part=0, cost_model=CostModel.cpu())
        ids = np.array([1, 3, 5])
        owners = np.ones(3, dtype=np.int64)
        rows, t_rpc, delta = channel.remote_pull(ids, owners)
        np.testing.assert_allclose(rows, features[ids])
        assert t_rpc > 0
        assert delta.nodes_fetched == 3
        assert delta.requests == 1

    def test_remote_pull_rejects_local_nodes(self, stores):
        kv, _ = stores
        channel = RPCChannel(kv, local_part=0)
        with pytest.raises(ValueError):
            channel.remote_pull(np.array([0]), np.array([0]))

    def test_remote_pull_empty(self, stores):
        kv, _ = stores
        channel = RPCChannel(kv, local_part=0)
        rows, t, delta = channel.remote_pull(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert rows.shape == (0, 4)
        assert t == 0.0 and delta.nodes_fetched == 0

    def test_stats_accumulate(self, stores):
        kv, _ = stores
        channel = RPCChannel(kv, local_part=0)
        channel.remote_pull(np.array([1]), np.array([1]))
        channel.remote_pull(np.array([3, 5]), np.array([1, 1]))
        assert channel.stats.nodes_fetched == 3
        assert channel.stats.requests == 2
        channel.reset_stats()
        assert channel.stats.nodes_fetched == 0

    def test_unknown_owner_raises(self, stores):
        kv, _ = stores
        channel = RPCChannel(kv, local_part=0)
        with pytest.raises(KeyError):
            channel.remote_pull(np.array([1]), np.array([7]))

    def test_aggregate_rpc_stats(self, stores):
        kv, _ = stores
        a = RPCChannel(kv, local_part=0)
        b = RPCChannel(kv, local_part=0)
        a.remote_pull(np.array([1]), np.array([1]))
        b.remote_pull(np.array([3, 5]), np.array([1, 1]))
        total = aggregate_rpc_stats([a, b])
        assert total.nodes_fetched == 3
        assert total.requests == 2

    def test_rpc_stats_merge(self):
        merged = RPCStats(1, 2, 3, 0.5).merge(RPCStats(1, 1, 1, 0.5))
        assert merged.requests == 2 and merged.nodes_fetched == 3
        assert merged.simulated_time_s == pytest.approx(1.0)


class TestPartitionKVStore:
    def test_serves_the_partition_rows_exactly(self, small_dataset, small_partitions):
        for p in small_partitions:
            store = KVStore(p.owned_global, small_dataset.features[p.owned_global], p.part_id)
            assert store.feature_dim == small_dataset.feature_dim
            sample = p.owned_global[::7]
            np.testing.assert_array_equal(store.pull(sample), small_dataset.features[sample])
            with pytest.raises(KeyError, match=f"partition {p.part_id} does not own"):
                store.pull(p.halo_global[:1])

    def test_cluster_stores_serve_every_owned_row(self, small_cluster):
        features = small_cluster.dataset.features
        for p in small_cluster.partitions:
            store = small_cluster.servers[p.part_id]
            assert store.part_id == p.part_id
            np.testing.assert_array_equal(store.pull(p.owned_global), features[p.owned_global])

    def test_migration_needs_a_real_host(self, small_cluster):
        with pytest.raises(ValueError, match="host machine must be >= 0"):
            small_cluster.migrate_partition(0, -1)
        assert small_cluster.partition_hosts == [0, 1]
        assert small_cluster.migrate_partition(1, 1) == 0

    def test_migration_moves_the_store_and_invalidates_the_shared_tier(self, small_cluster):
        small_cluster.reset()
        config = CacheConfig(tiers=2, admission="always", eviction="lru")
        tier = small_cluster.shared_cache_tier(0, config)
        ids = small_cluster.partitions[0].halo_global[:5]
        tier.resize(len(ids))
        tier.seed(ids, small_cluster.dataset.features[ids])
        assert tier.size == len(ids) and tier.nbytes() > 0
        try:
            moved = small_cluster.migrate_partition(0, 1)
            # The KVStore payload alone: the tier's rows are dropped, not shipped.
            assert moved == small_cluster.servers[0].nbytes()
            assert small_cluster.partition_hosts == [1, 1]
            assert tier.size == 0 and tier.capacity == len(ids)
            assert tier.stats.evictions == len(ids)
            assert small_cluster.shared_cache_tier(0, config) is tier
        finally:
            small_cluster.reset()

    def test_migration_leaves_the_other_partitions_shared_tier_alone(self, small_cluster):
        small_cluster.reset()
        config = CacheConfig(tiers=2, admission="always", eviction="lru")
        tiers = [small_cluster.shared_cache_tier(m, config) for m in (0, 1)]
        for part, tier in zip(small_cluster.partitions, tiers):
            ids = part.halo_global[:4]
            tier.resize(len(ids))
            tier.seed(ids, small_cluster.dataset.features[ids])
        kept = tiers[1].resident_ids
        try:
            assert small_cluster.migrate_partition(0, 1) == small_cluster.servers[0].nbytes()
            assert tiers[0].size == 0
            np.testing.assert_array_equal(tiers[1].resident_ids, kept)
            assert tiers[1].stats.evictions == 0
        finally:
            small_cluster.reset()
