"""Tests for the owner-coalescing RPC channel and the RPC-accounting fixes.

Covers the :class:`BatchedRPCChannel`/:class:`CoalescingWindow` pair (wire vs.
logical request accounting, per-machine coalescing, window lifecycle), the
coalesced-RPC equivalence on the golden 2x2 cluster workload, the zero-miss
"no empty pulls" regression, and the feature-store membership validation.
"""

import numpy as np
import pytest

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.rpc import (
    RPC_CHANNELS,
    BatchedRPCChannel,
    CoalescingWindow,
    RPCChannel,
    RPCStats,
    aggregate_rpc_stats,
    build_rpc_channel,
)
from repro.features import FeatureStore, LocalKVStoreSource, RemoteRPCSource
from repro.graph.datasets import load_dataset
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig


@pytest.fixture(scope="module")
def batched_cluster():
    """2x2 cluster whose trainers share one coalescing window per machine."""
    dataset = load_dataset("arxiv", scale=0.25, seed=3)
    config = ClusterConfig(
        num_machines=2, trainers_per_machine=2, batch_size=128,
        fanouts=(5, 10), seed=11, rpc="batched",
    )
    return SimCluster(dataset, config)


class TestRPCStatsExtended:
    def test_as_dict_keeps_legacy_schema(self):
        stats = RPCStats(requests=2, nodes_fetched=5, logical_requests=3, nodes_requested=9)
        assert sorted(stats.as_dict()) == [
            "bytes_fetched", "nodes_fetched", "requests", "simulated_time_s",
        ]
        extended = stats.as_extended_dict()
        assert extended["logical_requests"] == 3 and extended["nodes_requested"] == 9

    def test_merge_includes_logical_counters(self):
        a = RPCStats(requests=1, logical_requests=2, nodes_requested=10)
        b = RPCStats(requests=3, logical_requests=1, nodes_requested=4)
        merged = a.merge(b)
        assert merged.requests == 4
        assert merged.logical_requests == 3 and merged.nodes_requested == 14

    def test_per_call_channel_counts_logical_equal_to_wire_calls(self, small_cluster):
        trainer = small_cluster.trainers[0]
        channel = RPCChannel(small_cluster.servers, trainer.machine)
        halo = trainer.partition.halo_global[:13]
        owners = trainer.partition.halo_owners_of(halo)
        _, _, delta = channel.remote_pull(halo, owners)
        assert delta.logical_requests == 1
        assert delta.nodes_requested == 13 == delta.nodes_fetched
        assert delta.requests == len(np.unique(owners))


class TestRegistry:
    def test_names(self):
        assert set(RPC_CHANNELS.names()) == {"per-call", "batched"}
        assert RPC_CHANNELS.resolve("coalesced") == "batched"
        assert RPC_CHANNELS.resolve("plain") == "per-call"

    def test_build(self, small_cluster):
        per_call = build_rpc_channel("per-call", small_cluster.servers, 0)
        assert type(per_call) is RPCChannel
        batched = build_rpc_channel("batched", small_cluster.servers, 0)
        assert type(batched) is BatchedRPCChannel

    def test_config_rejects_unknown_keys(self, small_dataset):
        with pytest.raises(ValueError, match="rpc channel"):
            ClusterConfig(num_machines=2, trainers_per_machine=1, rpc="telepathy")
        with pytest.raises(ValueError, match="neighbor sampler"):
            ClusterConfig(num_machines=2, trainers_per_machine=1, sampler="psychic")


class TestBatchedChannel:
    def test_trainers_on_one_machine_share_a_window(self, batched_cluster):
        t0, t1 = batched_cluster.trainers[0], batched_cluster.trainers[1]
        assert t0.machine == t1.machine
        assert isinstance(t0.rpc, BatchedRPCChannel)
        assert t0.rpc.window is t1.rpc.window
        other = batched_cluster.trainers[2]
        assert other.rpc.window is not t0.rpc.window

    def test_same_step_pulls_coalesce_across_trainers(self, batched_cluster):
        batched_cluster.reset()
        t0, t1 = batched_cluster.trainers[0], batched_cluster.trainers[1]
        halo = t0.partition.halo_global[:20]
        owners = t0.partition.halo_owners_of(halo)
        t0.rpc.begin_step(0)
        t1.rpc.begin_step(0)
        rows0, time0, delta0 = t0.rpc.remote_pull(halo, owners)
        assert delta0.requests == len(np.unique(owners))
        assert delta0.nodes_fetched == 20
        # The second trainer asks for the same rows in the same step: they ride
        # the open per-owner requests and the window cache — zero wire traffic.
        rows1, time1, delta1 = t1.rpc.remote_pull(halo, owners)
        np.testing.assert_array_equal(rows0, rows1)
        assert delta1.requests == 0 and delta1.nodes_fetched == 0
        assert delta1.bytes_fetched == 0 and delta1.simulated_time_s == 0.0
        assert delta1.logical_requests == 1 and delta1.nodes_requested == 20
        # Overlapping (not identical) pulls only move the new rows.
        extra = t0.partition.halo_global[10:30]
        _, _, delta2 = t1.rpc.remote_pull(extra, t0.partition.halo_owners_of(extra))
        assert delta2.nodes_fetched == 10 and delta2.requests == 0

    def test_rows_match_per_call_channel(self, batched_cluster):
        batched_cluster.reset()
        t0 = batched_cluster.trainers[0]
        plain = RPCChannel(batched_cluster.servers, t0.machine)
        halo = t0.partition.halo_global[:17]
        owners = t0.partition.halo_owners_of(halo)
        t0.rpc.begin_step(3)
        batched_rows, _, _ = t0.rpc.remote_pull(halo, owners)
        plain_rows, _, _ = plain.remote_pull(halo, owners)
        np.testing.assert_array_equal(batched_rows, plain_rows)

    def test_new_step_resets_the_window(self, batched_cluster):
        batched_cluster.reset()
        t0 = batched_cluster.trainers[0]
        halo = t0.partition.halo_global[:5]
        owners = t0.partition.halo_owners_of(halo)
        t0.rpc.begin_step(0)
        _, _, first = t0.rpc.remote_pull(halo, owners)
        t0.rpc.begin_step(1)
        _, _, second = t0.rpc.remote_pull(halo, owners)
        assert second.nodes_fetched == first.nodes_fetched == 5
        assert second.requests == first.requests >= 1

    def test_inactive_window_behaves_per_call(self, batched_cluster):
        batched_cluster.reset()  # deactivates every window
        t0 = batched_cluster.trainers[0]
        halo = t0.partition.halo_global[:6]
        owners = t0.partition.halo_owners_of(halo)
        _, _, delta = t0.rpc.remote_pull(halo, owners)
        assert delta.requests == len(np.unique(owners))
        assert delta.nodes_fetched == 6
        # Pulling again still pays: no window, no cache.
        _, _, again = t0.rpc.remote_pull(halo, owners)
        assert again.nodes_fetched == 6

    def test_empty_pull_is_free(self, batched_cluster):
        t0 = batched_cluster.trainers[0]
        t0.rpc.begin_step(99)
        rows, time_s, delta = t0.rpc.remote_pull(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert rows.shape[0] == 0 and time_s == 0.0
        assert delta.requests == 0 and delta.logical_requests == 0

    def test_local_ids_rejected(self, batched_cluster):
        t0 = batched_cluster.trainers[0]
        t0.rpc.begin_step(100)
        owned = t0.partition.owned_global[:2]
        with pytest.raises(ValueError, match="local_pull"):
            t0.rpc.remote_pull(owned, np.full(2, t0.machine, dtype=np.int64))


class TestCoalescingWindow:
    def test_lifecycle(self):
        window = CoalescingWindow()
        assert not window.active
        window.begin_step(0)
        assert window.active
        ids = np.array([3, 8], dtype=np.int64)
        window.add(ids, np.ones((2, 4), dtype=np.float32))
        np.testing.assert_array_equal(window.contains(np.array([3, 5, 8])), [True, False, True])
        window.note_owner(1)
        assert window.owner_contacted(1) and not window.owner_contacted(2)
        window.begin_step(0)  # same step: state kept
        assert window.owner_contacted(1)
        window.begin_step(1)  # new step: cleared
        assert not window.owner_contacted(1)
        assert not window.contains(np.array([3]))[0]
        window.deactivate()
        assert not window.active

    def test_rows_for_missing_id_raises(self):
        window = CoalescingWindow()
        window.begin_step(0)
        window.add(np.array([2], dtype=np.int64), np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(KeyError, match="missing"):
            window.rows_for(np.array([2, 9], dtype=np.int64))


def _golden_workload(rpc: str):
    """The golden 2x2 fixture's exact workload, parameterized by RPC channel."""
    dataset = load_dataset("products", scale=0.05, seed=5)
    cluster = SimCluster(
        dataset,
        ClusterConfig(
            num_machines=2, trainers_per_machine=2,
            batch_size=64, fanouts=(5, 10), seed=7, rpc=rpc,
        ),
    )
    engine = ClusterEngine(cluster, TrainConfig(epochs=2, hidden_dim=32, seed=1))
    report = engine.run(
        "prefetch",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8),
    )
    return cluster, report


class TestCoalescedEquivalenceOnGoldenWorkload:
    def test_batched_rpc_preserves_numerics_and_reduces_wire_requests(self):
        cluster_a, report_a = _golden_workload("per-call")
        cluster_b, report_b = _golden_workload("batched")
        # Training numerics are bit-identical: the channel only changes which
        # wire the same rows travel on, never the rows themselves.
        for ra, rb in zip(report_a.report.epoch_records, report_b.report.epoch_records):
            assert ra.loss == rb.loss
            assert ra.train_accuracy == rb.train_accuracy
        assert report_a.report.num_minibatches == report_b.report.num_minibatches
        agg_a = aggregate_rpc_stats([t.rpc for t in cluster_a.trainers])
        agg_b = aggregate_rpc_stats([t.rpc for t in cluster_b.trainers])
        # Logical demand is identical; the wire carries strictly less.
        assert agg_a.logical_requests == agg_b.logical_requests
        assert agg_a.nodes_requested == agg_b.nodes_requested
        assert agg_b.requests < agg_a.requests
        assert agg_b.nodes_fetched <= agg_a.nodes_fetched
        assert agg_b.simulated_time_s < agg_a.simulated_time_s


class TestZeroMissSteps:
    """Satellite regression: steps that fetch nothing add zero requests/bytes."""

    def test_all_hit_steps_add_zero_requests_and_bytes(self, small_cluster, make_halo_source):
        trainer = small_cluster.trainers[0]
        # Buffer every halo node and disable eviction: every subsequent
        # step is all-hits, so no remote pull should ever be issued.
        source = make_halo_source(
            "buffered", trainer, PrefetchConfig(halo_fraction=1.0, eviction_enabled=False)
        )
        source.initialize()
        baseline = trainer.rpc.stats.merge(RPCStats())  # copy
        halo = trainer.partition.halo_global[:50]
        for _ in range(4):
            rows, stats = source.fetch(halo)
            assert stats.num_misses == 0 and stats.num_hits == len(halo)
            assert stats.rpc_time_s == 0.0 and stats.bytes_fetched == 0
            assert stats.remote_nodes_fetched == 0
        after = trainer.rpc.stats
        assert after.requests == baseline.requests
        assert after.logical_requests == baseline.logical_requests
        assert after.bytes_fetched == baseline.bytes_fetched
        assert after.nodes_fetched == baseline.nodes_fetched

    def test_empty_remote_fetch_counts_nothing(self, small_cluster):
        trainer = small_cluster.trainers[1]
        source = RemoteRPCSource.from_book(trainer.rpc, small_cluster.book)
        before_stats = trainer.rpc.stats.merge(RPCStats())
        rows, stats = source.fetch(np.zeros(0, dtype=np.int64))
        assert rows.shape[0] == 0
        assert stats.num_requested == 0 and stats.rpc_time_s == 0.0
        assert source.summary()["calls"] == 0.0
        assert trainer.rpc.stats.logical_requests == before_stats.logical_requests

    def test_empty_local_fetch_counts_nothing(self, small_cluster):
        trainer = small_cluster.trainers[1]
        source = LocalKVStoreSource(trainer.rpc)
        rows, stats = source.fetch(np.zeros(0, dtype=np.int64))
        assert rows.shape == (0, small_cluster.dataset.feature_dim)
        assert stats.copy_time_s == 0.0 and stats.num_requested == 0
        assert source.summary()["calls"] == 0.0


class TestFeatureStoreMembershipValidation:
    """Satellite regression: unknown global ids raise instead of mis-routing."""

    def _store(self, small_cluster, trainer):
        return FeatureStore(
            partition=trainer.partition,
            local_source=LocalKVStoreSource(trainer.rpc),
            halo_source=RemoteRPCSource.from_book(trainer.rpc, small_cluster.book),
        )

    def test_id_past_last_owned_raises_keyerror(self, small_cluster):
        trainer = small_cluster.trainers[0]
        store = self._store(small_cluster, trainer)
        known = np.concatenate([trainer.partition.owned_global, trainer.partition.halo_global])
        foreign = np.setdiff1d(
            np.arange(small_cluster.dataset.num_nodes + 3, dtype=np.int64), known
        )[-1:]
        assert len(foreign) == 1 and foreign[0] > trainer.partition.owned_global.max()
        with pytest.raises(KeyError, match=str(int(foreign[0]))):
            store.fetch(foreign)

    def test_mixed_request_names_only_the_offenders(self, small_cluster):
        trainer = small_cluster.trainers[0]
        store = self._store(small_cluster, trainer)
        known = np.concatenate([trainer.partition.owned_global, trainer.partition.halo_global])
        foreign = np.setdiff1d(np.arange(known.max() + 2, dtype=np.int64), known)[:1]
        mixed = np.concatenate([trainer.partition.owned_global[:3], foreign])
        with pytest.raises(KeyError, match=str(int(foreign[0]))):
            store.fetch(mixed)

    def test_negative_ids_rejected(self, small_cluster):
        trainer = small_cluster.trainers[0]
        store = self._store(small_cluster, trainer)
        with pytest.raises(ValueError, match="negative"):
            store.fetch(np.array([-1], dtype=np.int64))

    def test_valid_mixed_fetch_still_routes(self, small_cluster):
        trainer = small_cluster.trainers[0]
        store = self._store(small_cluster, trainer)
        mixed = np.concatenate(
            [trainer.partition.owned_global[:4], trainer.partition.halo_global[:6]]
        )
        rows, stats = store.fetch(mixed)
        np.testing.assert_array_equal(rows, small_cluster.dataset.features[mixed])
        assert stats.num_hits == 4 and stats.num_misses == 6
