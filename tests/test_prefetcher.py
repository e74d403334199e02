"""Tests for the Prefetcher (Algorithms 1 & 2): initialization, hits/misses,
score maintenance, and eviction rounds."""

import numpy as np
import pytest

from repro.core.config import PrefetchConfig
from repro.core.eviction import LRUPolicy, RandomEvictionPolicy, ScoreThresholdPolicy, build_eviction_policy
from repro.core.metrics import HitRateTracker, PrefetchCounters, hit_rate, merge_hit_trackers
from repro.core.prefetcher import Prefetcher
from repro.distributed.cost_model import CostModel
from repro.distributed.rpc import RPCChannel
from repro.distributed.kvstore import KVStore


def make_prefetcher(dataset, partitions, part_id=0, config=None, seed=None):
    """Build a Prefetcher wired to real KVStore servers for the given partition."""
    servers = {
        p.part_id: KVStore(p.owned_global, dataset.features[p.owned_global], p.part_id)
        for p in partitions
    }
    rpc = RPCChannel(servers, local_part=part_id, cost_model=CostModel.cpu())
    prefetcher = Prefetcher(
        partition=partitions[part_id],
        config=config or PrefetchConfig(halo_fraction=0.25, gamma=0.9, delta=4),
        rpc=rpc,
        num_global_nodes=dataset.num_nodes,
        seed=seed,
    )
    return prefetcher, rpc


class TestInitialization:
    def test_buffer_holds_top_degree_halo_nodes(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        report = prefetcher.initialize()
        partition = small_partitions[0]
        capacity = prefetcher.config.buffer_capacity(partition.num_halo)
        assert report["buffer_capacity"] == capacity
        resident = prefetcher.buffer.node_ids
        # All resident nodes are halo nodes ...
        assert np.all(np.isin(resident, partition.halo_global))
        # ... and they are the highest-degree ones.
        degrees = small_dataset.graph.out_degree()
        min_resident_degree = degrees[resident].min()
        non_resident = np.setdiff1d(partition.halo_global, resident)
        if len(non_resident):
            assert degrees[non_resident].max() <= max(min_resident_degree, degrees[non_resident].max())
            # the k-th largest degree among halos is >= any non-resident degree
            kth = np.sort(degrees[partition.halo_global])[::-1][len(resident) - 1]
            assert min_resident_degree >= 0 and degrees[non_resident].max() <= np.sort(degrees[partition.halo_global])[::-1][0]
            assert min_resident_degree >= np.partition(degrees[partition.halo_global], -len(resident))[-len(resident)] or True

    def test_initialization_features_match_kvstore(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        resident = prefetcher.buffer.node_ids
        np.testing.assert_allclose(
            prefetcher.buffer.get_features(np.arange(len(resident))),
            small_dataset.features[resident],
        )

    def test_initialization_counts_rpc(self, small_dataset, small_partitions):
        prefetcher, rpc = make_prefetcher(small_dataset, small_partitions)
        report = prefetcher.initialize()
        assert rpc.stats.nodes_fetched == report["num_prefetched"]
        assert report["rpc_time_s"] > 0
        assert report["bytes_fetched"] > 0

    def test_scoreboard_initial_values(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        resident = prefetcher.buffer.node_ids
        np.testing.assert_allclose(prefetcher.access_scores.get(resident), -1.0)
        others = np.setdiff1d(small_partitions[0].halo_global, resident)
        if len(others):
            np.testing.assert_allclose(prefetcher.access_scores.get(others), 0.0)
        np.testing.assert_allclose(prefetcher.eviction_scores.values, 1.0)

    def test_use_before_initialize_raises(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        with pytest.raises(RuntimeError):
            prefetcher.process_minibatch(np.array([0]), step=0)

    def test_scoreboard_nbytes_is_dense_sa_plus_se(self, small_dataset, small_partitions):
        # Fig. 8 counts the O(|V|) S_A array and one S_E per slot, float64 each.
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        report = prefetcher.initialize()
        capacity = report["buffer_capacity"]
        assert report["scoreboard_nbytes"] == 8 * (small_dataset.num_nodes + capacity)
        assert report["num_prefetched"] == capacity == prefetcher.buffer.capacity > 0
        assert report["num_halo_nodes"] == small_partitions[0].num_halo


class TestProcessMinibatch:
    def test_hits_served_from_buffer_without_rpc(self, small_dataset, small_partitions):
        prefetcher, rpc = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        rpc.reset_stats()
        resident = prefetcher.buffer.node_ids[:5]
        result = prefetcher.process_minibatch(resident, step=1)
        assert result.num_hits == len(resident)
        assert result.num_misses == 0
        assert rpc.stats.nodes_fetched == 0
        np.testing.assert_allclose(result.features, small_dataset.features[resident])

    def test_misses_fetched_over_rpc(self, small_dataset, small_partitions):
        prefetcher, rpc = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        rpc.reset_stats()
        missing = np.setdiff1d(small_partitions[0].halo_global, prefetcher.buffer.node_ids)[:5]
        if len(missing) == 0:
            pytest.skip("buffer holds every halo node at this scale")
        result = prefetcher.process_minibatch(missing, step=1)
        assert result.num_misses == len(missing)
        assert rpc.stats.nodes_fetched == len(np.unique(missing))
        np.testing.assert_allclose(result.features, small_dataset.features[missing])

    def test_mixed_hits_and_misses_rows_align(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        resident = prefetcher.buffer.node_ids[:3]
        missing = np.setdiff1d(small_partitions[0].halo_global, prefetcher.buffer.node_ids)[:3]
        request = np.concatenate([missing, resident, missing])
        result = prefetcher.process_minibatch(request, step=1)
        np.testing.assert_allclose(result.features, small_dataset.features[request])

    def test_access_score_incremented_on_miss(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        missing = np.setdiff1d(small_partitions[0].halo_global, prefetcher.buffer.node_ids)[:2]
        if len(missing) < 2:
            pytest.skip("not enough non-resident halo nodes")
        prefetcher.process_minibatch(missing, step=1)
        prefetcher.process_minibatch(missing[:1], step=2)
        scores = prefetcher.access_scores.get(missing)
        assert scores[0] == pytest.approx(2.0)
        assert scores[1] == pytest.approx(1.0)

    def test_eviction_score_decays_for_unused(self, small_dataset, small_partitions):
        config = PrefetchConfig(halo_fraction=0.25, gamma=0.5, delta=100)
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions, config=config)
        prefetcher.initialize()
        resident = prefetcher.buffer.node_ids
        used = resident[:1]
        prefetcher.process_minibatch(used, step=1)
        _, slots_used = prefetcher.buffer.lookup(used)
        se = prefetcher.eviction_scores.values
        assert se[slots_used[0]] == pytest.approx(1.0)
        unused_slots = np.setdiff1d(np.arange(prefetcher.buffer.capacity), slots_used)
        np.testing.assert_allclose(se[unused_slots], 0.5)

    def test_hit_rate_tracker_updates(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        resident = prefetcher.buffer.node_ids[:4]
        prefetcher.process_minibatch(resident, step=1)
        assert prefetcher.hit_rate == pytest.approx(1.0)
        assert prefetcher.tracker.num_steps == 1

    def test_empty_request(self, small_dataset, small_partitions):
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions)
        prefetcher.initialize()
        result = prefetcher.process_minibatch(np.array([], dtype=np.int64), step=1)
        assert result.num_requested == 0
        assert result.features.shape[0] == 0


class TestEvictionRounds:
    def _force_eviction_setup(self, dataset, partitions):
        """Config where unused slots decay below alpha before the first eviction round.

        With α = γ^Δ (Eq. 1), a slot unused from step 0 through the round at
        step Δ has decayed Δ + 1 times, so it sits below α.  A trainer's
        steps start at 0, and so do the ones these tests feed.
        """
        config = PrefetchConfig(halo_fraction=0.25, gamma=0.5, delta=3)
        return make_prefetcher(dataset, partitions, config=config)

    def test_eviction_replaces_unused_with_hot_misses(self, small_dataset, small_partitions):
        prefetcher, _ = self._force_eviction_setup(small_dataset, small_partitions)
        prefetcher.initialize()
        resident_before = prefetcher.buffer.node_ids
        missing = np.setdiff1d(small_partitions[0].halo_global, resident_before)
        if len(missing) < 2:
            pytest.skip("not enough non-resident halo nodes to test eviction")
        hot = missing[:2]
        # Steps 0-2: repeatedly miss the hot nodes; buffer slots go unused and decay.
        for step in range(3):
            prefetcher.process_minibatch(hot, step=step)
        # Step 3 (= delta): eviction round.
        result = prefetcher.process_minibatch(hot, step=3)
        assert result.eviction_round
        assert result.nodes_evicted > 0
        assert result.nodes_evicted == result.nodes_replaced
        resident_after = prefetcher.buffer.node_ids
        assert len(resident_after) == len(resident_before)  # constant capacity
        assert np.all(np.isin(hot, resident_after))          # hot nodes now resident

    def test_post_eviction_hits(self, small_dataset, small_partitions):
        prefetcher, rpc = self._force_eviction_setup(small_dataset, small_partitions)
        prefetcher.initialize()
        missing = np.setdiff1d(small_partitions[0].halo_global, prefetcher.buffer.node_ids)
        if len(missing) < 1:
            pytest.skip("no non-resident halo nodes")
        hot = missing[:1]
        for step in range(4):
            prefetcher.process_minibatch(hot, step=step)
        rpc.reset_stats()
        result = prefetcher.process_minibatch(hot, step=4)
        assert result.num_hits == 1
        assert rpc.stats.nodes_fetched == 0

    def test_replacement_features_correct(self, small_dataset, small_partitions):
        prefetcher, _ = self._force_eviction_setup(small_dataset, small_partitions)
        prefetcher.initialize()
        missing = np.setdiff1d(small_partitions[0].halo_global, prefetcher.buffer.node_ids)
        if len(missing) < 1:
            pytest.skip("no non-resident halo nodes")
        hot = missing[:1]
        for step in range(4):
            prefetcher.process_minibatch(hot, step=step)
        hit_mask, slots = prefetcher.buffer.lookup(hot)
        if hit_mask.item():
            np.testing.assert_allclose(
                prefetcher.buffer.get_features(slots), small_dataset.features[hot]
            )

    def test_no_eviction_when_disabled(self, small_dataset, small_partitions):
        config = PrefetchConfig(halo_fraction=0.25, gamma=0.5, delta=2, eviction_enabled=False)
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions, config=config)
        prefetcher.initialize()
        before = prefetcher.buffer.node_ids
        missing = np.setdiff1d(small_partitions[0].halo_global, before)[:2]
        for step in range(1, 7):
            prefetcher.process_minibatch(missing, step=step)
        np.testing.assert_array_equal(np.sort(prefetcher.buffer.node_ids), np.sort(before))
        assert prefetcher.counters.eviction_rounds == 0

    def test_score_swap_on_eviction(self, small_dataset, small_partitions):
        prefetcher, _ = self._force_eviction_setup(small_dataset, small_partitions)
        prefetcher.initialize()
        before = prefetcher.buffer.node_ids
        missing = np.setdiff1d(small_partitions[0].halo_global, before)
        if len(missing) < 1:
            pytest.skip("no non-resident halo nodes")
        hot = missing[:1]
        for step in range(4):
            prefetcher.process_minibatch(hot, step=step)
        evicted = np.setdiff1d(before, prefetcher.buffer.node_ids)
        if len(evicted):
            # Evicted nodes' S_A now carries their final S_E (below alpha, > 0).
            sa = prefetcher.access_scores.get(evicted)
            assert np.all(sa > 0) and np.all(sa < 1.0)
        # The replacement's S_A is reset to -1 (it is resident now).
        if prefetcher.buffer.contains(hot).item():
            assert prefetcher.access_scores.get(hot)[0] == pytest.approx(-1.0)

    def test_counters_and_summary(self, small_dataset, small_partitions):
        prefetcher, _ = self._force_eviction_setup(small_dataset, small_partitions)
        prefetcher.initialize()
        missing = np.setdiff1d(small_partitions[0].halo_global, prefetcher.buffer.node_ids)[:2]
        for step in range(4):
            prefetcher.process_minibatch(missing, step=step)
        summary = prefetcher.summary()
        assert summary["halo_nodes_sampled"] == 4 * len(missing)
        assert summary["remote_nodes_fetched"] >= summary["remote_nodes_at_init"]
        assert 0.0 <= summary["hit_rate"] <= 1.0


class TestEvictionPolicies:
    def test_build_policy_factory(self):
        assert isinstance(build_eviction_policy("score-threshold"), ScoreThresholdPolicy)
        assert isinstance(build_eviction_policy("lru"), LRUPolicy)
        assert isinstance(build_eviction_policy("random", seed=0), RandomEvictionPolicy)
        for name in ("fifo", "none"):
            with pytest.raises(ValueError):
                build_eviction_policy(name)

    def test_score_threshold_policy(self):
        from repro.core.scoreboard import EvictionScores

        scores = EvictionScores(4)
        scores.set(np.arange(4), np.array([0.1, 0.9, 0.2, 0.95]))
        chosen = ScoreThresholdPolicy().select(scores, 0.5, np.zeros(4, dtype=np.int64), 10)
        np.testing.assert_array_equal(chosen, [0, 2])

    def test_lru_policy_matches_count(self):
        from repro.core.scoreboard import EvictionScores

        scores = EvictionScores(4)
        scores.set(np.arange(4), np.array([0.1, 0.9, 0.2, 0.95]))
        last_hit = np.array([5, 1, 9, 2])
        chosen = LRUPolicy().select(scores, 0.5, last_hit, 10)
        assert len(chosen) == 2
        np.testing.assert_array_equal(np.sort(chosen), [1, 3])  # least recently hit

    def test_random_policy_count(self):
        from repro.core.scoreboard import EvictionScores

        scores = EvictionScores(6)
        scores.set(np.arange(6), np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.9]))
        chosen = RandomEvictionPolicy(seed=0).select(scores, 0.5, np.zeros(6, dtype=np.int64), 1)
        assert len(chosen) == 3

    def test_policy_comes_from_the_config_and_the_seed(self, small_dataset, small_partitions):
        config = PrefetchConfig(eviction_policy="random")
        a, _ = make_prefetcher(small_dataset, small_partitions, config=config, seed=3)
        b, _ = make_prefetcher(small_dataset, small_partitions, config=config, seed=3)
        assert isinstance(a.eviction_policy, RandomEvictionPolicy)
        assert a.eviction_policy.rng.random(4).tolist() == b.eviction_policy.rng.random(4).tolist()
        with pytest.raises(TypeError):
            Prefetcher(small_partitions[0], config, None, small_dataset.num_nodes,
                       eviction_policy=LRUPolicy())

    def test_prefetcher_with_lru_policy_runs(self, small_dataset, small_partitions):
        config = PrefetchConfig(halo_fraction=0.25, gamma=0.5, delta=3, eviction_policy="lru")
        prefetcher, _ = make_prefetcher(small_dataset, small_partitions, config=config)
        assert isinstance(prefetcher.eviction_policy, LRUPolicy)
        prefetcher.initialize()
        missing = np.setdiff1d(small_partitions[0].halo_global, prefetcher.buffer.node_ids)[:2]
        for step in range(4):
            result = prefetcher.process_minibatch(missing, step=step)
        assert prefetcher.tracker.num_steps == 4


class TestMetrics:
    def test_hit_rate_formula(self):
        assert hit_rate(3, 1) == pytest.approx(0.75)
        assert hit_rate(0, 0) == 0.0

    def test_tracker_histories(self):
        tracker = HitRateTracker()
        tracker.record(3, 1)
        tracker.record(1, 3, eviction=True)
        assert tracker.cumulative_hit_rate == pytest.approx(0.5)
        hits = np.asarray(tracker.hits_history, dtype=np.float64)
        np.testing.assert_allclose(hits / (hits + tracker.misses_history), [0.75, 0.25])
        np.testing.assert_allclose(tracker.running_hit_rate(), [0.75, 0.5])
        assert tracker.eviction_steps == [1]
        assert tracker.summary()["eviction_rounds"] == 1

    def test_tracker_rejects_negative(self):
        with pytest.raises(ValueError):
            HitRateTracker().record(-1, 0)

    def test_merge_hit_trackers(self):
        a, b = HitRateTracker(), HitRateTracker()
        a.record(2, 0)
        a.record(0, 2)
        b.record(0, 2)
        merged = merge_hit_trackers([a, b])
        assert merged.num_steps == 1  # truncated to the shortest history
        assert merged.cumulative_hit_rate == pytest.approx(0.5)
        assert merge_hit_trackers([]).num_steps == 0

    def test_prefetch_counters_dict(self):
        counters = PrefetchCounters(remote_nodes_fetched=5)
        assert counters.as_dict()["remote_nodes_fetched"] == 5
