"""Unit tests for the tiered feature-cache subsystem (``repro.cache``).

Covers the tier's storage/metadata mechanics, every admission and eviction
policy, the stack's promotion/miss-dedup behavior, the adaptive capacity
controller's budget conservation, and the edge cases the PR 3 regression
suites established as house style: repeated batches, empty fetches, and
zero-capacity configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    ADMISSION_POLICIES,
    CACHE_EVICTION_POLICIES,
    AdaptiveCapacityController,
    CacheConfig,
    CacheTier,
    TieredFeatureCache,
)

DIM = 4


def make_server(num_ids: int = 500):
    return np.arange(num_ids * DIM, dtype=np.float32).reshape(num_ids, DIM)


def make_fetcher(server, log=None):
    def fetch(ids):
        if log is not None:
            log.append(np.asarray(ids).copy())
        return server[ids], 0.001 * len(ids), 8 * len(ids)
    return fetch


def ids_of(*values):
    return np.asarray(values, dtype=np.int64)


class TestRegistries:
    def test_registered_names(self):
        assert set(ADMISSION_POLICIES.names()) == {
            "always", "static-degree", "degree-weighted",
            "scored", "scored-strict", "scored-bypass", "scored-online",
        }
        assert set(CACHE_EVICTION_POLICIES.names()) == {
            "none", "lru", "lfu", "clock", "degree-weighted", "scored",
        }
        assert "never" in ADMISSION_POLICIES          # alias
        assert "second-chance" in CACHE_EVICTION_POLICIES  # alias
        assert "scored-conservative" in ADMISSION_POLICIES  # alias
        assert "lowest-upper-bound" in CACHE_EVICTION_POLICIES  # alias

    def test_unknown_names_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            CacheConfig(admission="fifo")
        with pytest.raises(ValueError, match="unknown cache eviction policy"):
            CacheConfig(eviction="belady")
        with pytest.raises(ValueError, match="tiers"):
            CacheConfig(tiers=3)

    def test_default_config_is_the_static_single_tier(self):
        config = CacheConfig()
        assert config.is_default_single_tier
        assert not CacheConfig(eviction="lru").is_default_single_tier
        assert not CacheConfig(tiers=2).is_default_single_tier

    def test_adaptive_requires_two_tiers(self):
        # Regression: adaptive with a single tier used to be silently inert
        # (no controller is ever built) while still flipping the stats schema.
        with pytest.raises(ValueError, match="tiers=2"):
            CacheConfig(adaptive=True)
        assert CacheConfig(tiers=2, adaptive=True).adaptive

    def test_split_budget(self):
        assert CacheConfig().split_budget(100) == (100, 0)
        assert CacheConfig(tiers=2, hot_fraction=0.25).split_budget(100) == (25, 75)
        assert CacheConfig(tiers=2).split_budget(0) == (0, 0)


class TestCacheTier:
    def test_lookup_hits_and_misses(self):
        server = make_server()
        tier = CacheTier("hot", 4, DIM)
        tier.seed(ids_of(2, 5, 9), server[ids_of(2, 5, 9)])
        hit_mask, rows = tier.lookup(ids_of(5, 7, 2), step=1)
        np.testing.assert_array_equal(hit_mask, [True, False, True])
        np.testing.assert_array_equal(rows, server[ids_of(5, 2)])
        assert tier.stats.hits == 2 and tier.stats.misses == 1
        assert tier.stats.lookups == 3

    def test_zero_capacity_tier_always_misses_and_rejects(self):
        server = make_server()
        tier = CacheTier("hot", 0, DIM)
        hit_mask, rows = tier.lookup(ids_of(1, 2), step=0)
        assert not hit_mask.any() and rows.shape == (0, DIM)
        assert tier.admit(ids_of(1, 2), server[ids_of(1, 2)], step=0) == 0
        assert tier.size == 0
        assert tier.stats.rejections == 2

    def test_empty_lookup_and_admit_are_free(self):
        tier = CacheTier("hot", 4, DIM)
        hit_mask, rows = tier.lookup(np.zeros(0, dtype=np.int64), step=0)
        assert len(hit_mask) == 0 and rows.shape == (0, DIM)
        assert tier.admit(np.zeros(0, dtype=np.int64),
                          np.zeros((0, DIM), dtype=np.float32), step=0) == 0
        assert tier.stats.lookups == 0 and tier.stats.admissions == 0

    def test_admit_skips_already_resident(self):
        server = make_server()
        tier = CacheTier("hot", 4, DIM)
        tier.seed(ids_of(1, 2), server[ids_of(1, 2)])
        inserted = tier.admit(ids_of(1, 3), server[ids_of(1, 3)], step=0)
        assert inserted == 1
        np.testing.assert_array_equal(tier.resident_ids, ids_of(1, 2, 3))

    def test_seed_validates_capacity_and_uniqueness(self):
        server = make_server()
        tier = CacheTier("hot", 2, DIM)
        with pytest.raises(ValueError, match="capacity"):
            tier.seed(ids_of(1, 2, 3), server[ids_of(1, 2, 3)])
        with pytest.raises(ValueError, match="unique"):
            tier.seed(ids_of(1, 1), server[ids_of(1, 1)])

    def test_lru_evicts_least_recently_hit(self):
        server = make_server()
        tier = CacheTier("hot", 3, DIM, eviction="lru")
        tier.seed(ids_of(1, 2, 3), server[ids_of(1, 2, 3)])
        tier.lookup(ids_of(1), step=5)   # 1 is fresh; 2 and 3 stale at step 0
        tier.lookup(ids_of(3), step=6)
        tier.admit(ids_of(9), server[ids_of(9)], step=7)
        np.testing.assert_array_equal(tier.resident_ids, ids_of(1, 3, 9))

    def test_lfu_evicts_least_frequent_with_recency_tiebreak(self):
        server = make_server()
        tier = CacheTier("hot", 3, DIM, eviction="lfu")
        tier.seed(ids_of(1, 2, 3), server[ids_of(1, 2, 3)])
        tier.lookup(ids_of(1, 1, 2), step=1)  # freq: 1 -> 2, 2 -> 1, 3 -> 0
        tier.lookup(ids_of(1), step=2)
        tier.admit(ids_of(9), server[ids_of(9)], step=3)
        np.testing.assert_array_equal(tier.resident_ids, ids_of(1, 2, 9))

    def test_clock_gives_referenced_rows_a_second_chance(self):
        server = make_server()
        tier = CacheTier("hot", 3, DIM, eviction="clock")
        tier.seed(ids_of(1, 2, 3), server[ids_of(1, 2, 3)])
        # First sweep clears all reference bits (everything seeded referenced),
        # second finds the first slot: deterministic victim order.
        tier.admit(ids_of(9), server[ids_of(9)], step=1)
        assert tier.size == 3
        assert 9 in tier.resident_ids
        # The hand advanced past the victim; a re-referenced survivor is kept
        # on the next round while an untouched one goes.
        survivors = [i for i in tier.resident_ids if i != 9]
        tier.lookup(ids_of(survivors[0]), step=2)
        tier.admit(ids_of(17), server[ids_of(17)], step=3)
        assert survivors[0] in tier.resident_ids

    def test_degree_weighted_eviction_keeps_hubs(self):
        server = make_server()
        degrees = np.zeros(500, dtype=np.int64)
        degrees[ids_of(1, 2, 3, 9)] = [100, 5, 50, 70]
        tier = CacheTier("hot", 3, DIM, eviction="degree-weighted",
                         degree_of=lambda ids: degrees[ids])
        tier.seed(ids_of(1, 2, 3), server[ids_of(1, 2, 3)])
        tier.admit(ids_of(9), server[ids_of(9)], step=1)
        np.testing.assert_array_equal(np.sort(tier.resident_ids), ids_of(1, 3, 9))

    def test_static_degree_admission_never_admits_at_runtime(self):
        server = make_server()
        tier = CacheTier("hot", 4, DIM, admission="static-degree", eviction="none")
        tier.seed(ids_of(1, 2), server[ids_of(1, 2)])
        assert tier.admit(ids_of(7, 8), server[ids_of(7, 8)], step=1) == 0
        np.testing.assert_array_equal(tier.resident_ids, ids_of(1, 2))
        assert tier.stats.evictions == 0

    def test_degree_weighted_admission_filters_cold_candidates(self):
        server = make_server()
        degrees = np.zeros(500, dtype=np.int64)
        degrees[ids_of(1, 2, 3, 4, 90, 91)] = [10, 20, 30, 40, 100, 1]
        tier = CacheTier("hot", 4, DIM, admission="degree-weighted", eviction="lru",
                         degree_of=lambda ids: degrees[ids])
        tier.seed(ids_of(1, 2, 3, 4), server[ids_of(1, 2, 3, 4)])
        tier.admit(ids_of(90, 91), server[ids_of(90, 91)], step=1)
        assert 90 in tier.resident_ids      # above-median degree: admitted
        assert 91 not in tier.resident_ids  # below-median: filtered
        assert tier.stats.rejections >= 1

    def test_resize_shrink_evicts_via_policy_and_grow_is_free(self):
        server = make_server()
        tier = CacheTier("hot", 4, DIM, eviction="lru")
        tier.seed(ids_of(1, 2, 3, 4), server[ids_of(1, 2, 3, 4)])
        tier.lookup(ids_of(2, 4), step=3)
        evicted = tier.resize(2, step=4)
        assert evicted == 2 and tier.size == 2 and tier.capacity == 2
        np.testing.assert_array_equal(tier.resident_ids, ids_of(2, 4))
        assert tier.resize(10, step=5) == 0
        assert tier.capacity == 10 and tier.size == 2

    def test_clock_resize_never_collects_the_same_victim_twice(self):
        # Regression: the CLOCK sweep could revisit an already-collected slot
        # on its second pass, returning duplicate victims — np.delete then
        # removed fewer rows than overflow, leaving size > capacity.
        server = make_server()
        tier = CacheTier("hot", 3, DIM, eviction="clock")
        tier.seed(ids_of(1, 2, 3), server[ids_of(1, 2, 3)])
        tier.resident_ref[:] = [False, True, True]
        evicted = tier.resize(1, step=1)
        assert evicted == 2
        assert tier.size == 1 and tier.capacity == 1
        assert tier.stats.evictions == 2

    def test_admit_deduplicates_candidate_ids(self):
        # Regression: duplicate candidates (e.g. a promoted repeated-id hit)
        # used to occupy two slots for one row.
        server = make_server()
        tier = CacheTier("hot", 4, DIM, eviction="lru")
        inserted = tier.admit(ids_of(7, 7, 8), server[ids_of(7, 7, 8)], step=0)
        assert inserted == 2
        np.testing.assert_array_equal(tier.resident_ids, ids_of(7, 8))

    def test_admit_sorts_unsorted_offers(self):
        # Regression: a unique but unsorted offer (promotions arrive in
        # request order) whose ids fall into one gap used to leave the
        # resident ids out of order, so later membership tests missed them.
        server = make_server()
        tier = CacheTier("hot", 4, DIM, eviction="lru")
        tier.seed(ids_of(1, 10), server[ids_of(1, 10)])
        assert tier.admit(ids_of(5, 3), server[ids_of(5, 3)], step=1) == 2
        np.testing.assert_array_equal(tier.resident_ids, ids_of(1, 3, 5, 10))
        assert tier.contains(ids_of(1, 3, 5, 10)).all()
        hit_mask, rows = tier.lookup(ids_of(3, 5), step=2)
        assert hit_mask.all()
        np.testing.assert_array_equal(rows, server[ids_of(3, 5)])

    @pytest.mark.parametrize("eviction", CACHE_EVICTION_POLICIES.names())
    @pytest.mark.parametrize("seeded", [0, 6])
    def test_every_eviction_policy_keeps_the_victim_count_contract(self, eviction, seeded):
        # Regression: lru, lfu and degree-weighted sliced their order with
        # num_victims, so -1 returned size-1 victims instead of none.
        server = make_server()
        tier = CacheTier("hot", 8, DIM, eviction=eviction,
                         degree_of=lambda ids: (ids * 7) % 5)
        ids = np.arange(2, 2 + 2 * seeded, 2, dtype=np.int64)
        tier.seed(ids, server[ids])
        tier.lookup(ids_of(4, 8, 8, 12, 99), step=1)   # mixed stamps, frequencies, refs
        size = tier.size
        for num_victims in (-1, 0, 1, size, size + 3):
            victims = tier.eviction.select(tier, num_victims)
            assert victims.dtype == np.int64, (num_victims, victims.dtype)
            assert len(np.unique(victims)) == len(victims) <= size
            assert ((victims >= 0) & (victims < size)).all()
            if num_victims <= 0:
                assert len(victims) == 0, num_victims

    def test_resize_shrink_succeeds_even_with_none_policy(self):
        server = make_server()
        tier = CacheTier("hot", 3, DIM, admission="static-degree", eviction="none")
        tier.seed(ids_of(1, 2, 3), server[ids_of(1, 2, 3)])
        assert tier.resize(1) == 2
        assert tier.size == 1 and tier.capacity == 1


class TestTieredFeatureCache:
    def test_two_tier_fetch_promotes_and_dedups(self):
        server = make_server()
        log = []
        hot = CacheTier("hot", 2, DIM, eviction="lru")
        shared = CacheTier("shared", 8, DIM, eviction="lru")
        stack = TieredFeatureCache([hot, shared], make_fetcher(server, log), DIM)

        ids = ids_of(10, 11, 10, 12)
        rows, result = stack.fetch(ids, step=0)
        np.testing.assert_array_equal(rows, server[ids])
        # Duplicates are deduplicated before hitting the miss handler.
        np.testing.assert_array_equal(log[0], ids_of(10, 11, 12))
        assert result.num_misses == 4 and result.fetched_rows == 3
        assert result.per_tier["shared"]["admissions"] == 3

        rows, result = stack.fetch(ids_of(10, 11, 12), step=1)
        np.testing.assert_array_equal(rows, server[ids_of(10, 11, 12)])
        assert result.num_hits == 3 and result.fetched_rows == 0
        assert len(log) == 1  # nothing new fetched below the stack
        # Rows beyond the hot tier's capacity were still served by shared.
        assert result.per_tier["hot"]["hits"] + result.per_tier["shared"]["hits"] == 3

    def test_shared_hits_promote_into_hot(self):
        server = make_server()
        hot = CacheTier("hot", 4, DIM, eviction="lru")
        shared = CacheTier("shared", 8, DIM, eviction="lru")
        stack = TieredFeatureCache([hot, shared], make_fetcher(server), DIM)
        stack.fetch(ids_of(20, 21), step=0)
        hot.resize(0)                      # force everything out of hot
        hot.resize(4)
        assert hot.size == 0
        _, result = stack.fetch(ids_of(20), step=1)
        assert result.per_tier["shared"]["hits"] == 1
        assert 20 in hot.resident_ids      # promoted back into the hot tier

    def test_descending_shared_hits_promote_in_id_order(self):
        # Regression: shared-tier hits are promoted in request order; [5, 3]
        # landing between hot residents 1 and 10 used to corrupt the hot
        # tier's sorted ids, and the next fetch went below the stack again.
        server = make_server()
        log = []
        hot = CacheTier("hot", 4, DIM, eviction="lru")
        shared = CacheTier("shared", 8, DIM, eviction="lru")
        stack = TieredFeatureCache([hot, shared], make_fetcher(server, log), DIM)
        hot.seed(ids_of(1, 10), server[ids_of(1, 10)])
        shared.seed(ids_of(3, 5), server[ids_of(3, 5)])
        rows, result = stack.fetch(ids_of(5, 3), step=1)
        np.testing.assert_array_equal(rows, server[ids_of(5, 3)])
        assert result.per_tier["shared"]["hits"] == 2
        assert result.per_tier["hot"]["admissions"] == 2
        np.testing.assert_array_equal(hot.resident_ids, ids_of(1, 3, 5, 10))
        rows, result = stack.fetch(ids_of(5, 3, 1, 10), step=2)
        np.testing.assert_array_equal(rows, server[ids_of(5, 3, 1, 10)])
        assert result.per_tier["hot"]["hits"] == 4
        assert result.fetched_rows == 0 and log == []

    def test_promoting_a_repeated_id_inserts_it_once(self):
        # Regression: fetch([5, 5]) hitting only the shared tier used to
        # promote the id twice into the hot tier (duplicate residency).
        server = make_server()
        hot = CacheTier("hot", 4, DIM, eviction="lru")
        shared = CacheTier("shared", 8, DIM, eviction="lru")
        stack = TieredFeatureCache([hot, shared], make_fetcher(server), DIM)
        shared.admit(ids_of(5), server[ids_of(5)], step=0)
        rows, _ = stack.fetch(ids_of(5, 5), step=1)
        np.testing.assert_array_equal(rows, server[ids_of(5, 5)])
        np.testing.assert_array_equal(hot.resident_ids, ids_of(5))

    def test_empty_fetch_touches_nothing(self):
        server = make_server()
        log = []
        stack = TieredFeatureCache(
            [CacheTier("hot", 4, DIM)], make_fetcher(server, log), DIM
        )
        rows, result = stack.fetch(np.zeros(0, dtype=np.int64), step=0)
        assert rows.shape == (0, DIM)
        assert result.num_requested == 0 and result.lookup_nodes == 0
        assert log == [] and result.fetch_time_s == 0.0

    def test_repeated_batches_stop_fetching_once_resident(self):
        server = make_server()
        log = []
        stack = TieredFeatureCache(
            [CacheTier("hot", 16, DIM, eviction="lru")], make_fetcher(server, log), DIM
        )
        batch = ids_of(3, 1, 4, 1, 5)
        for step in range(4):
            rows, result = stack.fetch(batch, step)
            np.testing.assert_array_equal(rows, server[batch])
        assert len(log) == 1               # only the first batch went below
        assert result.num_hits == len(batch)

    def test_tier_counters_flatten_for_fetch_stats(self):
        server = make_server()
        stack = TieredFeatureCache(
            [CacheTier("hot", 2, DIM, eviction="lru")], make_fetcher(server), DIM
        )
        _, result = stack.fetch(ids_of(1, 2, 3), step=0)
        flat = result.tier_counters
        assert flat["hot.misses"] == 3.0
        assert flat["hot.admissions"] == 2.0  # capacity 2: one candidate dropped

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            TieredFeatureCache(
                [CacheTier("hot", 1, DIM), CacheTier("hot", 1, DIM)],
                make_fetcher(make_server()), DIM,
            )

    def test_needs_at_least_one_tier(self):
        with pytest.raises(ValueError, match="at least one tier"):
            TieredFeatureCache([], make_fetcher(make_server()), DIM)


class TestAdaptiveCapacityController:
    def _pair(self, hot_cap, shared_cap):
        hot = CacheTier("hot", hot_cap, DIM, eviction="lru")
        shared = CacheTier("shared", shared_cap, DIM, eviction="lru")
        return hot, shared

    def test_budget_is_conserved_across_adjustments(self):
        server = make_server()
        hot, shared = self._pair(10, 10)
        controller = AdaptiveCapacityController(
            hot, shared, total_budget=20, shared_contribution=10
        )
        # Hot tier hits everything; the shared tier misses everything.
        hot.seed(ids_of(*range(5)), server[:5])
        for step in range(4):
            hot.lookup(ids_of(0, 1, 2), step)
            shared.lookup(ids_of(100, 101), step)
        before_shared = shared.capacity
        adjustment = controller.end_epoch(step=10)
        assert adjustment is not None
        assert hot.capacity + controller.shared_contribution == 20
        assert hot.capacity > 10                    # capacity moved toward hot
        assert shared.capacity < before_shared      # funded by the shared side

    def test_shift_is_bounded_and_floored(self):
        server = make_server()
        hot, shared = self._pair(10, 10)
        controller = AdaptiveCapacityController(
            hot, shared, total_budget=20, shared_contribution=10,
            min_tier_fraction=0.2, max_shift_fraction=0.1,
        )
        hot.seed(ids_of(*range(5)), server[:5])
        for step in range(4):
            hot.lookup(ids_of(0, 1), step)
            shared.lookup(ids_of(100,), step)
        controller.end_epoch(step=5)
        assert abs(hot.capacity - 10) <= 2          # max_shift 10% of 20
        for _ in range(50):
            hot.lookup(ids_of(0), 6)
            shared.lookup(ids_of(100,), 6)
            controller.end_epoch(step=6)
        assert hot.capacity <= 16                   # floor: 20% of 20 stays shared
        assert controller.shared_contribution >= 4

    def test_idle_interval_returns_none(self):
        hot, shared = self._pair(4, 4)
        controller = AdaptiveCapacityController(
            hot, shared, total_budget=8, shared_contribution=4
        )
        assert controller.end_epoch(step=1) is None
        assert controller.history == []

    def test_rejects_bad_parameters(self):
        hot, shared = self._pair(4, 4)
        with pytest.raises(ValueError):
            AdaptiveCapacityController(hot, shared, total_budget=-1, shared_contribution=0)
        with pytest.raises(ValueError):
            AdaptiveCapacityController(
                hot, shared, 8, 4, min_tier_fraction=0.9
            )
        with pytest.raises(ValueError):
            AdaptiveCapacityController(
                hot, shared, 8, 4, max_shift_fraction=0.0
            )
