"""A tier looks degrees up only where a degree-aware decision needs them.

A tier stores no degree column: ``degree_of`` is a fixed function of the id,
so ``CacheTier.degrees`` calls it on demand.  These tests hand every tier a
counting stub and check that policies which ignore degree never call it, that each
degree-aware policy and fallback does, and that ``resident_degrees`` and
``snapshot()["degrees"]`` always equal the stub's answer for the residents,
as int64 (the stub answers int32).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import ADMISSION_POLICIES, CACHE_EVICTION_POLICIES, CacheTier

DIM = 2
UNIVERSE = 40
SERVER = np.arange(UNIVERSE * DIM, dtype=np.float32).reshape(UNIVERSE, DIM)


class CountingDegrees:
    """``degree_of`` stub: few distinct int32 values (ties), counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, ids):
        self.calls += 1
        return ((np.asarray(ids, dtype=np.int64) * 7) % 5).astype(np.int32)


def assert_degrees_match(tier, degree_of):
    """Views equal the stub's answer; the checking calls are not counted."""
    calls = degree_of.calls
    expected = degree_of(tier.resident_ids).astype(np.int64)
    for degrees in (tier.resident_degrees, tier.snapshot()["degrees"]):
        assert degrees.dtype == np.int64
        np.testing.assert_array_equal(degrees, expected)
    degree_of.calls = calls


def drive(tier, degree_of, steps=40, seed=0):
    """Lookups, sorted miss admits and unsorted promotions; returns stub calls."""
    rng = np.random.default_rng(seed)
    calls = 0
    for step in range(steps):
        ids = rng.integers(0, UNIVERSE, size=int(rng.integers(1, 8)))
        before = degree_of.calls
        hit_mask, _ = tier.lookup(ids, step)
        missing = np.unique(ids[~hit_mask])
        tier.admit(missing, SERVER[missing], step)
        if step % 3 == 0:   # a promotion: request order, repeats
            tier.admit(ids[::-1], SERVER[ids[::-1]], step)
        calls += degree_of.calls - before
        assert_degrees_match(tier, degree_of)
    return calls


def build(admission, eviction, capacity=8):
    degree_of = CountingDegrees()
    return CacheTier("hot", capacity, DIM, admission=admission, eviction=eviction,
                     degree_of=degree_of), degree_of


@pytest.mark.parametrize("admission,eviction", [
    ("always", "lru"), ("always", "clock"), ("always", "lfu"), ("static-degree", "none"),
])
def test_policies_that_ignore_degree_never_look_one_up(admission, eviction):
    tier, degree_of = build(admission, eviction)
    seeded = np.arange(0, 16, 2)   # fills the capacity-8 tier
    tier.seed(seeded, SERVER[seeded])
    assert degree_of.calls == 0
    assert drive(tier, degree_of) == 0
    assert tier.stats.evictions > 0 or admission == "static-degree"


@pytest.mark.parametrize("admission,eviction", [
    ("degree-weighted", "lru"), ("always", "degree-weighted"), ("always", "none"),
])
def test_degree_aware_decisions_look_degrees_up(admission, eviction):
    tier, degree_of = build(admission, eviction)
    assert drive(tier, degree_of) > 0


def full_tier(admission, eviction):
    tier, degree_of = build(admission, eviction, capacity=4)
    ids = np.array([3, 8, 11, 20])
    tier.seed(ids, SERVER[ids])
    assert degree_of.calls == 0 and tier.size == tier.capacity
    return tier, degree_of


def test_the_none_overflow_fallback_looks_up_only_the_candidates():
    tier, degree_of = full_tier("always", "none")
    tier.admit(np.array([1, 2]), SERVER[[1, 2]], step=1)   # no victims, no room
    assert degree_of.calls == 1
    assert tier.stats.rejections == 2
    assert_degrees_match(tier, degree_of)


def test_the_resize_fallback_looks_up_the_residents():
    tier, degree_of = full_tier("always", "none")
    assert tier.resize(2, step=1) == 2
    assert degree_of.calls == 1
    # Degrees 1, 1, 2, 0 for ids 3, 8, 11, 20: 20 goes, then 3 (the first of the tie).
    np.testing.assert_array_equal(tier.resident_ids, [8, 11])
    assert_degrees_match(tier, degree_of)


def test_degree_weighted_admission_asks_only_once_the_tier_is_full():
    tier, degree_of = build("degree-weighted", "lru", capacity=4)
    tier.admit(np.array([1, 2]), SERVER[[1, 2]], step=0)   # free slots cover the offer
    assert degree_of.calls == 0
    tier.admit(np.array([5, 6, 7]), SERVER[[5, 6, 7]], step=1)
    assert degree_of.calls > 0


@pytest.mark.parametrize("eviction", CACHE_EVICTION_POLICIES.names())
@pytest.mark.parametrize("admission", ADMISSION_POLICIES.names())
def test_degree_views_follow_every_operation(admission, eviction):
    tier, degree_of = build(admission, eviction)
    drive(tier, degree_of, steps=12, seed=1)
    state = tier.snapshot()
    tier.resize(3, step=12)
    assert_degrees_match(tier, degree_of)
    tier.restore(state)
    assert_degrees_match(tier, degree_of)
    tier.invalidate()
    assert_degrees_match(tier, degree_of)


def test_a_tier_without_a_lookup_reports_zero_degrees():
    tier = CacheTier("hot", 4, DIM)
    tier.admit(np.array([2, 9]), SERVER[[2, 9]], step=0)
    assert tier.degrees(np.array([2, 9, 30])).dtype == np.int64
    np.testing.assert_array_equal(tier.resident_degrees, [0, 0])
