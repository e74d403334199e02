"""Stateful property test: the fixed-slot ``CacheTier`` against its oracle.

Hypothesis draws interleavings of every public mutation — ``seed``,
``lookup``, ``admit`` (sorted, unsorted, duplicated and already-resident
ids), ``resize`` (grow and shrink), ``invalidate``, ``snapshot`` -> ``restore``
— and drives the real tier and :class:`OracleCacheTier` (the
``np.insert``/``np.delete`` layout, ``tests/cache_tier_oracle.py``) with the
same sequence, once per eviction x admission policy pair.  After every
operation everything observable must agree, and the slot store's own
invariants must hold.  The CLOCK policy is checked against its loop form the
same way: the oracle tier sweeps with :class:`LoopClockEviction`.
"""

from __future__ import annotations

import numpy as np
import pytest
from cache_tier_oracle import LoopClockEviction, OracleCacheTier
from hypothesis import given, settings, strategies as st

from repro.cache import ADMISSION_POLICIES, CACHE_EVICTION_POLICIES, CacheTier

DIM = 3
UNIVERSE = 24
SERVER = np.arange(UNIVERSE * DIM, dtype=np.float32).reshape(UNIVERSE, DIM)
VIEWS = ("resident_ids", "resident_last_access", "resident_freq",
         "resident_ref", "resident_degrees")
SNAPSHOT_DTYPES = {"ids": np.int64, "rows": np.float32, "last_access": np.int64,
                   "freq": np.int64, "ref": np.bool_, "degrees": np.int64}


def degree_of(ids):
    return (np.asarray(ids, dtype=np.int64) * 7) % 5   # few distinct values: ties


class RecordingEviction:
    """Wraps a policy and keeps every victim set it returns."""

    def __init__(self, policy):
        self.policy = policy
        self.victims = []

    def select(self, tier, num_victims):
        chosen = self.policy.select(tier, num_victims)
        self.victims.append(np.array(chosen))
        return chosen


ids_lists = st.lists(st.integers(0, UNIVERSE - 1), max_size=10)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("seed"), st.lists(st.integers(0, UNIVERSE - 1), unique=True,
                                            max_size=8)),
        st.tuples(st.just("lookup"), ids_lists),
        st.tuples(st.just("admit"), ids_lists),
        st.tuples(st.just("admit_sorted"), ids_lists),
        st.tuples(st.just("resize"), st.integers(0, 9)),
        st.tuples(st.just("invalidate"), st.none()),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("restore"), st.none()),
    ),
    max_size=24,
)


def build_pair(capacity, eviction, admission):
    pair = []
    for cls in (CacheTier, OracleCacheTier):
        tier = cls("hot", capacity, DIM, admission=admission, eviction=eviction,
                   degree_of=degree_of)
        if cls is OracleCacheTier and eviction == "clock":
            tier.eviction = LoopClockEviction()
        tier.eviction = RecordingEviction(tier.eviction)
        pair.append(tier)
    return pair


def assert_same_snapshot(real, oracle):
    assert real.keys() == oracle.keys()
    for key, dtype in SNAPSHOT_DTYPES.items():
        assert real[key].dtype == dtype and len(real[key]) == len(real["ids"])
        np.testing.assert_array_equal(real[key], oracle[key])
    for key in ("capacity", "clock_hand", "last_step", "stats"):
        assert real[key] == oracle[key]


def assert_equivalent(real, oracle):
    for view in VIEWS:
        np.testing.assert_array_equal(getattr(real, view), getattr(oracle, view))
    assert (real.size, real.capacity, real.clock_hand, real.last_step, real.stats) == \
        (oracle.size, oracle.capacity, oracle.clock_hand, oracle.last_step, oracle.stats)
    assert real.nbytes() == oracle.nbytes() and real.summary() == oracle.summary()
    assert len(real.eviction.victims) == len(oracle.eviction.victims)
    for mine, theirs in zip(real.eviction.victims, oracle.eviction.victims):
        np.testing.assert_array_equal(mine, theirs)
    assert_same_snapshot(real.snapshot(), oracle.snapshot())   # rows: via the slot map
    # The slot store's own invariants.
    assert real.size <= real.capacity
    assert np.all(np.diff(real.resident_ids) > 0)
    slots = np.concatenate([real._slots, real._free])
    np.testing.assert_array_equal(np.sort(slots), np.arange(len(real._rows)))


def apply(tier, op, arg, step, saved):
    """Run one operation; returns what the caller may observe of it."""
    if op == "seed":
        ids = np.asarray(arg[:tier.capacity], dtype=np.int64)
        return tier.seed(ids, SERVER[ids], step)
    if op in ("lookup", "admit", "admit_sorted"):
        ids = np.asarray(arg, dtype=np.int64)
        if op == "lookup":
            hit_mask, rows = tier.lookup(ids, step)
            np.testing.assert_array_equal(rows, SERVER[ids[hit_mask]])
            return hit_mask.tolist()
        if op == "admit_sorted":
            ids = np.unique(ids)
        return tier.admit(ids, SERVER[ids], step)
    if op == "resize":
        return tier.resize(arg, step)
    if op == "invalidate":
        return tier.invalidate()
    if op == "snapshot":
        saved[id(tier)] = tier.snapshot()
    elif id(tier) in saved:   # restore, possibly into a tier of another capacity
        tier.restore(saved[id(tier)])
    return None


@pytest.mark.parametrize("admission", ADMISSION_POLICIES.names())
@pytest.mark.parametrize("eviction", CACHE_EVICTION_POLICIES.names())
@given(capacity=st.sampled_from([0, 1, 2, 4, 7]), ops=operations)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_slot_store_matches_the_reallocating_oracle(eviction, admission, capacity, ops):
    real, oracle = build_pair(capacity, eviction, admission)
    saved = {}
    assert_equivalent(real, oracle)
    for step, (op, arg) in enumerate(ops):
        assert apply(real, op, arg, step, saved) == apply(oracle, op, arg, step, saved)
        assert_equivalent(real, oracle)
