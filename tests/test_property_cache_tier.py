"""Stateful property test: the fixed-slot ``CacheTier`` against its oracle.

Hypothesis draws interleavings of every public mutation — ``seed``,
``lookup``, ``admit`` (sorted, unsorted, duplicated and already-resident
ids), ``resize`` (grow and shrink), ``invalidate`` — and drives the real
tier and :class:`OracleCacheTier` (the ``np.insert``/``np.delete`` layout,
``tests/cache_tier_oracle.py``) with the same sequence, once per eviction x
admission policy pair, and once more, with a halo-distance lookup feeding
the scorer, per pair whose tier builds one.  After every operation everything observable must
agree — :func:`tier_state` reads it through the public views — and the slot
store's own invariants must hold.  Two policies are checked against their
slow forms the same way: the oracle tier sweeps CLOCK with
:class:`LoopClockEviction` and picks LRU victims with
:class:`SortLRUEviction` (a whole-tier stable argsort), so victim *order* is
compared too.  Capacity 16 (and the ``FULL_TIER_SWAPS`` example, which every
policy pair runs) makes one admit trade several rows one for one, the
in-place branch of ``CacheTier._splice``.

The partial LRU selection is also held to the full sort directly, on stamps
with heavy ties.  Example budgets come from the Hypothesis profile
(``tests/conftest.py``); CI's drift job runs both tests under ``deep``.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from cache_tier_oracle import LoopClockEviction, OracleCacheTier, SortLRUEviction
from hypothesis import example, given, settings, strategies as st

from repro.cache import ADMISSION_POLICIES, CACHE_EVICTION_POLICIES, CacheTier
from repro.cache.policies import LRUEviction

DIM = 3
UNIVERSE = 24
SERVER = np.arange(UNIVERSE * DIM, dtype=np.float32).reshape(UNIVERSE, DIM)
VIEWS = ("resident_ids", "resident_last_access", "resident_freq",
         "resident_ref", "resident_degrees")
STATE_DTYPES = {"ids": np.int64, "rows": np.float32, "last_access": np.int64,
                "freq": np.int64, "ref": np.bool_, "degrees": np.int64}


def degree_of(ids):
    return (np.asarray(ids, dtype=np.int64) * 7) % 5   # few distinct values: ties


def halo_distance_of(ids):
    return np.asarray(ids, dtype=np.int64) % 4          # 0..3 hops; 0 reads as 1


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
                                            max_size=16)),
        st.tuples(st.just("lookup"), ids_lists),
        st.tuples(st.just("admit"), ids_lists),
        st.tuples(st.just("admit_sorted"), ids_lists),
        st.tuples(st.just("resize"), st.integers(0, 9)),
        st.tuples(st.just("invalidate"), st.none()),
    ),
    max_size=24,
)
# A full capacity-16 tier trading four rows one for one, twice: the in-place
# branch of CacheTier._splice, with LRU ties among the victims.
FULL_TIER_SWAPS = [
    ("seed", [i for i in range(UNIVERSE) if i % 3 != 2]),
    ("lookup", [3, 9, 1, 22, 4]),
    ("admit", [20, 2, 5, 20, 8]),
    ("lookup", [2, 5, 6, 7]),
    ("admit_sorted", [11, 14, 17, 23]),
]


ORACLE_EVICTION = {"clock": LoopClockEviction, "lru": SortLRUEviction}


def build_pair(capacity, eviction, admission, distance_of=None):
    pair = []
    for cls in (CacheTier, OracleCacheTier):
        tier = cls("hot", capacity, DIM, admission=admission, eviction=eviction,
                   degree_of=degree_of, distance_of=distance_of)
        if cls is OracleCacheTier and eviction in ORACLE_EVICTION:
            tier.eviction = ORACLE_EVICTION[eviction]()
        tier.eviction = RecordingEviction(tier.eviction)
        pair.append(tier)
    return pair


def tier_state(tier):
    """What *tier* holds, read through its public views.

    Each resident's row is served by a lookup on a copy of the tier, so the
    slot map is read without touching the tier's counters or stamps.
    """
    ids = tier.resident_ids
    hit_mask, rows = copy.deepcopy(tier).lookup(ids, tier.last_step)
    assert hit_mask.all()
    return {
        "capacity": tier.capacity, "clock_hand": tier.clock_hand,
        "last_step": tier.last_step, "stats": tier.stats.snapshot(),
        "ids": ids, "rows": rows, "last_access": tier.resident_last_access,
        "freq": tier.resident_freq, "ref": tier.resident_ref.astype(bool),
        "degrees": tier.degrees(ids),
    }


def assert_same_state(real, oracle):
    assert real.keys() == oracle.keys()
    for key, dtype in STATE_DTYPES.items():
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
    assert_same_state(tier_state(real), tier_state(oracle))   # rows: via the slot map
    # The slot store's own invariants.
    assert real.size <= real.capacity
    assert np.all(np.diff(real.resident_ids) > 0)
    slots = np.concatenate([real._slots, real._free])
    np.testing.assert_array_equal(np.sort(slots), np.arange(len(real._rows)))


def apply(tier, op, arg, step):
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
    assert op == "invalidate"
    return tier.invalidate()


@pytest.mark.parametrize("admission", ADMISSION_POLICIES.names())
@pytest.mark.parametrize("eviction", CACHE_EVICTION_POLICIES.names())
@given(capacity=st.sampled_from([0, 1, 2, 4, 7, 16]), ops=operations)
@example(capacity=16, ops=FULL_TIER_SWAPS)
@settings(deadline=None, derandomize=True)
def test_slot_store_matches_the_reallocating_oracle(eviction, admission, capacity, ops):
    real, oracle = build_pair(capacity, eviction, admission)
    assert_equivalent(real, oracle)
    for step, (op, arg) in enumerate(ops):
        assert apply(real, op, arg, step) == apply(oracle, op, arg, step)
        assert_equivalent(real, oracle)


SCORED_PAIRS = [
    (admission, eviction)
    for eviction in CACHE_EVICTION_POLICIES.names()
    for admission in ADMISSION_POLICIES.names()
    if CacheTier("probe", 0, 1, admission=admission, eviction=eviction).scorer is not None
]


@pytest.mark.parametrize("admission,eviction", SCORED_PAIRS)
@given(capacity=st.sampled_from([0, 1, 2, 4, 7, 16]), ops=operations)
@example(capacity=16, ops=FULL_TIER_SWAPS)
@settings(deadline=None, derandomize=True)
def test_scored_tiers_with_a_halo_distance_lookup_match_the_oracle(
        admission, eviction, capacity, ops):
    real, oracle = build_pair(capacity, eviction, admission, distance_of=halo_distance_of)
    assert real.scorer.distance_of is halo_distance_of
    assert_equivalent(real, oracle)
    for step, (op, arg) in enumerate(ops):
        assert apply(real, op, arg, step) == apply(oracle, op, arg, step)
        assert_equivalent(real, oracle)


@st.composite
def tied_stamps(draw):
    """Last-access stamps over at most four distinct values, and a victim count."""
    values = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))
    stamps = np.asarray(draw(st.lists(st.sampled_from(values), min_size=1, max_size=48)),
                        dtype=np.int64)
    return stamps, draw(st.integers(1, len(stamps) + 2))


@given(case=tied_stamps())
@settings(max_examples=max(100, settings().max_examples), deadline=None)
def test_partial_lru_selection_matches_the_full_sort(case):
    stamps, num_victims = case
    tier = SimpleNamespace(resident_last_access=stamps)
    victims = LRUEviction().select(tier, num_victims)
    assert victims.dtype == np.int64
    np.testing.assert_array_equal(victims, SortLRUEviction().select(tier, num_victims))
