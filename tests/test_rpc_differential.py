"""The halo miss path against its pre-rewrite form, plus the empty-store table.

Hypothesis draws a world — one to three remote owners over a small id
universe — and a sequence of step openings, deactivations, window reads and
pulls through two batched channels sharing one :class:`CoalescingWindow`
and one per-call channel, optionally ending in a pull that fails: it names
an id its owner does not hold, or an id whose owner has no server.  The id batches are
sorted-unique, unsorted or repeated, and the small id universe makes later
pulls in a step ask again for ids already in the window.  The real
``KVStore`` / ``CoalescingWindow`` / channels and their oracles
(``tests/rpc_oracle.py``) run the same sequence; after every operation the
rows, the ``RPCStats`` deltas and cumulative stats and the window contents
must agree, and a failing pull must raise the same exception type and message
on both sides.  After the failed pull everything
but the window's contacted owners must still agree: which owners count as
contacted after a pull fails part-way is not specified (the oracle notes the
owners served before the failing one, the real channel notes none).

Every drawn server holds at least one row, because the oracle's
``KVStore.pull`` and ``CoalescingWindow.rows_for`` raised a bare
``IndexError`` on an empty store or window.  That bug is pinned by the table
at the end: the real classes raise the ``KeyError`` that names the ids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from rpc_oracle import (
    OracleBatchedRPCChannel,
    OracleCoalescingWindow,
    OracleKVStore,
    OracleRPCChannel,
)

from repro.distributed.kvstore import KVStore
from repro.distributed.rpc import BatchedRPCChannel, CoalescingWindow, RPCChannel

DIM = 3
UNIVERSE = 30        # ids 0..29 are held by their owners
WITHHELD = UNIVERSE  # an id whose owner does not hold it
ORPHAN = UNIVERSE + 1
NO_SERVER = 9        # ORPHAN's owner: a partition id no server is registered for
LOCAL = 0
LOCAL_IDS = np.arange(200, 204, dtype=np.int64)


def features(ids):
    ids = np.asarray(ids, dtype=np.int64)
    return (ids[:, None] * DIM + np.arange(DIM)).astype(np.float32)


@st.composite
def worlds(draw):
    """(number of remote owners, owner of every id up to ORPHAN)."""
    num_owners = draw(st.integers(1, 3))
    owner_of = draw(st.lists(st.integers(1, num_owners),
                             min_size=UNIVERSE + 1, max_size=UNIVERSE + 1))
    return num_owners, np.asarray(owner_of + [NO_SERVER], dtype=np.int64)


def build(world, store_cls, window_cls, batched_cls, per_call_cls):
    num_owners, owner_of = world
    servers = {LOCAL: store_cls(LOCAL_IDS, features(LOCAL_IDS), part_id=LOCAL)}
    for owner in range(1, num_owners + 1):
        held = np.flatnonzero(owner_of[:UNIVERSE] == owner)
        held = np.append(held, 100 + owner)[::-1]   # never empty, unsorted
        servers[owner] = store_cls(held, features(held), part_id=owner)
    window = window_cls()
    channels = [batched_cls(servers, LOCAL, window=window),
                batched_cls(servers, LOCAL, window=window),
                per_call_cls(servers, LOCAL)]
    return servers, window, channels


batches = st.tuples(st.sampled_from(["sorted", "unsorted", "repeated"]),
                    st.lists(st.integers(0, UNIVERSE - 1), max_size=8))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("pull"), st.tuples(st.integers(0, 2), batches)),
        st.tuples(st.just("rows_for"), batches),
        # Open a step's window, or (None) deactivate it.
        st.tuples(st.just("step"), st.one_of(st.none(), st.integers(0, 3))),
    ),
    max_size=16,
)
# A last pull that fails: one bad id spliced into a batch, through one channel.
failing_pulls = st.one_of(st.none(), st.tuples(
    st.integers(0, 2), batches, st.sampled_from([WITHHELD, ORPHAN]), st.integers(0, 16)))


def batch_ids(batch):
    kind, ids = batch
    ids = np.asarray(ids, dtype=np.int64)
    if kind == "sorted":
        return np.unique(ids)
    if kind == "repeated":
        return np.concatenate([ids, ids[::-1]])
    return ids


def outcome(call):
    """``(result, None)`` or ``(None, (exception type, message))``."""
    try:
        return call(), None
    except Exception as error:  # any type: the type itself is compared
        return None, (type(error), str(error))


def assert_same_pull(real, oracle):
    (real_rows, real_time, real_delta), (rows, time_s, delta) = real, oracle
    assert real_rows.dtype == rows.dtype == np.float32
    np.testing.assert_array_equal(real_rows, rows)
    assert real_time == time_s and real_delta == delta


def assert_same_state(real_world, oracle_world, *, owners=True):
    (_, real_window, real_channels) = real_world
    (_, window, channels) = oracle_world
    for mine, theirs in zip(real_channels, channels):
        assert mine.stats == theirs.stats
    assert real_window._step == window._step
    np.testing.assert_array_equal(real_window._ids, window._ids)
    if window._rows is None:
        assert real_window._rows is None
    else:
        np.testing.assert_array_equal(real_window._rows, window._rows)
    if owners:
        assert real_window._owners == window._owners


def pull(world, index, ids, owner_of):
    return outcome(lambda: world[2][index].remote_pull(ids, owner_of[ids]))


# Both failures, whatever Hypothesis draws: the withheld id through a batched
# channel after an open step's pull, the orphan through the per-call channel.
FIXED_WORLD = (2, np.array([1, 2] * (UNIVERSE // 2) + [1, NO_SERVER], dtype=np.int64))
FIXED_OPS = [("step", 0), ("pull", (0, ("unsorted", [4, 1, 4, 7])))]


@given(world=worlds(), ops=operations, failing=failing_pulls)
@example(world=FIXED_WORLD, ops=FIXED_OPS, failing=(1, ("sorted", [7, 2]), WITHHELD, 1))
@example(world=FIXED_WORLD, ops=FIXED_OPS, failing=(2, ("repeated", [4]), ORPHAN, 0))
@settings(max_examples=max(100, settings().max_examples), deadline=None, derandomize=True)
def test_miss_path_matches_the_oracle(world, ops, failing):
    owner_of = world[1]
    real = build(world, KVStore, CoalescingWindow, BatchedRPCChannel, RPCChannel)
    oracle = build(world, OracleKVStore, OracleCoalescingWindow,
                   OracleBatchedRPCChannel, OracleRPCChannel)
    for op, arg in ops:
        if op == "step":
            for window in (real[1], oracle[1]):
                if arg is None:
                    window.deactivate()
                else:
                    window.begin_step(arg)
        elif op == "rows_for":
            if len(oracle[1]._ids) == 0:
                continue   # the oracle's IndexError; see the table below
            ids = batch_ids(arg)
            mine = outcome(lambda: real[1].rows_for(ids))
            theirs = outcome(lambda: oracle[1].rows_for(ids))
            assert mine[1] == theirs[1]
            if theirs[1] is None:
                np.testing.assert_array_equal(mine[0], theirs[0])
        else:
            index, batch = arg
            ids = batch_ids(batch)
            mine, theirs = pull(real, index, ids, owner_of), pull(oracle, index, ids, owner_of)
            assert mine[1] is None and theirs[1] is None
            assert_same_pull(mine[0], theirs[0])
        assert_same_state(real, oracle)
    if failing is not None:
        index, batch, bad, at = failing
        ids = batch_ids(batch)
        ids = np.insert(ids, min(at, len(ids)), bad)
        mine, theirs = pull(real, index, ids, owner_of), pull(oracle, index, ids, owner_of)
        assert theirs[1] is not None and mine[1] == theirs[1]
        assert_same_state(real, oracle, owners=False)


# --------------------------------------------------------------------------- #
# An empty store or window names the ids it lacks (a bare IndexError before)
# --------------------------------------------------------------------------- #
def empty_store(part_id=3):
    return KVStore(np.zeros(0, dtype=np.int64), np.zeros((0, DIM), dtype=np.float32),
                   part_id=part_id)


def open_window(cached=(), reset=False):
    """A window opened for step 0 holding *cached*; *reset* then opens step 1."""
    window = CoalescingWindow()
    window.begin_step(0)
    if cached:
        window.add(np.asarray(cached, dtype=np.int64), features(cached))
    if reset:
        window.begin_step(1)
    return window


def pull_through_empty_owner(channel_cls):
    servers = {LOCAL: KVStore(LOCAL_IDS, features(LOCAL_IDS)), 1: empty_store(part_id=1)}
    channel = channel_cls(servers, LOCAL)
    channel.begin_step(0)
    return channel.remote_pull(np.array([7, 5], dtype=np.int64), np.array([1, 1]))


EMPTY_CASES = {
    "store pull": (lambda: empty_store().pull(np.array([5])),
                   "KVStore for partition 3 does not own nodes [5]"),
    "store pull, many ids": (
        lambda: empty_store().pull(np.arange(8, dtype=np.int64)),
        "KVStore for partition 3 does not own nodes [0, 1, 2, 3, 4]"),
    "inactive window": (lambda: CoalescingWindow().rows_for(np.array([2], dtype=np.int64)),
                        "window cache is missing nodes [2]"),
    "open window, nothing cached": (
        lambda: open_window().rows_for(np.array([2], dtype=np.int64)),
        "window cache is missing nodes [2]"),
    "window reset by a new step": (
        lambda: open_window(cached=[4], reset=True).rows_for(np.array([4, 9], dtype=np.int64)),
        "window cache is missing nodes [4, 9]"),
    "per-call channel, owner holds nothing": (
        lambda: pull_through_empty_owner(RPCChannel),
        "KVStore for partition 1 does not own nodes [7, 5]"),
    "batched channel, owner holds nothing": (
        lambda: pull_through_empty_owner(BatchedRPCChannel),
        "KVStore for partition 1 does not own nodes [5, 7]"),
}


@pytest.mark.parametrize("case", list(EMPTY_CASES))
def test_an_empty_store_or_window_raises_the_keyerror_naming_the_ids(case):
    call, message = EMPTY_CASES[case]
    with pytest.raises(KeyError) as info:
        call()
    assert info.value.args[0] == message


def test_an_empty_store_answers_empty_requests():
    store = empty_store()
    assert store.pull(np.zeros(0, dtype=np.int64)).shape == (0, DIM)
