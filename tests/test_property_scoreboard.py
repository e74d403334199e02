"""Differential property test: the dense S_A scoreboard agrees with its oracle.

``DenseAccessScoreboard`` (an ``O(|V|)`` array indexed by global id) is the
layout the prefetcher builds; ``CompactAccessScoreboard`` in
``tests/scoreboard_oracle.py`` (an ``O(|V_h^p|)`` array addressed by binary
search) is the paper's other layout of the same interface.  Hypothesis draws a
halo set, the empty one included, and a sequence of ``increment``, ``set``,
``get`` and ``top_candidates`` calls (with and without ``degrees`` and
``exclude``; ids inside and outside the halo, repeated ids, empty queries),
drives both layouts with it, and requires the same value or the same
``KeyError`` from every call and the same scores on the whole halo after it.
Example budgets come from the Hypothesis profile (``tests/conftest.py``);
CI's drift job runs this test under ``deep``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, strategies as st
from scoreboard_oracle import CompactAccessScoreboard

from repro.core.scoreboard import DenseAccessScoreboard

UNIVERSE = 40
DEGREES = (np.arange(UNIVERSE, dtype=np.int64) * 7) % 5   # few distinct values: ties

scores = st.integers(-2, 5).map(float)                    # small integers: ties


def operations(halo):
    """One call's arguments; half the id lists hold halo nodes only, so most
    calls get past the membership check and reach the scores."""
    node = st.integers(0, UNIVERSE - 1)
    if halo:
        node = st.sampled_from(sorted(halo)) | node
        ids = st.lists(st.sampled_from(sorted(halo)), max_size=8) | st.lists(node, max_size=8)
    else:
        ids = st.lists(node, max_size=8)
    return st.one_of(
        st.tuples(st.just("increment"), ids),
        st.tuples(st.just("get"), ids),
        st.lists(st.tuples(node, scores), max_size=8,
                 unique_by=lambda pair: pair[0]).map(lambda pairs: ("set", pairs)),
        st.tuples(st.just("top"), st.integers(0, 10), st.none() | ids, st.booleans()),
    )


cases = st.sets(st.integers(0, UNIVERSE - 1), max_size=24).flatmap(
    lambda halo: st.tuples(st.just(halo), st.lists(operations(halo), max_size=12))
)


def call(board, op):
    """Run one drawn operation; ``("KeyError", message)`` when it raises one."""
    kind = op[0]
    try:
        if kind == "increment":
            board.increment(np.array(op[1], dtype=np.int64))
            return None
        if kind == "get":
            return board.get(np.array(op[1], dtype=np.int64)).tolist()
        if kind == "set":
            nodes = np.array([node for node, _ in op[1]], dtype=np.int64)
            board.set(nodes, np.array([value for _, value in op[1]]))
            return None
        _, k, exclude, with_degrees = op
        exclude = None if exclude is None else np.array(exclude, dtype=np.int64)
        degrees = DEGREES if with_degrees else None
        return board.top_candidates(k, exclude=exclude, degrees=degrees).tolist()
    except KeyError as err:
        return ("KeyError", str(err))


@given(case=cases)
# The two disagreements this test was written for: an empty query on an
# empty halo, and a non-halo id, which the dense layout used to accept.
@example(case=(set(), [("get", []), ("increment", []), ("set", [])]))
@example(case=({2, 5}, [("increment", [3]), ("set", [(3, 1.0)]), ("get", [3, 5])]))
def test_dense_and_compact_layouts_agree(case):
    halo, ops = case
    halo = np.array(sorted(halo), dtype=np.int64)
    dense = DenseAccessScoreboard(UNIVERSE, halo)
    compact = CompactAccessScoreboard(halo)
    for op in ops:
        assert call(dense, op) == call(compact, op), op
        assert dense.get(halo).tolist() == compact.get(halo).tolist()
