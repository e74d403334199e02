"""Property test: the in-place sampler against its per-node oracle on hub-heavy graphs.

Hypothesis draws directed CSR graphs whose rows have small degrees around the
fan-outs (``fanout`` and ``fanout + 1`` included), plus a few planted hubs with
degree up to 50x the largest fan-out and one isolated node; per-layer fan-outs
from ``{-1, 1, 2, 5, 10, 25}``; and seed batches that repeat seeds and include
the isolated node.  :class:`~repro.sampling.neighbor_sampler.NeighborSampler`
and ``tests/sampler_oracle.py`` sample every batch from the same seed: blocks,
edge indices, offsets and the RNG-stream position must match after every
batch, and the sampler's in-place CSR copy must equal ``graph.indices`` again.
Example budgets come from the Hypothesis profile (``tests/conftest.py``); CI's
drift job runs this file under ``deep``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, strategies as st
from sampler_oracle import LoopNeighborSampler
from test_sampler_differential import assert_minibatches_equal

from repro.graph.csr import CSRGraph
from repro.sampling.neighbor_sampler import NeighborSampler

FANOUTS = (-1, 1, 2, 5, 10, 25)


@st.composite
def hub_workloads(draw):
    """``(graph, fanouts, seed batches)``.

    Rows have degrees in ``[0, cap + 2]`` (``cap`` the largest fan-out), up to
    three planted hubs have ``2..50 x cap``, and the last node is isolated.
    Batches repeat seeds freely and may carry the isolated node.
    """
    fanouts = draw(st.lists(st.sampled_from(FANOUTS), min_size=1, max_size=3))
    cap = max(fanouts + [1])
    num_nodes = draw(st.integers(2, 40))
    degrees = draw(st.lists(st.integers(0, cap + 2), min_size=num_nodes - 1,
                            max_size=num_nodes - 1))
    hubs = draw(st.lists(st.tuples(st.integers(0, num_nodes - 2), st.integers(2, 50)),
                         max_size=3))
    for node, multiple in hubs:
        degrees[node] = multiple * cap
    degrees.append(0)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = rng.integers(0, num_nodes, size=int(indptr[-1]))
    batch = st.tuples(
        st.lists(st.integers(0, num_nodes - 1), min_size=1, max_size=12), st.booleans()
    ).map(lambda drawn: drawn[0] + [num_nodes - 1] * drawn[1])
    batches = draw(st.lists(batch, min_size=1, max_size=4))
    graph = CSRGraph(indptr=indptr, indices=indices, num_nodes=num_nodes)
    return graph, fanouts, [np.array(b, dtype=np.int64) for b in batches]


# A 50x hub next to a take-all row, a repeated seed and the isolated node.
HUB_50X = (
    CSRGraph(indptr=np.array([0, 1250, 1251, 1251]), indices=np.arange(1251) % 3, num_nodes=3),
    [25, 1],
    [np.array([0, 0, 2, 1]), np.array([1])],
)


@given(workload=hub_workloads(), seed=st.integers(0, 2**32 - 1))
@example(workload=HUB_50X, seed=0)
def test_sampler_matches_oracle_on_hub_graphs(workload, seed):
    graph, fanouts, batches = workload
    oracle = LoopNeighborSampler(graph, fanouts, seed=seed)
    sampler = NeighborSampler(graph, fanouts, seed=seed)
    for step, seeds in enumerate(batches):
        assert_minibatches_equal(oracle.sample(seeds, step=step),
                                 sampler.sample(seeds, step=step))
        assert oracle.rng.bit_generator.state == sampler.rng.bit_generator.state
        np.testing.assert_array_equal(sampler._indices_scratch, graph.indices)
