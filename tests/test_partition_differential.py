"""Differential tests: the set-up path against its per-node oracles.

``tests/partition_oracle.py`` holds the loops ``repro.graph.partition`` and
``CSRGraph.from_edges`` used to be.  The production code must agree with them
exactly — the same ``parts`` array *and* the same position of the RNG stream,
the same CSR arrays and dtypes — on graphs chosen to be awkward: directed,
multi-edges, self-loops, isolated nodes, unsorted rows, stars (where matching
stalls), ``k`` up to ``n``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from partition_oracle import from_edges_oracle, metis_partition_oracle
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.partition import _GainTable, _Level, metis_partition
from repro.utils.rng import derive_seed

# Exact-repeat counters both implementations must agree on; ``refine_visits`` is
# the one that differs by design (the oracle visits the whole boundary).
SHARED_COUNTS = ("levels", "boundary_nodes", "refine_moves")


@st.composite
def csr_graphs(draw, max_nodes=96):
    """A raw CSR graph: any mix of the awkward shapes, rows left unsorted."""
    # Hypothesis leans towards small integers; coarsening needs more than 8k nodes.
    n = draw(st.one_of(st.integers(2, max_nodes), st.integers(max_nodes // 2, max_nodes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["sparse", "dense", "star", "clusters"]))
    if shape == "star":
        hubs = rng.integers(0, n, size=draw(st.integers(1, 2)))
        src = np.repeat(hubs, n)
        dst = np.tile(np.arange(n), len(hubs))
    elif shape == "clusters":
        size = draw(st.integers(2, 8))
        src = rng.integers(0, n, size=n * 4)
        dst = (src // size) * size + rng.integers(0, size, size=len(src))
        dst = np.minimum(dst, n - 1)
    else:
        num_edges = draw(st.integers(0, n * (8 if shape == "dense" else 2)))
        src = rng.integers(0, n, size=num_edges)
        dst = rng.integers(0, n, size=num_edges)
    if draw(st.booleans()):  # isolated nodes: silence the top of the id range
        cut = draw(st.integers(1, n))
        keep = (src < cut) & (dst < cut)
        src, dst = src[keep], dst[keep]
    if draw(st.booleans()):  # symmetric, like the dataset analogs
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if draw(st.booleans()):  # multi-edges
        again = rng.integers(0, max(len(src), 1), size=len(src) // 3)
        src, dst = np.concatenate([src, src[again]]), np.concatenate([dst, dst[again]])
    if draw(st.booleans()):
        keep = src != dst
        src, dst = src[keep], dst[keep]
    by_src = np.argsort(src, kind="stable")  # group by row, columns in draw order
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return CSRGraph(indptr=indptr, indices=dst[by_src], num_nodes=n)


class TestMetisMatchesOracle:
    @given(
        graph=csr_graphs(),
        # Small k (twice as likely) lets the graph coarsen — the target size is
        # max(coarsen_until, 8k) — a fraction stretches k all the way to n.
        k_spec=st.one_of(st.integers(2, 5), st.integers(2, 5), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        coarsen_until=st.sampled_from([1, 4, 16, 256]),
        refine_passes=st.integers(0, 5),
        imbalance_tolerance=st.sampled_from([1.0, 1.05, 1.5]),
    )
    @settings(max_examples=250, deadline=None)
    def test_parts_and_rng_state(self, graph, k_spec, seed, coarsen_until,
                                 refine_passes, imbalance_tolerance):
        n = graph.num_nodes
        k = min(n, k_spec) if isinstance(k_spec, int) else 2 + int(k_spec * (n - 2))
        options = dict(coarsen_until=coarsen_until, refine_passes=refine_passes,
                       imbalance_tolerance=imbalance_tolerance)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = metis_partition(graph, k, seed=rng, **options)
        parts, counts = metis_partition_oracle(
            graph.indptr, graph.indices, k, oracle_rng, **options)
        np.testing.assert_array_equal(result.parts, parts)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert result.parts.dtype == np.int64
        stats = result.stats
        assert [stats[key] for key in SHARED_COUNTS] == [counts[key] for key in SHARED_COUNTS]
        assert counts["refine_visits"] == counts["boundary_nodes"]
        assert stats["refine_moves"] <= stats["refine_visits"] <= stats["boundary_nodes"]

    # k = 2 at seeds 0 and 1 are the partitions the e2e benchmark builds.
    @pytest.mark.parametrize("k, seed", [(2, 0), (2, 1), (4, 0), (8, 0)])
    def test_products_fixture_visits_a_fraction_of_the_boundary(self, k, seed):
        graph = load_dataset("products", scale=0.3, seed=seed).graph
        rng_seed = derive_seed(seed, 101)
        result = metis_partition(graph, k, seed=rng_seed)
        parts, counts = metis_partition_oracle(
            graph.indptr, graph.indices, k, np.random.default_rng(rng_seed))
        np.testing.assert_array_equal(result.parts, parts)
        stats = result.stats
        assert [stats[key] for key in SHARED_COUNTS] == [counts[key] for key in SHARED_COUNTS]
        assert stats["refine_visits"] <= stats["boundary_nodes"] / 4
        assert all(isinstance(stats[key], int) for key in SHARED_COUNTS + ("refine_visits",))


class TestFromEdgesMatchesOracle:
    @given(
        n=st.integers(1, 30),
        num_edges=st.integers(0, 90),
        seed=st.integers(0, 2**32 - 1),
        infer_num_nodes=st.booleans(),
        dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_eight_flag_combinations(self, n, num_edges, seed, infer_num_nodes, dtype):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, size=num_edges).astype(dtype)
        dst = rng.integers(0, n, size=num_edges).astype(dtype)
        num_nodes = None if infer_num_nodes else n
        for flags in range(8):
            options = dict(symmetrize=bool(flags & 1), remove_self_loops=bool(flags & 2),
                           deduplicate=bool(flags & 4))
            graph = CSRGraph.from_edges(src, dst, num_nodes=num_nodes, **options)
            indptr, indices, nodes = from_edges_oracle(src, dst, num_nodes, **options)
            assert graph.num_nodes == nodes and isinstance(graph.num_nodes, int)
            np.testing.assert_array_equal(graph.indptr, indptr)
            np.testing.assert_array_equal(graph.indices, indices)
            assert graph.indptr.dtype == np.int64 and graph.indices.dtype == np.int64

    def test_empty_edge_list_without_num_nodes(self):
        graph = CSRGraph.from_edges([], [])
        assert (graph.num_nodes, graph.num_edges, graph.indptr.tolist()) == (0, 0, [0])


class TestGainTable:
    @given(graph=csr_graphs(max_nodes=24), k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_recomputation_after_every_move(self, graph, k, seed):
        rng = np.random.default_rng(seed)
        n = graph.num_nodes
        level = _Level(
            indptr=graph.indptr, indices=graph.indices,
            edge_weights=rng.integers(1, 5, size=graph.num_edges),
            node_weights=np.ones(n, dtype=np.int64),
        )
        parts = rng.integers(0, k, size=n)
        table = _GainTable(level, parts, k)
        for _ in range(12):
            node, new = int(rng.integers(n)), int(rng.integers(k))
            if new == parts[node]:
                continue
            touched = table.move(node, new)
            assert parts[node] == new  # the table owns the assignment it describes
            fresh = _GainTable(level, parts.copy(), k)
            np.testing.assert_array_equal(table.gains, fresh.gains)
            # Exactly the nodes with an edge to the moved node are reported.
            src = np.repeat(np.arange(n), np.diff(graph.indptr))
            assert sorted(touched.tolist()) == sorted(src[graph.indices == node].tolist())
        # From scratch, the slow way: one row at a time.
        for u in range(n):
            row = np.zeros(k, dtype=np.int64)
            start, end = graph.indptr[u], graph.indptr[u + 1]
            np.add.at(row, parts[graph.indices[start:end]], level.edge_weights[start:end])
            np.testing.assert_array_equal(table.gains[u], row)
