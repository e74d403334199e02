"""Property-based tests (hypothesis) for graph structures and partitioning."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.halo import build_partitions
from repro.graph.partition import (
    PartitionResult, balance, edge_cut, metis_partition, random_partition,
)
from graph_checks import has_edge, is_symmetric


@st.composite
def edge_lists(draw, max_nodes=40, max_edges=120):
    """Random edge lists over a small node universe."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, num_nodes - 1), min_size=num_edges, max_size=num_edges)
    )
    dst = draw(
        st.lists(st.integers(0, num_nodes - 1), min_size=num_edges, max_size=num_edges)
    )
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), num_nodes


class TestCSRProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_construction_invariants(self, data):
        src, dst, n = data
        g = CSRGraph.from_edges(src, dst, num_nodes=n)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges
        assert np.all(np.diff(g.indptr) >= 0)
        assert g.out_degree().sum() == g.num_edges
        if g.num_edges:
            assert g.indices.min() >= 0 and g.indices.max() < n

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_symmetrize_produces_symmetric_graph(self, data):
        src, dst, n = data
        g = CSRGraph.from_edges(src, dst, num_nodes=n, symmetrize=True, remove_self_loops=True)
        assert is_symmetric(g)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_edges_roundtrip(self, data):
        src, dst, n = data
        g = CSRGraph.from_edges(src, dst, num_nodes=n)
        s2, d2 = g.edges()
        g2 = CSRGraph.from_edges(s2, d2, num_nodes=n, deduplicate=False)
        np.testing.assert_array_equal(g.indptr, g2.indptr)
        np.testing.assert_array_equal(g.indices, g2.indices)

    @given(edge_lists(), st.integers(0, 1_000_000))
    @settings(max_examples=30, deadline=None)
    def test_induced_subgraph_edges_subset(self, data, seed):
        src, dst, n = data
        g = CSRGraph.from_edges(src, dst, num_nodes=n)
        rng = np.random.default_rng(seed)
        size = rng.integers(1, n + 1)
        nodes = rng.choice(n, size=size, replace=False)
        sub, mapping = g.induced_subgraph(np.sort(nodes))
        assert sub.num_nodes == len(nodes)
        s, d = sub.edges()
        for u, v in zip(s, d):
            assert has_edge(g, int(mapping[u]), int(mapping[v]))


class TestPartitionProperties:
    @given(edge_lists(max_nodes=60), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_metis_partition_invariants(self, data, k, seed):
        src, dst, n = data
        if k > n:
            k = n
        g = CSRGraph.from_edges(src, dst, num_nodes=n, symmetrize=True, remove_self_loops=True)
        result = metis_partition(g, k, seed=seed)
        # Every node assigned to a valid partition.
        assert len(result.parts) == n
        assert result.parts.min() >= 0 and result.parts.max() < k
        # Edge cut never exceeds the edge count; balance is at least 1.
        assert 0 <= edge_cut(g, result.parts) <= g.num_edges
        assert balance(result.parts, k) >= 1.0

    @given(edge_lists(max_nodes=50), st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_halo_partitions_cover_graph(self, data, k, seed):
        src, dst, n = data
        if k > n:
            k = n
        g = CSRGraph.from_edges(src, dst, num_nodes=n, symmetrize=True, remove_self_loops=True)
        result = random_partition(g, k, seed=seed)
        partitions = build_partitions(g, result)
        # Ownership is a partition of the node set.
        owned = np.concatenate([p.owned_global for p in partitions])
        np.testing.assert_array_equal(np.sort(owned), np.arange(n))
        # Each partition's local edges equal edges whose source it owns; totals match.
        assert sum(p.local_graph.num_edges for p in partitions) == g.num_edges
        # Halo nodes are never owned by the same partition.
        for p in partitions:
            assert len(np.intersect1d(p.owned_global, p.halo_global)) == 0

    @given(edge_lists(), st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_partition_tables_follow_the_assignment(self, data, k, draw):
        """Each partition's tables are the one id map: owned ids, halo ids and owners."""
        src, dst, n = data
        g = CSRGraph.from_edges(src, dst, num_nodes=n)
        parts = np.array(draw.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        result = PartitionResult(parts=parts, num_parts=k)
        for p in build_partitions(g, result):
            np.testing.assert_array_equal(p.owned_global, result.partition_nodes(p.part_id))
            assert np.all(np.diff(p.owned_global) > 0) and np.all(np.diff(p.halo_global) > 0)
            np.testing.assert_array_equal(p.halo_owner, result.parts[p.halo_global])
            np.testing.assert_array_equal(
                p.contains(np.arange(n)), np.isin(np.arange(n), p.local_to_global)
            )
            if p.num_halo:
                np.testing.assert_array_equal(p.halo_owners_of(p.halo_global), p.halo_owner)
