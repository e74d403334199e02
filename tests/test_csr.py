"""Tests for the CSR graph container."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.partition import edge_cut, metis_partition


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0], num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_infer_num_nodes(self):
        g = CSRGraph.from_edges([0, 5], [1, 2])
        assert g.num_nodes == 6

    def test_symmetrize(self):
        g = CSRGraph.from_edges([0], [1], num_nodes=2, symmetrize=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_remove_self_loops(self):
        g = CSRGraph.from_edges([0, 1], [0, 1], num_nodes=2, remove_self_loops=True)
        assert g.num_edges == 0

    def test_deduplicate(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 1], num_nodes=2)
        assert g.num_edges == 1

    def test_no_deduplicate(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], num_nodes=2, deduplicate=False)
        assert g.num_edges == 2

    def test_empty(self):
        g = CSRGraph.empty(5)
        assert g.num_nodes == 5 and g.num_edges == 0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0, 1], [1], num_nodes=2)

    def test_invalid_indptr_raises(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([1]), num_nodes=1)

    def test_out_of_range_indices_raise(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]), num_nodes=1)

    @pytest.mark.parametrize(
        "src, dst, num_nodes, message",
        [
            # An endpoint >= num_nodes would alias another edge in the sort key.
            ([0, 5], [1, 1], 3, "src contains index 5 >= allowed maximum 3"),
            ([0, 1], [1, 7], 3, "dst contains index 7 >= allowed maximum 3"),
            # num_nodes ** 2 must fit the int64 key; it used to wrap silently.
            ([0], [0], 2**32, "num_nodes=4294967296 is too large for an int64 edge key"),
        ],
    )
    def test_from_edges_entry_checks_name_the_problem(self, src, dst, num_nodes, message):
        with pytest.raises(ValueError, match=message):
            CSRGraph.from_edges(src, dst, num_nodes=num_nodes, deduplicate=False)


class TestQueries:
    def test_out_degree(self, tiny_graph):
        degs = tiny_graph.out_degree()
        assert len(degs) == tiny_graph.num_nodes
        assert degs.sum() == tiny_graph.num_edges

    def test_out_degree_subset(self, tiny_graph):
        degs = tiny_graph.out_degree(np.array([0, 1]))
        assert len(degs) == 2

    def test_in_degree_symmetric_graph(self, tiny_graph):
        # The fixture is symmetrized, so in-degree equals out-degree.
        np.testing.assert_array_equal(tiny_graph.in_degree(), tiny_graph.out_degree())

    def test_neighbors_sorted(self, tiny_graph):
        for node in range(tiny_graph.num_nodes):
            neigh = tiny_graph.neighbors(node)
            assert np.all(np.diff(neigh) >= 0)

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.neighbors(100)

    def test_edges_roundtrip(self, tiny_graph):
        src, dst = tiny_graph.edges()
        rebuilt = CSRGraph.from_edges(src, dst, num_nodes=tiny_graph.num_nodes, deduplicate=False)
        np.testing.assert_array_equal(rebuilt.indptr, tiny_graph.indptr)
        np.testing.assert_array_equal(rebuilt.indices, tiny_graph.indices)

    def test_has_edge(self, tiny_graph):
        src, dst = tiny_graph.edges()
        assert tiny_graph.has_edge(int(src[0]), int(dst[0]))
        assert not tiny_graph.has_edge(0, 0)

    def test_is_symmetric(self, tiny_graph):
        assert tiny_graph.is_symmetric()
        directed = CSRGraph.from_edges([0], [1], num_nodes=2)
        assert not directed.is_symmetric()

    def test_nbytes_positive(self, tiny_graph):
        assert tiny_graph.nbytes() > 0


class TestTransforms:
    def test_reverse(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], num_nodes=3)
        r = g.reverse()
        assert r.has_edge(1, 0) and r.has_edge(2, 1)
        assert r.num_edges == g.num_edges

    def test_induced_subgraph(self, tiny_graph):
        nodes = np.array([0, 1, 2, 3])
        sub, mapping = tiny_graph.induced_subgraph(nodes)
        assert sub.num_nodes == 4
        np.testing.assert_array_equal(mapping, nodes)
        # Every subgraph edge must exist in the original graph.
        s, d = sub.edges()
        for u, v in zip(s, d):
            assert tiny_graph.has_edge(int(nodes[u]), int(nodes[v]))

    def test_induced_subgraph_rejects_duplicates(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.induced_subgraph(np.array([0, 0]))

    def test_networkx_oracle_edge_cut_and_components(self, small_community_graph):
        nx = pytest.importorskip("networkx")

        def digraph(g):
            out = nx.DiGraph()
            out.add_nodes_from(range(g.num_nodes))
            out.add_edges_from(zip(*(a.tolist() for a in g.edges())))
            return out

        graph, _ = small_community_graph
        parts = metis_partition(graph, 4, seed=0).parts
        nx_graph = digraph(graph)
        assert nx_graph.number_of_edges() == graph.num_edges
        leaving = [nx.edge_boundary(nx_graph, np.flatnonzero(parts == p).tolist())
                   for p in range(4)]
        assert edge_cut(graph, parts) == sum(len(list(edges)) for edges in leaving) > 0

        # Without the cut edges every part falls into its own component(s).
        src, dst = graph.edges()
        keep = parts[src] == parts[dst]
        uncut = CSRGraph.from_edges(src[keep], dst[keep], num_nodes=graph.num_nodes,
                                    deduplicate=False)
        labels = uncut.connected_components()
        components = list(nx.weakly_connected_components(digraph(uncut)))
        assert len(components) == len(np.unique(labels)) >= 4
        assert all(len(set(labels[list(nodes)])) == 1 for nodes in components)

    def test_connected_components_single(self, tiny_graph):
        labels = tiny_graph.connected_components()
        assert len(np.unique(labels)) == 1

    def test_connected_components_two(self):
        g = CSRGraph.from_edges([0, 2], [1, 3], num_nodes=4, symmetrize=True)
        labels = g.connected_components()
        assert len(np.unique(labels)) == 2
        assert labels[0] == labels[1] and labels[2] == labels[3]
