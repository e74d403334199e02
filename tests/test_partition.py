"""Tests for graph partitioning (METIS-like, random, hash)."""

import numpy as np
import pytest

from repro.graph.partition import (
    PartitionResult,
    balance,
    edge_cut,
    edge_cut_fraction,
    hash_partition,
    metis_partition,
    partition_graph,
    random_partition,
)
from graph_checks import part_sizes


class TestPartitionResult:
    def test_partition_nodes(self):
        result = PartitionResult(parts=np.array([0, 1, 0]), num_parts=2)
        np.testing.assert_array_equal(result.partition_nodes(0), [0, 2])

    def test_partition_nodes_cover_every_node_once(self, small_community_graph):
        graph, _ = small_community_graph
        result = metis_partition(graph, 4, seed=0)
        owned = np.concatenate([result.partition_nodes(p) for p in range(4)])
        np.testing.assert_array_equal(np.sort(owned), np.arange(graph.num_nodes))
        for p in range(4):
            assert np.all(result.parts[result.partition_nodes(p)] == p)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            PartitionResult(parts=np.array([0, 3]), num_parts=2)


class TestMetrics:
    def test_edge_cut_zero_for_single_partition(self, tiny_graph):
        parts = np.zeros(tiny_graph.num_nodes, dtype=np.int64)
        assert edge_cut(tiny_graph, parts) == 0

    def test_edge_cut_fraction_bounds(self, small_community_graph):
        graph, _ = small_community_graph
        parts = random_partition(graph, 4, seed=0).parts
        frac = edge_cut_fraction(graph, parts)
        assert 0.0 <= frac <= 1.0

    def test_balance_perfect(self):
        parts = np.array([0, 0, 1, 1])
        assert balance(parts, 2) == pytest.approx(1.0)

    def test_balance_imbalanced(self):
        parts = np.array([0, 0, 0, 1])
        assert balance(parts, 2) == pytest.approx(1.5)


class TestBaselinePartitioners:
    def test_random_partition_balanced(self, small_community_graph):
        graph, _ = small_community_graph
        result = random_partition(graph, 4, seed=0)
        sizes = part_sizes(result)
        assert sizes.max() - sizes.min() <= 1

    def test_hash_partition_deterministic(self, small_community_graph):
        graph, _ = small_community_graph
        a = hash_partition(graph, 4, seed=1)
        b = hash_partition(graph, 4, seed=1)
        np.testing.assert_array_equal(a.parts, b.parts)

    def test_hash_partition_covers_all_parts(self, small_community_graph):
        graph, _ = small_community_graph
        result = hash_partition(graph, 4, seed=0)
        assert set(np.unique(result.parts)) == {0, 1, 2, 3}

    def test_stats_populated(self, small_community_graph):
        graph, _ = small_community_graph
        result = random_partition(graph, 2, seed=0)
        assert "edge_cut_fraction" in result.stats


class TestMetisPartition:
    def test_assigns_every_node(self, small_community_graph):
        graph, _ = small_community_graph
        result = metis_partition(graph, 4, seed=0)
        assert len(result.parts) == graph.num_nodes
        assert set(np.unique(result.parts)) <= {0, 1, 2, 3}

    def test_all_parts_non_empty(self, small_community_graph):
        graph, _ = small_community_graph
        result = metis_partition(graph, 4, seed=0)
        assert np.all(part_sizes(result) > 0)

    def test_balance_bounded(self, small_community_graph):
        graph, _ = small_community_graph
        result = metis_partition(graph, 4, seed=0)
        assert balance(result.parts, 4) <= 1.6

    def test_beats_random_on_edge_cut(self, small_community_graph):
        """The multilevel partitioner must exploit community structure."""
        graph, _ = small_community_graph
        metis_cut = edge_cut_fraction(graph, metis_partition(graph, 4, seed=0).parts)
        random_cut = edge_cut_fraction(graph, random_partition(graph, 4, seed=0).parts)
        assert metis_cut < random_cut

    def test_single_partition(self, small_community_graph):
        graph, _ = small_community_graph
        result = metis_partition(graph, 1, seed=0)
        assert np.all(result.parts == 0)

    def test_too_many_partitions_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            metis_partition(tiny_graph, tiny_graph.num_nodes + 1)

    def test_deterministic_given_seed(self, small_community_graph):
        graph, _ = small_community_graph
        a = metis_partition(graph, 2, seed=5)
        b = metis_partition(graph, 2, seed=5)
        np.testing.assert_array_equal(a.parts, b.parts)


class TestDispatch:
    @pytest.mark.parametrize("method", ["metis", "random", "hash"])
    def test_partition_graph_dispatch(self, small_community_graph, method):
        graph, _ = small_community_graph
        result = partition_graph(graph, 2, method=method, seed=0)
        assert result.method == method
        assert result.num_parts == 2

    def test_unknown_method(self, tiny_graph):
        with pytest.raises(ValueError):
            partition_graph(tiny_graph, 2, method="bogus")
