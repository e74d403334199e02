"""Tests for per-partition local graphs with halo nodes."""

import numpy as np
import pytest

from repro.graph.halo import build_partitions
from repro.graph.partition import metis_partition, random_partition


class TestBuildPartitions:
    def test_every_node_owned_exactly_once(self, small_dataset, small_partitions):
        owned = np.concatenate([p.owned_global for p in small_partitions])
        assert len(owned) == small_dataset.num_nodes
        assert len(np.unique(owned)) == small_dataset.num_nodes

    def test_halo_nodes_are_remote(self, small_partitions):
        for p in small_partitions:
            assert len(np.intersect1d(p.halo_global, p.owned_global)) == 0

    def test_halo_owner_is_not_self(self, small_partitions):
        for p in small_partitions:
            assert np.all(p.halo_owner != p.part_id)

    def test_local_graph_size(self, small_partitions):
        for p in small_partitions:
            assert p.local_graph.num_nodes == p.num_owned + p.num_halo
            assert p.num_local == p.local_graph.num_nodes

    def test_halo_nodes_have_no_out_edges(self, small_partitions):
        """Halo nodes' neighborhoods live on the owning partition."""
        for p in small_partitions:
            halo_local = np.arange(p.num_owned, p.num_local)
            degs = p.local_graph.out_degree(halo_local)
            assert np.all(degs == 0)

    def test_local_edges_match_global_graph(self, small_dataset, small_partitions):
        graph = small_dataset.graph
        for p in small_partitions:
            src, dst = p.local_graph.edges()
            gsrc = p.local_to_global[src]
            gdst = p.local_to_global[dst]
            for u, v in list(zip(gsrc, gdst))[:200]:
                assert graph.has_edge(int(u), int(v))

    def test_owned_edge_count_preserved(self, small_dataset, small_partitions):
        """Every edge whose source is owned appears in exactly one local graph."""
        total_local_edges = sum(p.local_graph.num_edges for p in small_partitions)
        assert total_local_edges == small_dataset.graph.num_edges

    def test_global_degrees_match(self, small_dataset, small_partitions):
        degs = small_dataset.graph.out_degree()
        for p in small_partitions:
            np.testing.assert_array_equal(p.global_degrees, degs[p.local_to_global])


class TestGraphPartitionHelpers:
    def test_is_halo_local_id(self, small_partitions):
        p = small_partitions[0]
        assert not p.is_halo_local_id(np.array([0])).item()
        if p.num_halo:
            assert p.is_halo_local_id(np.array([p.num_owned])).item()

    def test_local_global_roundtrip(self, small_partitions):
        p = small_partitions[0]
        local = np.arange(min(50, p.num_local), dtype=np.int64)
        global_ids = p.global_ids(local)
        back = p.local_ids(global_ids)
        np.testing.assert_array_equal(back, local)

    def test_local_ids_raises_for_foreign_node(self, small_dataset, small_partitions):
        p = small_partitions[0]
        all_local = set(p.local_to_global.tolist())
        foreign = next(i for i in range(small_dataset.num_nodes) if i not in all_local)
        with pytest.raises(KeyError):
            p.local_ids(np.array([foreign]))

    def test_contains(self, small_dataset, small_partitions):
        p = small_partitions[0]
        assert p.contains(p.owned_global[:3]).all()
        all_local = set(p.local_to_global.tolist())
        foreign = [i for i in range(small_dataset.num_nodes) if i not in all_local][:3]
        assert not p.contains(np.array(foreign)).any()

    def test_halo_degrees_length(self, small_partitions):
        p = small_partitions[0]
        assert len(p.halo_degrees()) == p.num_halo


class TestHaloStatistics:
    def test_metis_has_fewer_halos_than_random(self, small_dataset):
        graph = small_dataset.graph
        metis_parts = build_partitions(graph, metis_partition(graph, 2, seed=0))
        random_parts = build_partitions(graph, random_partition(graph, 2, seed=0))
        assert (
            np.mean([p.num_halo for p in metis_parts])
            <= np.mean([p.num_halo for p in random_parts])
        )
