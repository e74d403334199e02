"""Tests for per-partition local graphs with halo nodes."""

import numpy as np
import pytest

from repro.graph.halo import GraphPartition, build_partitions
from repro.graph.partition import PartitionResult, metis_partition, random_partition
from graph_checks import has_edge


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

    def test_halo_nodes_have_no_out_edges(self, small_partitions):
        """Halo nodes' neighborhoods live on the owning partition."""
        for p in small_partitions:
            halo_local = np.arange(p.num_owned, p.local_graph.num_nodes)
            degs = p.local_graph.out_degree(halo_local)
            assert np.all(degs == 0)

    def test_local_edges_match_global_graph(self, small_dataset, small_partitions):
        graph = small_dataset.graph
        for p in small_partitions:
            src, dst = p.local_graph.edges()
            gsrc = p.local_to_global[src]
            gdst = p.local_to_global[dst]
            for u, v in list(zip(gsrc, gdst))[:200]:
                assert has_edge(graph, int(u), int(v))

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

    def test_local_ids_are_owned_then_halo(self, small_partitions):
        for p in small_partitions:
            np.testing.assert_array_equal(
                p.local_to_global, np.concatenate([p.owned_global, p.halo_global])
            )

    def test_halo_owners_of_rejects_a_foreign_node(self, small_dataset, small_partitions):
        p = small_partitions[0]
        all_local = set(p.local_to_global.tolist())
        foreign = next(i for i in range(small_dataset.num_nodes) if i not in all_local)
        with pytest.raises(KeyError, match=f"nodes \\[{foreign}\\] are not halo neighbors"):
            p.halo_owners_of(np.array([foreign]))
        with pytest.raises(KeyError, match="are not halo neighbors"):
            p.halo_owners_of(p.owned_global[:1])

    def test_tables_must_be_strictly_ascending(self, small_partitions):
        p = small_partitions[0]
        fields = dict(
            part_id=0, halo_owner=[1, 1], local_graph=p.local_graph,
            local_to_global=[0, 7, 3], global_degrees=[1, 1, 1],
        )
        with pytest.raises(ValueError, match="halo_global must be strictly ascending"):
            GraphPartition(owned_global=[0], halo_global=[7, 3], **fields)
        with pytest.raises(ValueError, match="owned_global must be strictly ascending"):
            GraphPartition(owned_global=[0, 0], halo_global=[3, 7], **fields)

    def test_contains(self, small_dataset, small_partitions):
        p = small_partitions[0]
        assert p.contains(p.owned_global[:3]).all()
        all_local = set(p.local_to_global.tolist())
        foreign = [i for i in range(small_dataset.num_nodes) if i not in all_local][:3]
        assert not p.contains(np.array(foreign)).any()

    def test_halo_degrees_length(self, small_partitions):
        p = small_partitions[0]
        assert len(p.halo_degrees()) == p.num_halo


@pytest.fixture()
def tiny_parts(tiny_graph):
    """``tiny_graph`` cut by hand into three partitions: {0,2,6}, {1,3,7}, {4,5}."""
    result = PartitionResult(np.array([0, 1, 0, 1, 2, 2, 0, 1]), 3, method="manual")
    return build_partitions(tiny_graph, result)


class TestHandBuiltPartitions:
    """Every owner and membership answer, checked against a cut small enough to draw."""

    def test_owned_tables_follow_the_assignment(self, tiny_parts):
        expected = [[0, 2, 6], [1, 3, 7], [4, 5]]
        for p, owned in zip(tiny_parts, expected):
            np.testing.assert_array_equal(p.owned_global, owned)
            assert p.num_owned == len(owned)

    def test_halo_tables_and_owners(self, tiny_parts):
        expected = [
            ([1, 3, 5, 7], [1, 1, 2, 1]),
            ([0, 2, 4, 5, 6], [0, 0, 2, 2, 0]),
            ([3, 6], [1, 0]),
        ]
        for p, (halo, owners) in zip(tiny_parts, expected):
            np.testing.assert_array_equal(p.halo_global, halo)
            np.testing.assert_array_equal(p.halo_owner, owners)

    def test_halo_owners_of_keeps_query_order(self, tiny_parts):
        owners = tiny_parts[0].halo_owners_of(np.array([7, 5, 1, 7]))
        np.testing.assert_array_equal(owners, [1, 2, 1, 1])

    def test_halo_owners_of_empty_query(self, tiny_parts):
        owners = tiny_parts[0].halo_owners_of(np.zeros(0, dtype=np.int64))
        assert owners.shape == (0,)
        assert owners.dtype == np.int64

    def test_halo_owners_of_rejects_a_2d_query(self, tiny_parts):
        with pytest.raises(ValueError, match="global_ids must be 1-D"):
            tiny_parts[0].halo_owners_of(np.array([[1, 3]]))

    def test_contains_owned_and_halo_only(self, tiny_parts):
        mask = tiny_parts[2].contains(np.array([4, 5, 3, 6, 0, 1, 2, 7]))
        np.testing.assert_array_equal(mask, [True] * 4 + [False] * 4)

    def test_halo_degree_of_is_zero_off_the_halo(self, tiny_parts):
        degrees = tiny_parts[2].halo_degree_of(np.array([3, 6, 4, 0]))
        np.testing.assert_array_equal(degrees, [4, 3, 0, 0])

    def test_halo_distance_of(self, tiny_parts):
        distances = tiny_parts[2].halo_distance_of(np.array([3, 6, 4, 0]))
        np.testing.assert_array_equal(distances, [1, 1, 2, 2])

    def test_is_halo_local_id_marks_the_tail(self, tiny_parts):
        mask = tiny_parts[0].is_halo_local_id(np.arange(7))
        np.testing.assert_array_equal(mask, [False] * 3 + [True] * 4)

    def test_local_graph_keeps_the_owned_rows(self, tiny_graph, tiny_parts):
        for p in tiny_parts:
            src, dst = p.local_graph.edges()
            local = set(zip(p.local_to_global[src].tolist(), p.local_to_global[dst].tolist()))
            gsrc, gdst = tiny_graph.edges()
            keep = np.isin(gsrc, p.owned_global)
            assert local == set(zip(gsrc[keep].tolist(), gdst[keep].tolist()))

    def test_single_partition_has_no_halo(self, tiny_graph):
        (p,) = build_partitions(tiny_graph, PartitionResult(np.zeros(8, dtype=np.int64), 1))
        assert p.num_halo == 0
        assert p.halo_owner.dtype == np.int64
        assert p.contains(np.arange(8)).all()
        assert p.halo_owners_of(np.zeros(0, dtype=np.int64)).shape == (0,)
        with pytest.raises(KeyError, match="are not halo neighbors of partition 0"):
            p.halo_owners_of(np.array([0]))

    def test_empty_partition_knows_no_id(self, tiny_graph):
        parts = build_partitions(tiny_graph, PartitionResult(np.zeros(8, dtype=np.int64), 2))
        empty = parts[1]
        assert empty.num_owned == 0 and empty.num_halo == 0
        assert not empty.contains(np.arange(8)).any()
        np.testing.assert_array_equal(empty.halo_degree_of(np.array([0, 1])), [0, 0])
        with pytest.raises(KeyError, match="are not halo neighbors of partition 1"):
            empty.halo_owners_of(np.array([0]))


class TestHaloStatistics:
    def test_metis_has_fewer_halos_than_random(self, small_dataset):
        graph = small_dataset.graph
        metis_parts = build_partitions(graph, metis_partition(graph, 2, seed=0))
        random_parts = build_partitions(graph, random_partition(graph, 2, seed=0))
        assert (
            np.mean([p.num_halo for p in metis_parts])
            <= np.mean([p.num_halo for p in random_parts])
        )
