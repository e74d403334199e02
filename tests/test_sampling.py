"""Tests for blocks, the neighbor sampler, seeds, and the data loader."""

import numpy as np
import pytest

from repro.sampling.block import Block, MiniBatch
from repro.sampling.dataloader import DistDataLoader
from repro.sampling.neighbor_sampler import (
    NeighborSampler,
    sample_for_partition,
    split_local_halo,
)
from repro.sampling.seeds import SeedIterator, SeedPartitioner, minibatches_per_trainer


class TestBlock:
    def test_valid_block(self):
        block = Block(
            src_nodes=np.array([0, 1, 2]),
            dst_nodes=np.array([0]),
            edge_src=np.array([1, 2]),
            edge_dst=np.array([0, 0]),
            src_global=np.array([10, 11, 12]),
            dst_global=np.array([10]),
        )
        assert block.num_src == 3 and block.num_dst == 1 and block.num_edges == 2
        np.testing.assert_array_equal(block.in_degrees(), [2])

    @pytest.mark.parametrize("empty_side", ["src", "dst"])
    def test_edges_into_an_empty_node_set_raise(self, empty_side):
        # Regression: max(1, len(nodes)) used to admit index 0 into an empty
        # node set, and forward() then died with an IndexError.
        nodes = {"src": np.array([0]), "dst": np.array([0])}
        nodes[empty_side] = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match=f"edge_{empty_side} contains index 0"):
            Block(
                src_nodes=nodes["src"],
                dst_nodes=nodes["dst"],
                edge_src=np.array([0]),
                edge_dst=np.array([0]),
                src_global=nodes["src"],
                dst_global=nodes["dst"],
            )

    @pytest.mark.parametrize("field, garbage, match", [
        ("src_nodes", [0, -1, 2], "src_nodes contains negative"),
        ("dst_nodes", [-3], "dst_nodes contains negative"),
        ("src_global", [10, 11, -12], "src_global contains negative"),
        ("dst_global", [-10], "dst_global contains negative"),
        ("edge_src", [1, -2], "edge_src contains negative"),
        ("edge_src", [1, 3], "edge_src contains index 3"),
        ("edge_dst", [0, 1], "edge_dst contains index 1"),
        ("src_global", [10, 11], "src_global must align"),
        ("dst_global", [10, 11], "dst_global must align"),
        ("edge_dst", [0], "equal length"),
        ("src_nodes", [[0, 1, 2]], "must be 1-D"),
        ("edge_src", [0.5, 1.0], "integer array"),
    ])
    def test_public_constructor_rejects_garbage(self, field, garbage, match):
        """One bad field at a time in an otherwise valid block."""
        fields = dict(
            src_nodes=[0, 1, 2], dst_nodes=[0], edge_src=[1, 2], edge_dst=[0, 0],
            src_global=[10, 11, 12], dst_global=[10],
        )
        fields[field] = garbage
        with pytest.raises((ValueError, TypeError), match=match):
            Block(**{k: np.array(v) for k, v in fields.items()})

    @pytest.mark.parametrize("field, garbage, match", [
        ("seeds_global", [-1], "seeds_global contains negative"),
        ("input_local", [0, -1], "input_local contains negative"),
        ("input_global", [5], "must align"),
    ])
    def test_minibatch_constructor_rejects_garbage(self, field, garbage, match):
        fields = dict(seeds_global=[5], input_local=[0, 1], input_global=[5, 6])
        fields[field] = garbage
        with pytest.raises(ValueError, match=match):
            MiniBatch(blocks=[], **{k: np.array(v) for k, v in fields.items()})

    def test_empty_block_is_still_valid(self):
        none = np.zeros(0, dtype=np.int64)
        block = Block(none, none, none, none, none, none)
        assert block.num_edges == 0
        np.testing.assert_array_equal(block.dst_indptr, [0])

    def test_shuffled_edges_are_stable_sorted_by_dst(self):
        block = Block(
            src_nodes=np.arange(4),
            dst_nodes=np.arange(3),
            edge_src=np.array([3, 1, 2, 0, 1]),
            edge_dst=np.array([2, 0, 2, 0, 1]),
            src_global=np.arange(4),
            dst_global=np.arange(3),
        )
        np.testing.assert_array_equal(block.edge_dst, [0, 0, 1, 2, 2])
        np.testing.assert_array_equal(block.edge_src, [1, 0, 1, 3, 2])  # ties keep their order
        np.testing.assert_array_equal(block.dst_indptr, [0, 2, 3, 5])
        np.testing.assert_array_equal(block.in_degrees(), [2, 1, 2])


class TestNeighborSampler:
    def test_block_count_matches_fanouts(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, [2, 3], seed=0)
        mb = sampler.sample(np.array([0, 1]))
        assert len(mb.blocks) == 2

    def test_seeds_are_final_dst(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, [2, 2], seed=0)
        seeds = np.array([3, 1])
        mb = sampler.sample(seeds)
        np.testing.assert_array_equal(np.sort(mb.blocks[-1].dst_global), np.sort(np.unique(seeds)))

    def test_fanout_respected(self, small_dataset):
        graph = small_dataset.graph
        fanout = 3
        sampler = NeighborSampler(graph, [fanout], seed=0)
        mb = sampler.sample(np.arange(20))
        assert np.all(mb.blocks[0].in_degrees() <= fanout)

    def test_full_neighborhood_with_minus_one(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, [-1], seed=0)
        mb = sampler.sample(np.array([0]))
        assert mb.blocks[0].num_edges == tiny_graph.out_degree(np.array([0]))[0]

    def test_sampled_edges_exist_in_graph(self, small_dataset):
        graph = small_dataset.graph
        sampler = NeighborSampler(graph, [5, 5], seed=1)
        mb = sampler.sample(np.arange(10))
        for block in mb.blocks:
            src_g = block.src_global[block.edge_src]
            dst_g = block.dst_global[block.edge_dst]
            for u, v in list(zip(dst_g, src_g))[:100]:
                # Edges flow src->dst in message passing; structurally the graph
                # stores dst -> sampled neighbor (symmetric graph, either works).
                assert graph.has_edge(int(u), int(v)) or graph.has_edge(int(v), int(u))

    def test_input_nodes_cover_all_block_sources(self, small_dataset):
        sampler = NeighborSampler(small_dataset.graph, [4, 4], seed=2)
        mb = sampler.sample(np.arange(15))
        np.testing.assert_array_equal(mb.input_local, mb.blocks[0].src_nodes)
        assert mb.num_input_nodes == len(mb.blocks[0].src_nodes)

    def test_dst_prefix_of_src(self, small_dataset):
        """Every block's dst nodes must be the prefix of its src nodes (self-inclusion)."""
        sampler = NeighborSampler(small_dataset.graph, [4, 4], seed=3)
        mb = sampler.sample(np.arange(10))
        for block in mb.blocks:
            np.testing.assert_array_equal(block.src_nodes[: block.num_dst], block.dst_nodes)

    def test_invalid_fanout(self, tiny_graph):
        with pytest.raises(ValueError):
            NeighborSampler(tiny_graph, [0])
        with pytest.raises(ValueError):
            NeighborSampler(tiny_graph, [])

    def test_empty_seeds_raise(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, [2], seed=0)
        with pytest.raises(ValueError):
            sampler.sample(np.array([], dtype=np.int64))

    def test_labels_attached(self, small_dataset):
        sampler = NeighborSampler(small_dataset.graph, [3], seed=0)
        seeds = np.arange(12)
        mb = sampler.sample(seeds, labels=small_dataset.labels)
        np.testing.assert_array_equal(mb.labels, small_dataset.labels[mb.blocks[-1].dst_global])

    def test_sampling_is_stochastic(self, small_dataset):
        sampler = NeighborSampler(small_dataset.graph, [2, 2], seed=0)
        a = sampler.sample(np.arange(30))
        b = sampler.sample(np.arange(30))
        # Two draws with the same seeds rarely produce identical frontiers.
        assert a.num_input_nodes != b.num_input_nodes or not np.array_equal(
            a.input_global, b.input_global
        )


class TestPartitionSampling:
    def test_sample_for_partition_global_ids(self, small_partitions):
        p = small_partitions[0]
        sampler = NeighborSampler(p.local_graph, [3, 3], seed=0)
        seeds_local = np.arange(min(10, p.num_owned))
        mb = sample_for_partition(p, sampler, seeds_local)
        assert np.all(np.isin(mb.input_global, p.local_to_global))

    def test_split_local_halo_partitions_rows(self, small_partitions):
        p = small_partitions[0]
        sampler = NeighborSampler(p.local_graph, [5, 5], seed=1)
        mb = sample_for_partition(p, sampler, np.arange(min(20, p.num_owned)))
        local_ids, halo_ids, local_rows, halo_rows = split_local_halo(p, mb)
        assert len(local_rows) + len(halo_rows) == mb.num_input_nodes
        assert np.all(np.isin(local_ids, p.owned_global))
        if len(halo_ids):
            assert np.all(np.isin(halo_ids, p.halo_global))


class TestSeeds:
    def test_partitioner_splits_all_seeds(self):
        seeds = np.arange(100)
        part = SeedPartitioner(seeds, 4, seed=0)
        union = np.concatenate([part.trainer_seeds(i) for i in range(4)])
        np.testing.assert_array_equal(np.sort(union), seeds)

    def test_partitioner_balanced(self):
        part = SeedPartitioner(np.arange(103), 4, seed=0)
        sizes = [len(part.trainer_seeds(i)) for i in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_partitioner_invalid_rank(self):
        part = SeedPartitioner(np.arange(10), 2, seed=0)
        with pytest.raises(IndexError):
            part.trainer_seeds(5)

    def test_iterator_num_batches(self):
        it = SeedIterator(np.arange(100), batch_size=32, seed=0)
        assert it.num_batches == 4
        it_drop = SeedIterator(np.arange(100), batch_size=32, seed=0, drop_last=True)
        assert it_drop.num_batches == 3

    def test_iterator_yields_all_seeds(self):
        it = SeedIterator(np.arange(50), batch_size=16, seed=0)
        seen = np.concatenate(list(it.epoch()))
        np.testing.assert_array_equal(np.sort(seen), np.arange(50))

    def test_iterator_reshuffles_between_epochs(self):
        it = SeedIterator(np.arange(64), batch_size=64, seed=0)
        first = next(iter(it.epoch()))
        second = next(iter(it.epoch()))
        assert not np.array_equal(first, second)

    def test_empty_seed_iterator(self):
        it = SeedIterator(np.array([], dtype=np.int64), batch_size=8)
        assert it.num_batches == 0
        assert list(it.epoch()) == []

    def test_minibatches_per_trainer_formula(self):
        # 100k train nodes, 8 partitions x 4 trainers, batch 2000 -> ceil(3125/2000)=2.
        assert minibatches_per_trainer(100_000, 8, 4, 2000) == 2


class TestDataLoader:
    def test_epoch_yields_expected_batches(self, small_partitions, small_dataset):
        p = small_partitions[0]
        seeds = np.arange(min(60, p.num_owned))
        loader = DistDataLoader(p, seeds, fanouts=(3, 3), batch_size=16, labels=small_dataset.labels, seed=0)
        batches = list(loader.epoch())
        assert len(batches) == loader.num_batches_per_epoch
        assert all(isinstance(b, MiniBatch) for b in batches)

    def test_step_counter_increases(self, small_partitions):
        p = small_partitions[0]
        loader = DistDataLoader(p, np.arange(min(40, p.num_owned)), fanouts=(3,), batch_size=8, seed=0)
        list(loader.epoch())
        first_epoch_steps = loader.steps_taken
        list(loader.epoch())
        assert loader.steps_taken == 2 * first_epoch_steps
        loader.reset()
        assert loader.steps_taken == 0
