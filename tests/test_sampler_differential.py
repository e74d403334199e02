"""Differential tests pinning the vectorized sampler to its loop twin.

``"loop"`` and ``"vectorized"`` implement the same random-key fan-out draw;
because NumPy generators consume the stream sequentially, the vectorized
sampler's single batched ``rng.random`` call must be bit-equal to the loop's
concatenated per-node draws — identical blocks, edge indices, *and* RNG-stream
consumption.  ``"legacy"`` (the default) keeps the original ``Generator.choice``
stream so the golden fixtures stay pinned; these tests also cover the
repeated-seed regression and the duplicate-dst guard.
"""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.sampling.dataloader import DistDataLoader
from repro.sampling.neighbor_sampler import (
    SAMPLERS,
    LoopNeighborSampler,
    NeighborSampler,
    VectorizedNeighborSampler,
    build_sampler,
)

BLOCK_FIELDS = ("src_nodes", "dst_nodes", "edge_src", "edge_dst", "src_global", "dst_global")

FANOUT_GRID = [[1], [3], [-1], [2, 3], [10, 25], [-1, 4]]


def assert_minibatches_equal(a, b):
    np.testing.assert_array_equal(a.seeds_global, b.seeds_global)
    np.testing.assert_array_equal(a.input_local, b.input_local)
    np.testing.assert_array_equal(a.input_global, b.input_global)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        for field in BLOCK_FIELDS:
            np.testing.assert_array_equal(getattr(x, field), getattr(y, field), err_msg=field)


class TestSamplerRegistry:
    def test_names_and_aliases(self):
        assert set(SAMPLERS.names()) == {"legacy", "loop", "vectorized"}
        assert SAMPLERS.resolve("choice") == "legacy"
        assert SAMPLERS.resolve("reference") == "loop"
        assert SAMPLERS.resolve("fast") == "vectorized"

    def test_build_returns_right_class(self, tiny_graph):
        assert type(build_sampler("legacy", tiny_graph, [2], seed=0)) is NeighborSampler
        assert type(build_sampler("loop", tiny_graph, [2], seed=0)) is LoopNeighborSampler
        assert type(build_sampler("vectorized", tiny_graph, [2], seed=0)) is VectorizedNeighborSampler

    def test_unknown_name_lists_valid_choices(self, tiny_graph):
        with pytest.raises(ValueError, match="legacy.*loop.*vectorized"):
            build_sampler("turbo", tiny_graph, [2], seed=0)

    def test_dataloader_defaults_to_vectorized(self, small_partitions):
        p = small_partitions[0]
        loader = DistDataLoader(p, np.arange(min(8, p.num_owned)), fanouts=(3,), batch_size=4, seed=0)
        assert loader.sampler_name == "vectorized"
        assert type(loader.sampler) is VectorizedNeighborSampler


class TestLoopVectorizedDifferential:
    @pytest.mark.parametrize("fanouts", FANOUT_GRID, ids=str)
    def test_identical_blocks_and_rng_consumption(self, small_dataset, fanouts):
        graph = small_dataset.graph
        loop = build_sampler("loop", graph, fanouts, seed=123)
        fast = build_sampler("vectorized", graph, fanouts, seed=123)
        seed_rng = np.random.default_rng(5)
        for step in range(4):
            seeds = np.unique(seed_rng.integers(0, graph.num_nodes, size=40))
            a = loop.sample(seeds, step=step, labels=small_dataset.labels)
            b = fast.sample(seeds, step=step, labels=small_dataset.labels)
            assert_minibatches_equal(a, b)
            # RNG-stream consumption must match after every minibatch, not
            # just at the end — otherwise a compensating error could hide.
            assert loop.rng.bit_generator.state == fast.rng.bit_generator.state
        assert loop.rng.random() == fast.rng.random()

    @pytest.mark.parametrize("fanouts", [[2], [-1], [3, 5]], ids=str)
    def test_identical_on_partition_with_empty_neighborhoods(self, small_partitions, fanouts):
        """Halo nodes have no outgoing local edges — the empty-neighborhood path."""
        p = small_partitions[0]
        graph = p.local_graph
        assert p.num_halo > 0  # the fixture must actually exercise halo truncation
        loop = build_sampler("loop", graph, fanouts, seed=31)
        fast = build_sampler("vectorized", graph, fanouts, seed=31)
        seeds = np.arange(min(25, p.num_owned))
        for step in range(3):
            a = loop.sample(seeds, local_to_global=p.local_to_global, step=step)
            b = fast.sample(seeds, local_to_global=p.local_to_global, step=step)
            assert_minibatches_equal(a, b)
        assert loop.rng.bit_generator.state == fast.rng.bit_generator.state

    def test_isolated_seed_consumes_no_rng(self):
        graph = CSRGraph.empty(6)
        for name in ("legacy", "loop", "vectorized"):
            sampler = build_sampler(name, graph, [4], seed=9)
            before = sampler.rng.bit_generator.state
            mb = sampler.sample(np.array([0, 3]))
            assert mb.blocks[0].num_edges == 0
            np.testing.assert_array_equal(mb.blocks[0].src_nodes, mb.blocks[0].dst_nodes)
            assert sampler.rng.bit_generator.state == before

    def test_take_all_bucket_consumes_no_rng(self, tiny_graph):
        """fanout=-1 never draws, so all three samplers agree bit-for-bit."""
        batches = []
        for name in ("legacy", "loop", "vectorized"):
            sampler = build_sampler(name, tiny_graph, [-1, -1], seed=77)
            before = sampler.rng.bit_generator.state
            batches.append(sampler.sample(np.array([0, 1, 2])))
            assert sampler.rng.bit_generator.state == before
        assert_minibatches_equal(batches[0], batches[1])
        assert_minibatches_equal(batches[1], batches[2])


class TestVectorizedInvariants:
    """The vectorized sampler honors every structural invariant of the loop."""

    def test_fanout_respected(self, small_dataset):
        sampler = build_sampler("vectorized", small_dataset.graph, [3], seed=0)
        mb = sampler.sample(np.arange(20))
        assert np.all(mb.blocks[0].in_degrees() <= 3)

    def test_sampled_edges_exist_and_no_replacement(self, small_dataset):
        graph = small_dataset.graph
        sampler = build_sampler("vectorized", graph, [5], seed=1)
        mb = sampler.sample(np.arange(15))
        block = mb.blocks[0]
        for d in range(block.num_dst):
            node = int(block.dst_nodes[d])
            chosen = block.src_nodes[block.edge_src[block.edge_dst == d]]
            neigh = graph.neighbors(node)
            assert np.all(np.isin(chosen, neigh))
            assert len(np.unique(chosen)) == len(chosen)  # without replacement

    def test_dst_prefix_of_src(self, small_dataset):
        sampler = build_sampler("vectorized", small_dataset.graph, [4, 4], seed=3)
        mb = sampler.sample(np.arange(10))
        for block in mb.blocks:
            np.testing.assert_array_equal(block.src_nodes[: block.num_dst], block.dst_nodes)


class TestDstGroupedEdgeContract:
    """Every registered sampler emits edges grouped by ascending ``edge_dst``.

    ``Block`` would stable-sort a shuffled edge list once at construction;
    the contract is that no shipped sampler makes it pay for that, and that
    the offsets it derives cover exactly the sampled edges.
    """

    @pytest.mark.parametrize("fanouts", [[3], [10, 25], [-1, 4]], ids=str)
    @pytest.mark.parametrize("name", sorted(SAMPLERS.names()))
    def test_edges_leave_the_sampler_in_csr_order(self, small_partitions, name, fanouts):
        graph = small_partitions[0].local_graph  # halo rows: empty neighbourhoods
        sampler = build_sampler(name, graph, fanouts, seed=4)
        frontier = np.unique(np.random.default_rng(0).integers(0, graph.num_nodes, 40))
        # The raw layer output, before Block has had a chance to reorder it.
        _, edge_src, edge_dst = sampler._sample_one_layer(frontier, fanouts[0])
        assert len(edge_dst) > 0 and np.all(np.diff(edge_dst) >= 0)

        for block in sampler.sample(frontier).blocks:
            assert np.all(np.diff(block.edge_dst) >= 0)
            assert block.dst_indptr.shape == (block.num_dst + 1,)
            assert block.dst_indptr[0] == 0 and block.dst_indptr[-1] == block.num_edges
            np.testing.assert_array_equal(
                np.diff(block.dst_indptr), np.bincount(block.edge_dst, minlength=block.num_dst)
            )


class TestRepeatedSeeds:
    """Regression for the duplicate-dst edge-mapping hazard (satellite fix).

    ``sample()`` deduplicates seeds at entry, so a batch with repeated seeds
    must be indistinguishable from the deduplicated batch; passing a frontier
    with duplicates directly to ``_sample_one_layer`` now raises instead of
    silently attributing every edge to one arbitrary occurrence.
    """

    @pytest.mark.parametrize("name", ["legacy", "loop", "vectorized"])
    def test_repeated_seeds_match_unique_seeds(self, small_dataset, name):
        graph = small_dataset.graph
        repeated = np.array([7, 3, 7, 7, 12, 3, 0], dtype=np.int64)
        a = build_sampler(name, graph, [3, 4], seed=2).sample(
            repeated, labels=small_dataset.labels
        )
        b = build_sampler(name, graph, [3, 4], seed=2).sample(
            np.unique(repeated), labels=small_dataset.labels
        )
        assert_minibatches_equal(a, b)
        # Every unique seed keeps its own sampled edges — none are dropped.
        np.testing.assert_array_equal(np.sort(a.seeds_global), np.unique(repeated))
        last = a.blocks[-1]
        sampled_dst_rows = np.unique(last.edge_dst)
        has_neighbors = np.array(
            [len(graph.neighbors(int(n))) > 0 for n in last.dst_nodes]
        )
        np.testing.assert_array_equal(sampled_dst_rows, np.nonzero(has_neighbors)[0])

    @pytest.mark.parametrize("name", ["legacy", "loop", "vectorized"])
    def test_duplicate_dst_frontier_raises(self, small_dataset, name):
        sampler = build_sampler(name, small_dataset.graph, [2], seed=0)
        with pytest.raises(ValueError, match="duplicate"):
            sampler._sample_one_layer(np.array([1, 4, 1], dtype=np.int64), 2)
