"""Differential tests pinning the one production sampler to its per-node oracle.

:class:`~repro.sampling.neighbor_sampler.NeighborSampler` draws every capped
node of a layer with one batched ``rng.random`` call; because NumPy generators
consume the stream sequentially that must be bit-equal to the concatenated
per-node draws of ``tests/sampler_oracle.py`` — identical blocks, edge
indices, CSR offsets *and* RNG-stream position.  The oracle builds its blocks
through the public, validating constructors, so the same comparison checks
the sampler's trusted ``Block`` constructor field for field.  These tests also
cover the registry's misuse messages, the repeated-seed regression and the
duplicate-dst guard.
"""

import numpy as np
import pytest

from repro.distributed.cluster import ClusterConfig
from repro.graph.csr import CSRGraph
from repro.sampling.block import Block
from repro.sampling.dataloader import DistDataLoader
from repro.sampling.neighbor_sampler import (
    SAMPLERS,
    NeighborSampler,
    build_sampler,
    resolve_sampler,
)
from repro.scenarios import SCENARIOS
from sampler_oracle import LoopNeighborSampler

BLOCK_FIELDS = (
    "src_nodes", "dst_nodes", "edge_src", "edge_dst", "src_global", "dst_global", "dst_indptr",
)
MINIBATCH_FIELDS = ("seeds_global", "input_local", "input_global", "labels")

FANOUT_GRID = [[1], [3], [-1], [2, 3], [10, 25], [-1, 4]]


def assert_same_arrays(a, b, fields):
    for field in fields:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype == np.int64, field
        np.testing.assert_array_equal(x, y, err_msg=field)


def assert_minibatches_equal(a, b):
    assert_same_arrays(a, b, MINIBATCH_FIELDS)
    assert a.step == b.step and len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert_same_arrays(x, y, BLOCK_FIELDS)


def assert_same_draws(graph, fanouts, batches, seed, **sample_kwargs):
    """Sample *batches* with both; everything and the stream position must match."""
    oracle = LoopNeighborSampler(graph, fanouts, seed=seed)
    fast = NeighborSampler(graph, fanouts, seed=seed)
    for step, seeds in enumerate(batches):
        assert_minibatches_equal(
            oracle.sample(seeds, step=step, **sample_kwargs),
            fast.sample(seeds, step=step, **sample_kwargs),
        )
        # After every minibatch, not just at the end — otherwise a
        # compensating error could hide.
        assert oracle.rng.bit_generator.state == fast.rng.bit_generator.state
    assert oracle.rng.random() == fast.rng.random()


def random_graph(rng, num_nodes, num_edges, isolated=0):
    """A symmetric random graph whose last *isolated* nodes have degree zero."""
    connected = num_nodes - isolated
    src = rng.integers(0, connected, size=num_edges)
    dst = rng.integers(0, connected, size=num_edges)
    return CSRGraph.from_edges(src, dst, num_nodes=num_nodes, symmetrize=True,
                               remove_self_loops=True)


class TestSamplerRegistry:
    def test_one_sampler_one_alias(self, tiny_graph):
        assert SAMPLERS.names() == ["vectorized"]
        assert SAMPLERS.resolve("fast") == "vectorized"
        assert type(build_sampler("vectorized", tiny_graph, [2], seed=0)) is NeighborSampler

    def test_unknown_name_lists_valid_choices(self, tiny_graph):
        with pytest.raises(ValueError, match="unknown neighbor sampler 'turbo'.*vectorized"):
            build_sampler("turbo", tiny_graph, [2], seed=0)

    @pytest.mark.parametrize("key", ["legacy", "choice", "loop", "reference", "Legacy "])
    def test_removed_keys_say_so_everywhere(self, tiny_graph, small_partitions, key):
        message = "was removed; 'vectorized' is the only sampler"
        p = small_partitions[0]
        for misuse in (
            lambda: resolve_sampler(key),
            lambda: build_sampler(key, tiny_graph, [2], seed=0),
            lambda: ClusterConfig(num_machines=2, trainers_per_machine=1, sampler=key),
            lambda: SCENARIOS.build("uniform").with_overrides(sampler=key),
            lambda: DistDataLoader(p, np.arange(4), fanouts=(3,), batch_size=4, sampler=key),
        ):
            with pytest.raises(ValueError, match=message):
                misuse()

    def test_dataloader_defaults_to_the_one_sampler(self, small_partitions):
        p = small_partitions[0]
        loader = DistDataLoader(p, np.arange(min(8, p.num_owned)), fanouts=(3,), batch_size=4, seed=0)
        assert type(loader.sampler) is NeighborSampler


class TestOracleDifferential:
    @pytest.mark.parametrize("fanouts", FANOUT_GRID, ids=str)
    def test_identical_blocks_and_rng_consumption(self, small_dataset, fanouts):
        graph = small_dataset.graph
        seed_rng = np.random.default_rng(5)
        batches = [np.unique(seed_rng.integers(0, graph.num_nodes, size=40)) for _ in range(4)]
        assert_same_draws(graph, fanouts, batches, seed=123, labels=small_dataset.labels)

    @pytest.mark.parametrize("fanouts", [[2], [-1], [3, 5]], ids=str)
    def test_identical_on_partition_with_empty_neighborhoods(self, small_partitions, fanouts):
        """Halo nodes have no outgoing local edges — the empty-neighborhood path."""
        p = small_partitions[0]
        assert p.num_halo > 0  # the fixture must actually exercise halo truncation
        seeds = np.arange(min(25, p.num_owned))
        assert_same_draws(p.local_graph, fanouts, [seeds] * 3, seed=31,
                          local_to_global=p.local_to_global)

    @pytest.mark.parametrize("case", range(12))
    def test_random_graphs(self, case):
        """Random sizes, densities and fanouts, with zero-degree nodes in the frontier."""
        rng = np.random.default_rng(1000 + case)
        num_nodes = int(rng.integers(5, 200))
        graph = random_graph(rng, num_nodes, int(rng.integers(num_nodes, 12 * num_nodes)),
                             isolated=int(rng.integers(1, 4)))
        fanouts = [int(f) for f in rng.choice([-1, 1, 2, 3, 7, 20], size=rng.integers(1, 4))]
        batches = [rng.integers(0, num_nodes, size=rng.integers(1, 30)) for _ in range(3)]
        batches.append(np.arange(num_nodes))  # every node, the isolated ones included
        assert_same_draws(graph, fanouts, batches, seed=case)

    @pytest.mark.parametrize("fanouts", [[1], [2, 2], [4, 1]], ids=str)
    def test_all_capped_frontier(self, fanouts):
        """A complete graph: every frontier node of every layer is over the cap."""
        n = 12
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        graph = CSRGraph.from_edges(src, dst, num_nodes=n)
        assert np.all(np.diff(graph.indptr) == n - 1)
        assert_same_draws(graph, fanouts, [np.arange(n), np.array([3, 8])], seed=6)

    @pytest.mark.parametrize("fanouts", [[5, 10], [-1, 3]], ids=str)
    def test_one_seed_frontier(self, small_partitions, fanouts):
        """One seed per call, the shape the serving engine samples."""
        p = small_partitions[0]
        batches = [np.array([s]) for s in range(0, min(40, p.num_owned), 3)]
        assert_same_draws(p.local_graph, fanouts, batches, seed=17,
                          local_to_global=p.local_to_global)

    def test_isolated_seed_consumes_no_rng(self):
        sampler = NeighborSampler(CSRGraph.empty(6), [4], seed=9)
        before = sampler.rng.bit_generator.state
        mb = sampler.sample(np.array([0, 3]))
        assert mb.blocks[0].num_edges == 0
        np.testing.assert_array_equal(mb.blocks[0].src_nodes, mb.blocks[0].dst_nodes)
        assert sampler.rng.bit_generator.state == before

    def test_take_all_bucket_consumes_no_rng(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, [-1, -1], seed=77)
        before = sampler.rng.bit_generator.state
        sampler.sample(np.array([0, 1, 2]))
        assert sampler.rng.bit_generator.state == before


class TestTrustedConstructors:
    """The sampler skips validation; what it builds must be what validation would accept."""

    @pytest.mark.parametrize("fanouts", [[3], [10, 25], [-1, 4]], ids=str)
    def test_trusted_equals_public_field_for_field(self, small_partitions, small_dataset, fanouts):
        p = small_partitions[0]
        sampler = NeighborSampler(p.local_graph, fanouts, seed=4)
        mb = sampler.sample(np.arange(min(30, p.num_owned)), local_to_global=p.local_to_global,
                            step=5, labels=small_dataset.labels)
        for block in mb.blocks:
            public = Block(block.src_nodes, block.dst_nodes, block.edge_src, block.edge_dst,
                           block.src_global, block.dst_global)
            assert_same_arrays(public, block, BLOCK_FIELDS)
            # Validation coerced and reordered nothing: the arrays passed through.
            assert public.edge_src is block.edge_src and public.src_global is block.src_global


class TestDstGroupedEdgeContract:
    """The sampler emits edges grouped by ascending ``edge_dst``, offsets included.

    ``Block`` would stable-sort a shuffled edge list once at construction;
    the sampler hands over CSR order and the offsets it already knows, and
    they cover exactly the sampled edges.
    """

    @pytest.mark.parametrize("fanouts", [[3], [10, 25], [-1, 4]], ids=str)
    def test_edges_leave_the_sampler_in_csr_order(self, small_partitions, fanouts):
        graph = small_partitions[0].local_graph  # halo rows: empty neighbourhoods
        sampler = NeighborSampler(graph, fanouts, seed=4)
        frontier = np.unique(np.random.default_rng(0).integers(0, graph.num_nodes, 40))
        _, edge_src, edge_dst, dst_indptr = sampler._sample_one_layer(frontier, fanouts[0])
        assert len(edge_dst) > 0 and np.all(np.diff(edge_dst) >= 0)
        np.testing.assert_array_equal(
            dst_indptr, np.searchsorted(edge_dst, np.arange(len(frontier) + 1))
        )

        for block in sampler.sample(frontier).blocks:
            assert np.all(np.diff(block.edge_dst) >= 0)
            assert block.dst_indptr.shape == (block.num_dst + 1,)
            assert block.dst_indptr[0] == 0 and block.dst_indptr[-1] == block.num_edges
            np.testing.assert_array_equal(
                np.diff(block.dst_indptr), np.bincount(block.edge_dst, minlength=block.num_dst)
            )


class TestRepeatedSeeds:
    """Regression for the duplicate-dst edge-mapping hazard.

    ``sample()`` deduplicates seeds at entry, so a batch with repeated seeds
    must be indistinguishable from the deduplicated batch; passing a frontier
    with duplicates directly to ``_sample_one_layer`` raises instead of
    silently attributing every edge to one arbitrary occurrence.
    """

    def test_repeated_seeds_match_unique_seeds(self, small_dataset):
        graph = small_dataset.graph
        repeated = np.array([7, 3, 7, 7, 12, 3, 0], dtype=np.int64)
        a = NeighborSampler(graph, [3, 4], seed=2).sample(repeated, labels=small_dataset.labels)
        b = NeighborSampler(graph, [3, 4], seed=2).sample(
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

    def test_duplicate_dst_frontier_raises(self, small_dataset):
        sampler = NeighborSampler(small_dataset.graph, [2], seed=0)
        with pytest.raises(ValueError, match="duplicate"):
            sampler._sample_one_layer(np.array([1, 4, 1], dtype=np.int64), 2)
        # The scratch array was restored: the sampler still works afterwards.
        assert sampler.sample(np.array([1, 4])).blocks[0].num_dst == 2
