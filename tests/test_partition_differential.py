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

from partition_oracle import _Level as OracleLevel
from partition_oracle import contract as oracle_contract
from partition_oracle import from_edges_oracle, metis_partition_oracle
from partition_oracle import heavy_edge_matching as oracle_heavy_edge_matching
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.partition import (
    _contract,
    _GainTable,
    _heavy_edge_matching,
    _is_symmetric,
    _Level,
    metis_partition,
)
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


def weighted_level(edges, n, order):
    """The production and oracle ``_Level`` of ``(rank_u, rank_v, weight)`` edges.

    Nodes are named by the rank at which ``order`` (the matching walk's
    permutation) visits them, so a case can say who is visited first.
    """
    src = np.array([order[u] for u, _, _ in edges], dtype=np.int64)
    dst = np.array([order[v] for _, v, _ in edges], dtype=np.int64)
    weights = np.array([w for _, _, w in edges], dtype=np.int64)
    by_src = np.argsort(src, kind="stable")  # rows keep the listed order
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    arrays = dict(indptr=indptr, indices=dst[by_src], edge_weights=weights[by_src],
                  node_weights=np.ones(n, dtype=np.int64))
    return _Level(**arrays), OracleLevel(**arrays)


def symmetric_graph(n=300, seed=0):
    """A random symmetric multigraph with self-loops, rows sorted (the dataset shape)."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    again_src, again_dst = src[:20], dst[:20]  # multi-edges, both ways
    return (np.concatenate([src, dst, again_src, again_dst]),
            np.concatenate([dst, src, again_dst, again_src]))


def assert_matches_oracle(graph, k, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = metis_partition(graph, k, seed=rng, coarsen_until=16)
    parts, counts = metis_partition_oracle(graph.indptr, graph.indices, k, oracle_rng,
                                           coarsen_until=16)
    np.testing.assert_array_equal(result.parts, parts)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert [result.stats[key] for key in SHARED_COUNTS] == [counts[key] for key in SHARED_COUNTS]
    assert result.stats["levels"] > 2  # weighted levels were matched and contracted


class TestSymmetricLevels:
    """A symmetric level's CSR rows are its in-edges; anything else groups them by sort."""

    def test_dataset_analogs_are_symmetric_and_stay_so_when_contracted(self):
        graph = load_dataset("products", scale=0.3, seed=0).graph
        assert _is_symmetric(graph.indptr, graph.indices)
        level = _Level(graph.indptr, graph.indices, np.ones(graph.num_edges, dtype=np.int64),
                       np.ones(graph.num_nodes, dtype=np.int64), symmetric=True)
        for _ in range(2):
            level = _contract(level, _heavy_edge_matching(level, np.random.default_rng(3)))
            assert level.symmetric
            # Weights too: (u, v, w) and (v, u, w) pair up one to one.
            src = np.repeat(np.arange(len(level.node_weights)), np.diff(level.indptr))
            forward = np.lexsort((level.edge_weights, level.indices, src))
            backward = np.lexsort((level.edge_weights, src, level.indices))
            np.testing.assert_array_equal(src[forward], level.indices[backward])
            np.testing.assert_array_equal(level.edge_weights[forward],
                                          level.edge_weights[backward])

    def test_one_way_multi_edge_takes_the_argsort_path(self):
        src, dst = symmetric_graph()
        u, v = int(src[0]), int(dst[0])  # (u, v) is a multi-edge both ways already
        assert u != v
        both_ways = CSRGraph.from_edges(src, dst, num_nodes=300, deduplicate=False)
        one_way = CSRGraph.from_edges(np.append(src, u), np.append(dst, v), num_nodes=300,
                                      deduplicate=False)
        assert _is_symmetric(both_ways.indptr, both_ways.indices)
        assert not _is_symmetric(one_way.indptr, one_way.indices)
        for graph in (both_ways, one_way):
            assert_matches_oracle(graph, 3, seed=11)
        # The in-edge table must see u -> v three times, v -> u only twice.
        level = _Level(one_way.indptr, one_way.indices, np.ones(one_way.num_edges, np.int64),
                       np.ones(300, np.int64), symmetric=_is_symmetric(one_way.indptr,
                                                                       one_way.indices))
        parts = np.zeros(300, dtype=np.int64)
        table = _GainTable(level, parts, 2)
        table.move(v, 1)
        np.testing.assert_array_equal(table.gains, _GainTable(level, parts.copy(), 2).gains)
        assert table.gains[u, 1] == 3
        # Contraction keeps an asymmetric level on the argsort path too.
        assert not _contract(level, _heavy_edge_matching(level, np.random.default_rng(0))).symmetric

    def test_directed_graph_is_not_symmetric(self):
        src, dst = np.array([0, 1, 2]), np.array([1, 2, 0])  # equal in- and out-degrees
        graph = CSRGraph.from_edges(src, dst, num_nodes=3)
        assert not _is_symmetric(graph.indptr, graph.indices)
        # Unsorted rows are sorted before the comparison.
        assert _is_symmetric(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))


class TestWeightedMatching:
    """Weighted levels take a node's precomputed first heaviest neighbour when it is free."""

    @staticmethod
    def assert_matching_matches_oracle(edges, n, seed=7):
        order = np.random.default_rng(seed).permutation(n)
        level, oracle_level = weighted_level(edges, n, order)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        match = _heavy_edge_matching(level, rng)
        np.testing.assert_array_equal(match, oracle_heavy_edge_matching(oracle_level, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        return match, order

    def test_heaviest_is_a_self_loop(self):
        # Rank 0's heaviest edge is to itself; its heaviest neighbour is rank 2.
        edges = [(0, 0, 9), (0, 1, 2), (0, 2, 5), (1, 0, 2), (2, 0, 5), (1, 2, 1), (2, 1, 1)]
        match, order = self.assert_matching_matches_oracle(edges, 3)
        assert match[order[0]] == order[2]

    def test_heaviest_is_already_matched(self):
        # Rank 0 takes rank 1; rank 2's heaviest (rank 1) is gone, so it scans
        # and takes rank 3, which beats rank 4 and sits after it in the row.
        edges = [(0, 1, 8), (1, 0, 8), (2, 1, 9), (1, 2, 9),
                 (2, 4, 3), (4, 2, 3), (2, 3, 4), (3, 2, 4), (3, 4, 1), (4, 3, 1)]
        match, order = self.assert_matching_matches_oracle(edges, 5)
        assert match[order[0]] == order[1] and match[order[2]] == order[3]

    def test_tied_heaviest_takes_the_first_in_row_order(self):
        edges = [(0, 1, 4), (0, 3, 7), (0, 2, 7), (1, 0, 4), (3, 0, 7), (2, 0, 7),
                 (1, 2, 6), (2, 1, 6), (3, 2, 5), (2, 3, 5)]
        match, order = self.assert_matching_matches_oracle(edges, 4)
        assert match[order[0]] == order[3]

    def test_every_weighted_level_of_a_clustered_graph(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 400, 2000)
        dst = np.minimum((src // 6) * 6 + rng.integers(0, 6, 2000), 399)
        graph = CSRGraph.from_edges(src, dst, num_nodes=400, symmetrize=True)
        assert_matches_oracle(graph, 2, seed=1)


class TestContractionSort:
    """One value sort per contraction; the argsort only where the packed key would overflow."""

    @pytest.mark.parametrize("weight_bits, packed", [(61, True), (62, False)])
    def test_both_sides_of_the_overflow_guard(self, weight_bits, packed):
        # Two coarse nodes (nc**2 = 4 = 2**2): the guard admits 61 weight bits, not 62.
        big = 1 << (weight_bits - 1)
        edges = [(0, 2, big + 5), (2, 0, big + 5), (1, 3, big + 2), (3, 1, big + 2),
                 (0, 1, 3), (1, 0, 3), (2, 3, 1), (3, 2, 1)]
        level, oracle_level = weighted_level(edges, 4, np.arange(4))
        match = np.array([1, 0, 3, 2])
        assert (4 << int(level.edge_weights.max()).bit_length() <= 1 << 63) == packed
        coarse = _contract(level, match)
        expected, fine_to_coarse = oracle_contract(oracle_level, match)
        for name in ("indptr", "indices", "edge_weights", "node_weights"):
            np.testing.assert_array_equal(getattr(coarse, name), getattr(expected, name))
        np.testing.assert_array_equal(coarse.fine_to_coarse, fine_to_coarse)
        assert coarse.edge_weights.tolist() == [2 * big + 7, 2 * big + 7]
