"""Differential property test: the dataset analogs' generators against their oracles.

``tests/generator_oracle.py`` holds the bodies the generators had before they
were rewritten to make fewer passes over memory.  Hypothesis draws the inputs
and the production code must return the same arrays with the same dtypes and
leave the ``Generator`` where the oracle leaves it (the next ``rng.random()``
agrees):

- ``rmat_edges`` over scales 1-16, and 17 by name (ids past 16 bits), edge factors
  and quadrant probabilities on a 1/16 grid, where ``d = 0`` and ``b = 0`` are
  exact, and off it; noise 0 included;
- the guide-table search behind the degree-proportional draw, on CDFs with
  zero-probability runs at the front, inside and at the back, on a one-entry
  CDF, with uniforms exactly at the bucket edges ``k / K``, exactly at CDF
  values (the tie side) and at the largest double below 1;
- ``induced_subgraph`` on ascending id sets, and the halo ``build_partitions``
  computes;
- ``load_dataset`` for the four analogs at scale 1.0, with the oracles put in
  place of the production code.

Example budgets come from the Hypothesis profile (``tests/conftest.py``);
CI's drift job runs this test under ``deep``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.graph.generators as generators
from generator_oracle import (
    draw_weighted_oracle,
    halo_oracle,
    induced_subgraph_oracle,
    rmat_edges_oracle,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import available_datasets, load_dataset
from repro.graph.generators import _draw_weighted, _search_cdf, rmat_edges
from repro.graph.halo import build_partitions
from repro.graph.partition import PartitionResult

LARGEST_BELOW_ONE = np.nextafter(1.0, 0.0)


def assert_same(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype


# --------------------------------------------------------------------------- #
# R-MAT
# --------------------------------------------------------------------------- #
sixteenths = st.tuples(st.integers(0, 16), st.integers(0, 16), st.integers(0, 16)).filter(
    lambda t: sum(t) <= 16).map(lambda t: tuple(x / 16 for x in t))


@st.composite
def any_quadrants(draw):
    a = draw(st.floats(0.0, 1.0))
    b = draw(st.floats(0.0, 1.0 - a))
    c = draw(st.floats(0.0, max(0.0, 1.0 - a - b)))
    assume(1.0 - a - b - c >= 0)
    return a, b, c


def edge_factors(scale):
    """Up to 16 edges per node, capped so no case draws more than 2**18 edges."""
    return st.integers(1, max(1, min(16, 2 ** 18 >> scale)))


def assert_rmat_matches(scale, edge_factor, quadrants, noise, seed):
    a, b, c = quadrants
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = rmat_edges(scale, edge_factor, a, b, c, seed=rng, noise=noise)
    want = rmat_edges_oracle(scale, edge_factor, a, b, c, oracle_rng, noise)
    for got_ids, want_ids in zip(got, want):
        assert_same(got_ids, want_ids)
    assert rng.random() == oracle_rng.random()


class TestRmatEdges:
    @given(
        scale_and_factor=st.integers(1, 16).flatmap(
            lambda s: st.tuples(st.just(s), edge_factors(s))),
        quadrants=sixteenths | any_quadrants(),
        noise=st.just(0.0) | st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(scale_and_factor=(6, 3), quadrants=(0.5, 0.25, 0.25), noise=0.05, seed=0)  # d = 0
    @example(scale_and_factor=(6, 3), quadrants=(0.75, 0.0, 0.125), noise=0.05, seed=1)  # b = 0
    @example(scale_and_factor=(6, 3), quadrants=(0.57, 0.19, 0.19), noise=0.0, seed=2)
    @settings(deadline=None)
    def test_matches_oracle(self, scale_and_factor, quadrants, noise, seed):
        assert_rmat_matches(*scale_and_factor, quadrants, noise, seed)

    @pytest.mark.parametrize("scale, seed", [(16, 0), (16, 1), (17, 0)])
    def test_ids_wider_than_16_bits(self, scale, seed):
        """Bits 15 and 16 are set; an accumulator narrower than int32 drops one."""
        assert_rmat_matches(scale, 1, (0.57, 0.19, 0.19), 0.05, seed)


# --------------------------------------------------------------------------- #
# Degree-proportional draw
# --------------------------------------------------------------------------- #
@st.composite
def probabilities(draw):
    """Normalised weights with zero runs at the front, inside and at the back."""
    lead = draw(st.integers(0, 4))
    body = draw(st.lists(st.integers(0, 9), min_size=1, max_size=60))
    tail = draw(st.integers(0, 4))
    weights = np.array([0] * lead + body + [0] * tail, dtype=np.float64)
    if weights.sum() == 0:
        weights[lead + draw(st.integers(0, len(body) - 1))] = 1.0
    return weights / weights.sum()


def cdf_of(prob):
    cdf = prob.cumsum()
    cdf /= cdf[-1]
    return cdf


def bucket_count(cdf):
    return 1 << (4 * len(cdf) - 1).bit_length()


def assert_search_matches(cdf, u):
    assert_same(_search_cdf(cdf, u), cdf.searchsorted(u, "right"))


class TestGuidedDraw:
    @given(prob=probabilities(), size=st.integers(0, 400), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_matches_choice(self, prob, size, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same(_draw_weighted(rng, prob, size), draw_weighted_oracle(oracle_rng, prob, size))
        assert rng.random() == oracle_rng.random()

    @given(prob=probabilities())
    def test_uniforms_at_bucket_edges(self, prob):
        """``u = k / K`` for every bucket: the first candidate is the answer."""
        cdf = cdf_of(prob)
        edges = np.arange(bucket_count(cdf)) / bucket_count(cdf)
        assert_search_matches(cdf, np.concatenate([edges, [LARGEST_BELOW_ONE]]))

    @given(prob=probabilities())
    def test_uniforms_at_cdf_values(self, prob):
        """A uniform equal to a CDF value lies past it (``side="right"``)."""
        cdf = cdf_of(prob)
        ties = cdf[cdf < 1.0]
        near = np.concatenate([np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
        assert_search_matches(cdf, np.concatenate([ties, near[near < 1.0]]))

    def test_thirds_tie_inside_a_bucket(self):
        """CDF values that are not bucket edges share a bucket with their ties."""
        cdf = cdf_of(np.full(3, 1 / 3))
        assert_search_matches(cdf, np.concatenate([cdf[:2], [0.0, LARGEST_BELOW_ONE]]))

    def test_one_entry_cdf(self):
        u = np.array([0.0, 0.25, 0.5, LARGEST_BELOW_ONE])
        assert_same(_search_cdf(np.array([1.0]), u), np.zeros(4, dtype=np.intp))

    def test_crowded_bucket_needs_several_probes(self):
        """Many tiny weights behind one heavy one fill single buckets."""
        prob = np.concatenate([[1e6], np.ones(200)])
        prob /= prob.sum()
        cdf = cdf_of(prob)
        k = bucket_count(cdf)
        assert (np.diff(cdf.searchsorted(np.arange(k + 1) / k, "right")) > 4).any()
        u = np.random.default_rng(0).random(5000)
        assert_search_matches(cdf, np.concatenate([u, cdf[:-1], [LARGEST_BELOW_ONE]]))

    def test_rejects_negative_or_empty_mass(self):
        rng = np.random.default_rng(0)
        for prob in (np.array([0.5, -0.1, 0.6]), np.zeros(3), np.array([np.nan, 1.0])):
            with pytest.raises(ValueError, match="non-negative with a positive sum"):
                _draw_weighted(rng, prob, 4)


# --------------------------------------------------------------------------- #
# Induced subgraph and halo
# --------------------------------------------------------------------------- #
@st.composite
def graphs(draw, max_nodes=40, max_edges=80):
    """A CSR graph from ``from_edges`` (rows sorted), parallel edges allowed."""
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(0, max_edges))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = np.array(draw(ends), dtype=np.int64), np.array(draw(ends), dtype=np.int64)
    return CSRGraph.from_edges(src, dst, num_nodes=n, symmetrize=draw(st.booleans()),
                               deduplicate=draw(st.booleans()))


class TestInducedSubgraph:
    @given(graph=graphs(), data=st.data())
    @settings(deadline=None)
    def test_matches_oracle(self, graph, data):
        chosen = data.draw(st.sets(st.integers(0, graph.num_nodes - 1)))
        nodes = np.array(sorted(chosen), dtype=np.int64)
        sub, node_map = graph.induced_subgraph(nodes)
        indptr, indices = induced_subgraph_oracle(graph.indptr, graph.indices, nodes)
        assert_same(sub.indptr, indptr)
        assert_same(sub.indices, indices)
        assert sub.num_nodes == len(nodes)
        assert_same(node_map, nodes)

    def test_prefix_trim_matches_oracle(self):
        """The RMAT trim: the first ``n`` ids of a power-of-two graph."""
        graph = generators.rmat_graph(10, 8, seed=3)
        nodes = np.arange(700, dtype=np.int64)
        sub, _ = graph.induced_subgraph(nodes)
        indptr, indices = induced_subgraph_oracle(graph.indptr, graph.indices, nodes)
        assert_same(sub.indptr, indptr)
        assert_same(sub.indices, indices)


class TestHalo:
    @given(graph=graphs(), k=st.integers(1, 5), data=st.data())
    @settings(deadline=None)
    def test_matches_oracle(self, graph, k, data):
        parts = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=graph.num_nodes,
                                            max_size=graph.num_nodes)), dtype=np.int64)
        for p, partition in enumerate(build_partitions(graph, PartitionResult(parts, k))):
            assert_same(partition.halo_global, halo_oracle(graph.indptr, graph.indices, parts, p))


# --------------------------------------------------------------------------- #
# Whole analogs
# --------------------------------------------------------------------------- #
def _oracle_rmat_edges(scale, edge_factor, a=0.57, b=0.19, c=0.19, seed=None, noise=0.05):
    return rmat_edges_oracle(scale, edge_factor, a, b, c, np.random.default_rng(seed), noise)


def _oracle_induced_subgraph(graph, nodes):
    indptr, indices = induced_subgraph_oracle(graph.indptr, graph.indices, nodes)
    return CSRGraph(indptr=indptr, indices=indices, num_nodes=len(nodes)), nodes.copy()


@pytest.mark.parametrize("name", available_datasets())
def test_load_dataset_at_full_scale_matches_oracle(name, monkeypatch):
    """Scale 1.0, and reddit at any scale, are not in ``graph_setup.json``."""
    dataset = load_dataset(name, scale=1.0, seed=0)
    monkeypatch.setattr(generators, "rmat_edges", _oracle_rmat_edges)
    monkeypatch.setattr(generators, "_draw_weighted", draw_weighted_oracle)
    monkeypatch.setattr(CSRGraph, "induced_subgraph", _oracle_induced_subgraph)
    oracle = load_dataset(name, scale=1.0, seed=0)
    for field in ("features", "labels", "train_mask", "val_mask", "test_mask"):
        assert_same(getattr(dataset, field), getattr(oracle, field))
    assert_same(dataset.graph.indptr, oracle.graph.indptr)
    assert_same(dataset.graph.indices, oracle.graph.indices)
