"""Micro-benchmarks of the prefetcher's hot operations.

These are the operations Section IV worries about being cheap enough to hide
behind training: buffer membership lookup, scoreboard decay/increment, the
eviction assessment, and neighbor sampling.  pytest-benchmark measures their
real wall-clock cost (many rounds, statistical output) rather than the
simulated cost used by the training benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffer import PrefetchBuffer
from repro.core.scoreboard import CompactAccessScoreboard, DenseAccessScoreboard, EvictionScores
from repro.graph.datasets import load_dataset
from repro.sampling.neighbor_sampler import NeighborSampler

NUM_GLOBAL = 200_000
NUM_HALO = 20_000
CAPACITY = 5_000
QUERY = 2_000


@pytest.fixture(scope="module")
def halo_ids():
    rng = np.random.default_rng(0)
    return np.sort(rng.choice(NUM_GLOBAL, size=NUM_HALO, replace=False)).astype(np.int64)


@pytest.fixture(scope="module")
def buffer(halo_ids):
    rng = np.random.default_rng(1)
    resident = rng.choice(halo_ids, size=CAPACITY, replace=False)
    feats = rng.normal(size=(CAPACITY, 128)).astype(np.float32)
    return PrefetchBuffer(resident, feats)


@pytest.fixture(scope="module")
def queries(halo_ids):
    rng = np.random.default_rng(2)
    return rng.choice(halo_ids, size=QUERY, replace=True).astype(np.int64)


@pytest.mark.benchmark(group="micro-buffer")
def test_micro_buffer_lookup(benchmark, buffer, queries):
    hit_mask, slots = benchmark(buffer.lookup, queries)
    assert len(hit_mask) == QUERY


@pytest.mark.benchmark(group="micro-buffer")
def test_micro_buffer_feature_gather(benchmark, buffer, queries):
    hit_mask, slots = buffer.lookup(queries)
    hits = slots[hit_mask]
    if len(hits) == 0:
        pytest.skip("no hits in the random query at this seed")
    rows = benchmark(buffer.get_features, hits)
    assert rows.shape[1] == 128


@pytest.mark.benchmark(group="micro-scoreboard")
def test_micro_dense_scoreboard_increment(benchmark, halo_ids, queries):
    board = DenseAccessScoreboard(NUM_GLOBAL, halo_ids)
    benchmark(board.increment, queries)


@pytest.mark.benchmark(group="micro-scoreboard")
def test_micro_compact_scoreboard_increment(benchmark, halo_ids, queries):
    board = CompactAccessScoreboard(halo_ids)
    benchmark(board.increment, queries)


@pytest.mark.benchmark(group="micro-scoreboard")
def test_micro_eviction_assessment(benchmark):
    scores = EvictionScores(CAPACITY)
    rng = np.random.default_rng(3)
    scores.set(np.arange(CAPACITY), rng.random(CAPACITY))

    def assess():
        unused = rng.random(CAPACITY) < 0.7
        scores.decay(unused, 0.995)
        return scores.below_threshold(0.9)

    out = benchmark(assess)
    assert out.ndim == 1


@pytest.mark.benchmark(group="micro-sampling")
def test_micro_neighbor_sampling(benchmark):
    dataset = load_dataset("products", scale=0.25, seed=0)
    sampler = NeighborSampler(dataset.graph, [10, 25], seed=0)
    seeds = np.arange(256)
    mb = benchmark(sampler.sample, seeds)
    assert len(mb.blocks) == 2
