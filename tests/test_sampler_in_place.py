"""The sampler's in-place shuffle and what it accepts as a fan-out.

:class:`~repro.sampling.neighbor_sampler.NeighborSampler` swaps CSR slots of
capped nodes in a per-sampler copy of ``graph.indices`` and restores the
touched slots before each layer returns.  After every ``sample()`` — and after
the duplicate-dst ``ValueError`` — that copy must equal ``graph.indices``
again, or the next call would read shuffled neighbour lists: these tests fail
if the restore is deleted.  Fan-outs must be integers: a fractional, boolean or
string fan-out raises a ``ValueError`` naming it instead of being truncated.
"""

import re

import numpy as np
import pytest
from sampler_oracle import LoopNeighborSampler
from test_sampler_differential import assert_minibatches_equal

from repro.cli import main as cli_main
from repro.graph.csr import CSRGraph
from repro.sampling.dataloader import DistDataLoader
from repro.sampling.neighbor_sampler import NeighborSampler
from repro.scenarios import SCENARIOS


def csr_from_degrees(degrees, seed=0):
    """A directed graph whose row *u* has ``degrees[u]`` random out-neighbours."""
    degrees = np.asarray(degrees, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    num_nodes = len(degrees)
    indices = np.random.default_rng(seed).integers(0, num_nodes, size=int(indptr[-1]))
    return CSRGraph(indptr=indptr, indices=indices, num_nodes=num_nodes)


def complete_graph(n):
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    return CSRGraph.from_edges(src, dst, num_nodes=n)


def assert_pristine(sampler):
    np.testing.assert_array_equal(sampler._indices_scratch, sampler.graph.indices)


# name -> (graph, fanouts, seed batches)
PRISTINE_CASES = {
    # Node 0 is a hub with degree 100x the first fan-out; the rest are small.
    "hub": (csr_from_degrees([500] + [3] * 39), [5, 2],
            [np.array([0]), np.array([0, 7, 12]), np.arange(40)]),
    # Every row has degree exactly fanout (take-all) or fanout + 1 (capped).
    "deg-fanout-and-fanout+1": (csr_from_degrees([4, 5] * 15, seed=1), [4, 4],
                                [np.arange(30), np.array([1]), np.array([0, 2])]),
    "full-then-capped": (csr_from_degrees([6, 2, 9, 0] * 10, seed=2), [-1, 3],
                         [np.array([0, 1, 3]), np.arange(40)]),
    "full-only": (csr_from_degrees([6, 2, 9, 0] * 10, seed=2), [-1, -1], [np.arange(40)]),
    "all-capped": (complete_graph(12), [2, 2], [np.arange(12), np.array([3, 8])]),
}


class TestScratchStaysPristine:
    @pytest.mark.parametrize("case", sorted(PRISTINE_CASES))
    def test_scratch_equals_graph_indices_after_every_sample(self, case):
        graph, fanouts, batches = PRISTINE_CASES[case]
        sampler = NeighborSampler(graph, fanouts, seed=3)
        oracle = LoopNeighborSampler(graph, fanouts, seed=3)
        assert_pristine(sampler)
        for _ in range(2):
            for seeds in batches:
                assert_minibatches_equal(sampler.sample(seeds), oracle.sample(seeds))
                assert_pristine(sampler)

    def test_duplicate_dst_error_leaves_scratch_pristine(self):
        graph = csr_from_degrees([40, 40, 3, 0], seed=4)
        sampler = NeighborSampler(graph, [5], seed=0)
        with pytest.raises(ValueError, match="duplicate"):
            sampler._sample_one_layer(np.array([0, 1, 0, 2], dtype=np.int64), 5)
        assert_pristine(sampler)
        # The draw was consumed, so continue the oracle from the same stream.
        oracle = LoopNeighborSampler(graph, [5], seed=0)
        oracle.rng.bit_generator.state = sampler.rng.bit_generator.state
        assert_minibatches_equal(sampler.sample(np.array([0, 1])), oracle.sample(np.array([0, 1])))

    def test_mid_epoch_snapshot_restore_replays_bit_identically(self, small_partitions):
        p = small_partitions[0]
        loader = DistDataLoader(p, np.arange(min(80, p.num_owned)), fanouts=(3, 5),
                                batch_size=8, seed=0)
        it = loader.epoch()
        for _ in range(2):
            next(it)
        state = loader.snapshot()
        first = [next(it) for _ in range(3)]
        assert_pristine(loader.sampler)

        loader.restore(state)
        it = loader.epoch()
        for original in first:
            assert_minibatches_equal(next(it), original)
            assert_pristine(loader.sampler)


# value -> the text the error must show
BAD_FANOUTS = {
    "fraction": (2.5, "2.5"),
    "fraction-above-half": (3.9, "3.9"),
    "integral-float": (3.0, "3.0"),
    "numpy-float": (np.float64(2.0), "np.float64(2.0)"),
    "true": (True, "True"),
    "false": (False, "False"),
    "string": ("3", "'3'"),
    "none": (None, "None"),
    "zero": (0, "0"),
    "below-minus-one": (-2, "-2"),
}


class TestFanoutsMustBeIntegers:
    @pytest.mark.parametrize("case", sorted(BAD_FANOUTS))
    def test_non_integer_or_out_of_range_fanout_is_named(self, tiny_graph, case):
        value, shown = BAD_FANOUTS[case]
        with pytest.raises(ValueError, match=f"fanout must be .*, got {re.escape(shown)}$"):
            NeighborSampler(tiny_graph, [2, value])

    @pytest.mark.parametrize("fanouts", [[1], [-1], [3, 25], [np.int64(4), np.int32(-1)]],
                             ids=str)
    def test_integers_and_minus_one_pass_through(self, tiny_graph, fanouts):
        sampler = NeighborSampler(tiny_graph, fanouts)
        assert sampler.fanouts == [int(f) for f in fanouts]
        assert all(type(f) is int for f in sampler.fanouts)

    def test_scenario_with_fractional_fanouts_does_not_materialize(self):
        scenario = SCENARIOS.build("uniform").with_overrides(fanouts=(2.5, 3.9), scale=0.05)
        with pytest.raises(ValueError, match="got 2.5$"):
            scenario.materialize(0)

    def test_repro_run_exits_2_with_one_line(self, monkeypatch, capsys):
        bad = SCENARIOS.build("uniform").with_overrides(fanouts=(2.5, 3.9))
        monkeypatch.setattr(SCENARIOS, "build", lambda name: bad)
        assert cli_main(["run", "--scale", "0.05", "--epochs", "1"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: fanout must be a positive integer or -1 (full), got 2.5"
        ]
