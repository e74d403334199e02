"""Distributed data loader: seeds + sampler glued together per trainer.

The :class:`DistDataLoader` mirrors DistDGL's ``DistNodeDataLoader``: each
trainer instantiates one, pointed at its partition and its share of the
training seeds, and iterates minibatches.  The loader itself is oblivious to
prefetching — both the baseline pipeline and the MassiveGNN pipeline consume
the same minibatches, which is what makes the comparison apples-to-apples.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

import numpy as np

from repro.graph.halo import GraphPartition
from repro.sampling.block import MiniBatch
from repro.sampling.neighbor_sampler import NeighborSampler, build_sampler
from repro.sampling.seeds import SeedIterator
from repro.utils.rng import SeedLike, derive_seed


class DistDataLoader:
    """Per-trainer minibatch loader over a graph partition.

    Parameters
    ----------
    partition:
        The trainer's :class:`GraphPartition`.
    seeds_local:
        Training seed nodes in the partition's **local** id space (owned nodes
        only; halo nodes are never seeds).
    fanouts:
        Per-layer neighbor fan-outs (e.g. ``[10, 25]``).
    batch_size:
        Seeds per minibatch (paper: 2000).
    labels:
        Optional global label array used to attach seed labels to minibatches.
    sampler:
        Registry key from :data:`repro.sampling.neighbor_sampler.SAMPLERS`
        selecting the fan-out implementation (``"vectorized"`` default).
    """

    def __init__(
        self,
        partition: GraphPartition,
        seeds_local: np.ndarray,
        fanouts,
        batch_size: int,
        labels: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        drop_last: bool = False,
        sampler: str = "vectorized",
        seed_active_fraction: float = 1.0,
        seed_rotation: float = 0.0,
    ):
        self.partition = partition
        self.labels = labels
        self.sampler: NeighborSampler = build_sampler(
            sampler, partition.local_graph, fanouts, seed=derive_seed(seed, partition.part_id, 11)
        )
        self.seed_iterator = SeedIterator(
            seeds_local,
            batch_size,
            seed=derive_seed(seed, partition.part_id, 13),
            drop_last=drop_last,
            active_fraction=seed_active_fraction,
            rotation=seed_rotation,
        )
        self._step = 0

    @property
    def num_batches_per_epoch(self) -> int:
        return self.seed_iterator.num_batches

    def sample(self, seeds: np.ndarray) -> MiniBatch:
        """Sample one minibatch for *seeds*, advancing the lifetime step counter.

        Both :meth:`epoch` and
        :meth:`~repro.sampling.pipeline.MiniBatchPipeline.epoch` route through
        here, so the two share one sampler RNG stream and step sequence.
        """
        minibatch = self.sampler.sample(
            seeds,
            local_to_global=self.partition.local_to_global,
            step=self._step,
            labels=self.labels,
        )
        self._step += 1
        return minibatch

    def epoch(self) -> Iterator[MiniBatch]:
        """Yield sampled minibatches for one epoch."""
        for seeds in self.seed_iterator.epoch():
            yield self.sample(seeds)

    def reassign_seeds(self, seeds_local: np.ndarray) -> None:
        """Re-point this trainer at a new seed share (elastic re-sharding).

        Delegates to :meth:`SeedIterator.reassign`, which mutates the
        existing iterator in place so every holder of it sees the new
        assignment from the next epoch on.
        """
        self.seed_iterator.reassign(seeds_local)

    def snapshot(self) -> Dict[str, Any]:
        """Checkpointable loader state: step counter + sampler RNG + seeds."""
        return {
            "step": self._step,
            "sampler_rng_state": self.sampler.rng.bit_generator.state,
            "seed_iterator": self.seed_iterator.snapshot(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Rewind to a :meth:`snapshot` (bit-exact sampler + seed streams)."""
        self._step = int(state["step"])
        self.sampler.rng.bit_generator.state = state["sampler_rng_state"]
        self.seed_iterator.restore(state["seed_iterator"])

    def reset(self) -> None:
        """Reset the step and drift-epoch counters (between independent runs)."""
        self._step = 0
        self.seed_iterator.reset()

    @property
    def steps_taken(self) -> int:
        return self._step
