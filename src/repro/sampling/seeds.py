"""Seed-node iteration for distributed trainers.

DistDGL's second level of partitioning redistributes a partition's training
nodes among the trainer processes co-located on that machine (4 trainers/node
in the paper).  :class:`SeedPartitioner` performs that split and
:class:`SeedIterator` yields shuffled, fixed-size seed batches per epoch — the
paper keeps the batch size constant (2000) across all configurations, which is
why the number of minibatches per trainer shrinks as trainers grow (Table III).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_1d_int_array, check_positive


class SeedPartitioner:
    """Split a partition's training nodes among its co-located trainers."""

    def __init__(self, train_nids_local: np.ndarray, num_trainers: int, seed: SeedLike = None):
        check_positive(num_trainers, "num_trainers")
        self.train_nids_local = check_1d_int_array(train_nids_local, "train_nids_local")
        self.num_trainers = int(num_trainers)
        rng = ensure_rng(seed)
        shuffled = self.train_nids_local.copy()
        rng.shuffle(shuffled)
        self._splits: List[np.ndarray] = [
            np.sort(chunk) for chunk in np.array_split(shuffled, num_trainers)
        ]

    def trainer_seeds(self, trainer_rank: int) -> np.ndarray:
        """Seed nodes (local ids) assigned to *trainer_rank*."""
        if trainer_rank < 0 or trainer_rank >= self.num_trainers:
            raise IndexError(f"trainer_rank {trainer_rank} out of range")
        return self._splits[trainer_rank]


class SeedIterator:
    """Iterate over shuffled seed batches for one trainer, epoch by epoch.

    ``active_fraction`` and ``rotation`` model **hot-set drift** (the
    cache-stress scenarios): each epoch only a contiguous (wrap-around)
    window holding ``active_fraction`` of the seeds is iterated, and the
    window's start advances by ``rotation`` of the seed set per epoch — so
    the halo nodes a trainer touches drift over training, which is exactly
    the regime where static caches decay and adaptive tiers pay off.  The
    defaults (``1.0`` / ``0.0``) iterate the full set with an unchanged RNG
    stream, bit-identical to the pre-drift iterator.
    """

    def __init__(
        self,
        seeds: np.ndarray,
        batch_size: int,
        seed: SeedLike = None,
        drop_last: bool = False,
        active_fraction: float = 1.0,
        rotation: float = 0.0,
    ):
        check_positive(batch_size, "batch_size")
        self.seeds = check_1d_int_array(seeds, "seeds")
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)
        self.rng = ensure_rng(seed)
        if not 0.0 < active_fraction <= 1.0:
            raise ValueError(f"active_fraction must be in (0, 1], got {active_fraction!r}")
        if not 0.0 <= rotation <= 1.0:
            raise ValueError(f"rotation must be in [0, 1], got {rotation!r}")
        self.active_fraction = float(active_fraction)
        self.rotation = float(rotation)
        self._epochs_started = 0

    @property
    def num_active(self) -> int:
        """Seeds active per epoch (= all seeds without drift)."""
        n = len(self.seeds)
        if n == 0:
            return 0
        if self.active_fraction >= 1.0:
            return n
        return max(1, int(round(self.active_fraction * n)))

    @property
    def num_batches(self) -> int:
        """Number of minibatches per epoch for this trainer."""
        n = self.num_active
        if n == 0:
            return 0
        if self.drop_last:
            return n // self.batch_size
        return int(np.ceil(n / self.batch_size))

    def active_window(self, epoch_index: int) -> np.ndarray:
        """The (unshuffled) seed window active during *epoch_index*."""
        n = len(self.seeds)
        if n == 0:
            return self.seeds
        if self.active_fraction >= 1.0:
            # Full set: identical to the pre-drift iterator, including the
            # array the shuffle permutes (RNG-stream compatibility).
            return self.seeds.copy()
        start = int(round(epoch_index * self.rotation * n)) % n
        idx = (start + np.arange(self.num_active)) % n
        return self.seeds[idx]

    def epoch(self, epoch_index: Optional[int] = None) -> Iterator[np.ndarray]:
        """Yield seed batches for one epoch (reshuffled every call).

        ``epoch_index`` pins the drift window; when omitted an internal
        counter (one increment per ``epoch`` call, counted eagerly, not at
        first consumption) drives the rotation.
        """
        if epoch_index is None:
            epoch_index = self._epochs_started
        self._epochs_started += 1
        return self._iterate(epoch_index)

    def _iterate(self, epoch_index: int) -> Iterator[np.ndarray]:
        # A generator: the window is drawn and shuffled at the first next().
        if len(self.seeds) == 0:
            return
        order = self.active_window(epoch_index)
        self.rng.shuffle(order)
        limit = self.num_batches * self.batch_size if self.drop_last else len(order)
        for start in range(0, limit, self.batch_size):
            yield order[start: start + self.batch_size]

    def reassign(self, seeds: np.ndarray) -> None:
        """Swap the seed set **in place** (elastic re-sharding).

        Mutates the existing iterator — its holders keep a direct
        reference to it, so a replacement object would silently go unused.
        The RNG stream and epoch counter continue uninterrupted; an epoch
        already in flight finishes over its old shuffled order and the new
        assignment takes effect at the next :meth:`epoch` call.
        """
        self.seeds = check_1d_int_array(seeds, "seeds")

    def reset(self) -> None:
        """Rewind the drift epoch counter (between independent runs)."""
        self._epochs_started = 0

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.epoch()

