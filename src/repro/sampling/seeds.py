"""Seed-node iteration for distributed trainers.

DistDGL's second level of partitioning redistributes a partition's training
nodes among the trainer processes co-located on that machine (4 trainers/node
in the paper).  :class:`SeedPartitioner` performs that split and
:class:`SeedIterator` yields shuffled, fixed-size seed batches per epoch — the
paper keeps the batch size constant (2000) across all configurations, which is
why the number of minibatches per trainer shrinks as trainers grow (Table III).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

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

    def assigned_seeds(self) -> np.ndarray:
        """All assigned seeds across trainers, sorted.

        By construction this equals the sorted input seed set — every training
        node lands on exactly one trainer.  The cluster property tests assert
        the invariant for arbitrary ``(seeds, num_trainers)`` combinations.
        """
        if not self._splits:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(self._splits))


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
        # In-flight epoch state (for mid-epoch checkpoint/restore): the
        # shuffled order, the next batch start, and the iteration limit.
        self._order: Optional[np.ndarray] = None
        self._cursor = 0
        self._limit = 0
        self._resume = False

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
        if self._resume:
            # Restored mid-epoch: continue the interrupted epoch (already
            # counted in ``_epochs_started`` when it originally began).
            return self._iterate(0)
        if epoch_index is None:
            epoch_index = self._epochs_started
        self._epochs_started += 1
        return self._iterate(epoch_index)

    def _iterate(self, epoch_index: int) -> Iterator[np.ndarray]:
        if self._resume:
            self._resume = False
            order = self._order
            if order is None:
                return
        else:
            if len(self.seeds) == 0:
                self._order = None
                return
            order = self.active_window(epoch_index)
            self.rng.shuffle(order)
            self._order = order
            self._limit = (
                self.num_batches * self.batch_size if self.drop_last else len(order)
            )
            self._cursor = 0
        while self._cursor < self._limit:
            start = self._cursor
            batch = order[start: start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                break
            self._cursor = start + self.batch_size
            if len(batch):
                yield batch
        self._order = None

    def reassign(self, seeds: np.ndarray) -> None:
        """Swap the seed set **in place** (elastic re-sharding).

        Mutates the existing iterator — its holders keep a direct
        reference to it, so a replacement object would silently go unused.
        The RNG stream and epoch counter continue uninterrupted; an epoch
        already in flight finishes over its old shuffled order and the new
        assignment takes effect at the next :meth:`epoch` call.
        """
        self.seeds = check_1d_int_array(seeds, "seeds")

    def snapshot(self) -> Dict[str, Any]:
        """Checkpointable iteration state (RNG stream + in-flight epoch)."""
        mid = self._order is not None
        return {
            "epochs_started": self._epochs_started,
            "rng_state": self.rng.bit_generator.state,
            "order": self._order.copy() if mid else None,
            "cursor": self._cursor,
            "limit": self._limit,
            "mid_epoch": mid,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Rewind to a :meth:`snapshot`; a mid-epoch snapshot resumes the
        interrupted epoch bit-identically on the next :meth:`epoch` call."""
        self._epochs_started = int(state["epochs_started"])
        self.rng.bit_generator.state = state["rng_state"]
        order = state["order"]
        self._order = order.copy() if order is not None else None
        self._cursor = int(state["cursor"])
        self._limit = int(state["limit"])
        self._resume = bool(state["mid_epoch"]) and self._order is not None

    def reset(self) -> None:
        """Rewind the drift epoch counter (between independent runs)."""
        self._epochs_started = 0
        self._order = None
        self._cursor = 0
        self._limit = 0
        self._resume = False

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.epoch()


def minibatches_per_trainer(
    num_train_nodes: int, num_partitions: int, trainers_per_node: int, batch_size: int
) -> int:
    """Expected minibatches per trainer per epoch under the paper's setup.

    The graph is split into ``num_partitions`` (one per machine), each machine
    runs ``trainers_per_node`` trainers, and the batch size is constant — so
    each trainer sees ``|V_train| / (num_partitions * trainers_per_node)``
    seeds per epoch.
    """
    check_positive(batch_size, "batch_size")
    seeds_per_trainer = num_train_nodes / max(1, num_partitions * trainers_per_node)
    return max(1, int(np.ceil(seeds_per_trainer / batch_size)))
