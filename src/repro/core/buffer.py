"""Fixed-capacity prefetch buffer holding halo-node features.

One buffer exists per trainer PE (``BUF_p^i`` in the paper).  Its capacity is
fixed at initialization (``f_h`` percent of the partition's halo nodes) and
never changes: every eviction round replaces exactly as many nodes as it
evicts, so the memory footprint stays constant throughout training.

Membership queries must be fast — every minibatch tests all sampled halo
nodes against the buffer — so the buffer keeps a sorted index of the resident
global ids alongside the slot arrays and answers lookups with
``np.searchsorted`` (the NumPy equivalent of the paper's NUMBA-parallel
lookup).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_1d_int_array, check_2d_float_array


class PrefetchBuffer:
    """Fixed-size feature cache keyed by global node id."""

    def __init__(self, node_ids: np.ndarray, features: np.ndarray):
        node_ids = check_1d_int_array(node_ids, "node_ids")
        features = check_2d_float_array(features, "features")
        if len(node_ids) != len(features):
            raise ValueError("node_ids and features must align")
        if len(np.unique(node_ids)) != len(node_ids):
            raise ValueError("buffer node ids must be unique")
        self._slot_ids = node_ids.copy()
        self._features = features.copy()
        self._rebuild_index()

    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, feature_dim: int) -> "PrefetchBuffer":
        return cls(np.zeros(0, dtype=np.int64), np.zeros((0, feature_dim), dtype=np.float32))

    def _rebuild_index(self) -> None:
        self._order = np.argsort(self._slot_ids, kind="stable")
        self._sorted_ids = self._slot_ids[self._order]

    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return int(len(self._slot_ids))

    @property
    def feature_dim(self) -> int:
        return int(self._features.shape[1])

    @property
    def node_ids(self) -> np.ndarray:
        """Global ids currently resident, in slot order (copy)."""
        return self._slot_ids.copy()

    def nbytes(self) -> int:
        return int(self._features.nbytes + self._slot_ids.nbytes + self._sorted_ids.nbytes)

    # ------------------------------------------------------------------ #
    def lookup(self, global_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Membership test.

        Returns ``(hit_mask, slots)`` where ``hit_mask[i]`` says whether
        ``global_ids[i]`` is resident and ``slots[i]`` is its slot index
        (undefined where ``hit_mask`` is False).
        """
        global_ids = check_1d_int_array(global_ids, "global_ids")
        if self.capacity == 0 or len(global_ids) == 0:
            return np.zeros(len(global_ids), dtype=bool), np.zeros(len(global_ids), dtype=np.int64)
        pos = np.searchsorted(self._sorted_ids, global_ids)
        pos_clamped = np.minimum(pos, self.capacity - 1)
        hit_mask = self._sorted_ids[pos_clamped] == global_ids
        slots = np.where(hit_mask, self._order[pos_clamped], 0).astype(np.int64)
        return hit_mask, slots

    def contains(self, global_ids: np.ndarray) -> np.ndarray:
        """Boolean membership mask."""
        hit_mask, _ = self.lookup(global_ids)
        return hit_mask

    def get_features(self, slots: np.ndarray) -> np.ndarray:
        """Feature rows stored at *slots*."""
        slots = check_1d_int_array(slots, "slots", max_value=self.capacity)
        return self._features[slots]

    # ------------------------------------------------------------------ #
    def replace(self, slots: np.ndarray, new_ids: np.ndarray, new_features: np.ndarray) -> None:
        """Swap out the nodes at *slots* for *new_ids* / *new_features*.

        Capacity never changes; the caller guarantees that ``new_ids`` are not
        already resident and are mutually unique.
        """
        slots = check_1d_int_array(slots, "slots", max_value=self.capacity)
        new_ids = check_1d_int_array(new_ids, "new_ids")
        new_features = check_2d_float_array(new_features, "new_features", columns=self.feature_dim)
        if not (len(slots) == len(new_ids) == len(new_features)):
            raise ValueError("slots, new_ids and new_features must align")
        if len(slots) == 0:
            return
        if len(np.unique(slots)) != len(slots):
            raise ValueError("slots must be unique")
        if len(np.unique(new_ids)) != len(new_ids):
            raise ValueError("new_ids must be unique")
        resident = self.contains(new_ids)
        if np.any(resident):
            dup = new_ids[resident][:5]
            raise ValueError(f"nodes {dup.tolist()} are already resident in the buffer")
        self._slot_ids[slots] = new_ids
        self._features[slots] = new_features
        self._rebuild_index()

