"""Access and eviction scoreboards (Section IV-B of the paper).

Two scores drive the prefetch buffer's maintenance:

* the **access score** ``S_A`` counts, for every halo node of the partition,
  how many times it was sampled but missed in the buffer — high ``S_A`` nodes
  are the best replacement candidates;
* the **eviction score** ``S_E`` lives per buffer slot, starts at 1, and is
  multiplied by the decay factor γ every minibatch in which the slot's node
  was not sampled — slots that decay below the threshold α are evicted.

The paper ships two ``S_A`` layouts: a dense ``O(|V|)`` array with O(1)
indexing and a memory-efficient ``O(|V_h^p|)`` array addressed by binary
search over the sorted halo ids (used for papers100M).  They give the same
values and the same errors, so only the dense one is kept here: its
``nbytes`` is what Fig. 8's init-cost table counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_1d_int_array, check_positive


class DenseAccessScoreboard:
    """``O(|V|)`` dense S_A array: O(1) updates, large memory footprint.

    Only the partition's halo nodes are meaningful entries; the rest of the
    array exists purely to make indexing by global id constant-time, exactly
    as in the paper's standard implementation.  An empty query returns empty;
    a non-halo id raises ``KeyError`` naming it.
    """

    def __init__(self, num_global_nodes: int, halo_global: np.ndarray):
        check_positive(num_global_nodes, "num_global_nodes")
        self._halo = np.sort(check_1d_int_array(halo_global, "halo_global"))
        self._scores = np.full(num_global_nodes, np.nan, dtype=np.float64)
        self._scores[self._halo] = 0.0

    def _checked(self, global_ids: np.ndarray) -> np.ndarray:
        """*global_ids* as int64; ``KeyError`` naming any that is not a halo node."""
        global_ids = check_1d_int_array(global_ids, "global_ids", max_value=len(self._scores))
        # Non-halo entries are NaN by construction, so NaN marks a foreign id.
        foreign = np.isnan(self._scores[global_ids])
        if foreign.any():
            raise KeyError(
                f"nodes {global_ids[foreign][:5].tolist()} are not halo nodes of this partition"
            )
        return global_ids

    def increment(self, global_ids: np.ndarray) -> None:
        np.add.at(self._scores, self._checked(global_ids), 1.0)

    def get(self, global_ids: np.ndarray) -> np.ndarray:
        return self._scores[self._checked(global_ids)]

    def set(self, global_ids: np.ndarray, values: np.ndarray) -> None:
        self._scores[self._checked(global_ids)] = np.asarray(values, dtype=np.float64)

    def top_candidates(
        self, k: int, exclude: Optional[np.ndarray] = None, degrees: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Halo nodes with the highest S_A (ties broken by degree when given)."""
        if k <= 0:
            return np.zeros(0, dtype=np.int64)
        candidates = self._halo
        if exclude is not None and len(exclude):
            candidates = np.setdiff1d(candidates, exclude, assume_unique=False)
        if len(candidates) == 0:
            return np.zeros(0, dtype=np.int64)
        scores = self._scores[candidates]
        if degrees is not None:
            cand_deg = degrees[candidates].astype(np.float64)
            # Lexicographic: primary key S_A, secondary key degree.
            order = np.lexsort((-cand_deg, -scores))
        else:
            order = np.argsort(-scores, kind="stable")
        return candidates[order[:k]]

    def nbytes(self) -> int:
        return int(self._scores.nbytes)


class EvictionScores:
    """Per-buffer-slot eviction scores S_E with multiplicative decay."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._scores = np.ones(capacity, dtype=np.float64)

    @property
    def values(self) -> np.ndarray:
        return self._scores

    def decay(self, unused_mask: np.ndarray, gamma: float) -> None:
        """Multiply the scores of unused slots by gamma."""
        unused_mask = np.asarray(unused_mask, dtype=bool)
        if len(unused_mask) != len(self._scores):
            raise ValueError("unused_mask length must equal buffer capacity")
        self._scores[unused_mask] *= gamma

    def below_threshold(self, alpha: float) -> np.ndarray:
        """Slot indices whose eviction score dropped below *alpha*."""
        return np.nonzero(self._scores < alpha)[0].astype(np.int64)

    def get(self, slots: np.ndarray) -> np.ndarray:
        return self._scores[np.asarray(slots, dtype=np.int64)].copy()

    def set(self, slots: np.ndarray, values: np.ndarray) -> None:
        self._scores[np.asarray(slots, dtype=np.int64)] = np.asarray(values, dtype=np.float64)

    def nbytes(self) -> int:
        return int(self._scores.nbytes)

