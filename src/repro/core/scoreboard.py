"""Access and eviction scoreboards (Section IV-B of the paper).

Two scores drive the prefetch buffer's maintenance:

* the **access score** ``S_A`` counts, for every halo node of the partition,
  how many times it was sampled but missed in the buffer — high ``S_A`` nodes
  are the best replacement candidates;
* the **eviction score** ``S_E`` lives per buffer slot, starts at 1, and is
  multiplied by the decay factor γ every minibatch in which the slot's node
  was not sampled — slots that decay below the threshold α are evicted.

The paper ships two ``S_A`` layouts: a dense ``O(|V|)`` array with O(1)
indexing (fast but memory-hungry for huge graphs) and a memory-efficient
``O(|V_h^p|)`` array addressed by binary search over the sorted halo ids
(used for papers100M).  Both are provided here with an identical interface so
the prefetcher can switch between them via configuration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_1d_int_array, check_positive


def _not_halo(global_ids: np.ndarray) -> KeyError:
    return KeyError(f"nodes {global_ids[:5].tolist()} are not halo nodes of this partition")


class AccessScoreboard:
    """Interface for the S_A scoreboard.

    An empty query returns empty; a non-halo id raises ``KeyError`` naming it.
    """

    def increment(self, global_ids: np.ndarray) -> None:
        raise NotImplementedError

    def get(self, global_ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def set(self, global_ids: np.ndarray, values: np.ndarray) -> None:
        raise NotImplementedError

    def top_candidates(
        self, k: int, exclude: Optional[np.ndarray] = None, degrees: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def nbytes(self) -> int:
        raise NotImplementedError


class DenseAccessScoreboard(AccessScoreboard):
    """``O(|V|)`` dense S_A array: O(1) updates, large memory footprint.

    Only the partition's halo nodes are meaningful entries; the rest of the
    array exists purely to make indexing by global id constant-time, exactly
    as in the paper's standard implementation.
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
            raise _not_halo(global_ids[foreign])
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


class CompactAccessScoreboard(AccessScoreboard):
    """``O(|V_h^p|)`` memory-efficient S_A array addressed by binary search.

    Mirrors the paper's memory-efficient variant: the array only covers the
    partition's halo nodes (sorted by global id) and lookups cost
    ``O(log |V_h^p|)`` via ``searchsorted``.
    """

    def __init__(self, halo_global: np.ndarray):
        self._halo = np.sort(check_1d_int_array(halo_global, "halo_global"))
        self._scores = np.zeros(len(self._halo), dtype=np.float64)

    def _index(self, global_ids: np.ndarray) -> np.ndarray:
        global_ids = check_1d_int_array(global_ids, "global_ids")
        idx = np.minimum(np.searchsorted(self._halo, global_ids), len(self._halo) - 1)
        if len(self._halo) == 0:
            foreign = np.ones(len(global_ids), dtype=bool)
        else:
            foreign = self._halo[idx] != global_ids
        if foreign.any():
            raise _not_halo(global_ids[foreign])
        return idx

    def increment(self, global_ids: np.ndarray) -> None:
        np.add.at(self._scores, self._index(global_ids), 1.0)

    def get(self, global_ids: np.ndarray) -> np.ndarray:
        return self._scores[self._index(global_ids)]

    def set(self, global_ids: np.ndarray, values: np.ndarray) -> None:
        self._scores[self._index(global_ids)] = np.asarray(values, dtype=np.float64)

    def top_candidates(
        self, k: int, exclude: Optional[np.ndarray] = None, degrees: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if k <= 0 or len(self._halo) == 0:
            return np.zeros(0, dtype=np.int64)
        mask = np.ones(len(self._halo), dtype=bool)
        if exclude is not None and len(exclude):
            mask = ~np.isin(self._halo, exclude, assume_unique=False)
        candidates = self._halo[mask]
        scores = self._scores[mask]
        if len(candidates) == 0:
            return np.zeros(0, dtype=np.int64)
        if degrees is not None:
            cand_deg = degrees[candidates].astype(np.float64)
            order = np.lexsort((-cand_deg, -scores))
        else:
            order = np.argsort(-scores, kind="stable")
        return candidates[order[:k]]

    def nbytes(self) -> int:
        return int(self._scores.nbytes + self._halo.nbytes)


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


def make_access_scoreboard(
    kind: str, num_global_nodes: int, halo_global: np.ndarray
) -> AccessScoreboard:
    """Factory for the S_A scoreboard layout (``dense`` or ``compact``)."""
    if kind == "dense":
        return DenseAccessScoreboard(num_global_nodes, halo_global)
    if kind == "compact":
        return CompactAccessScoreboard(halo_global)
    raise ValueError(f"unknown scoreboard kind {kind!r}")
