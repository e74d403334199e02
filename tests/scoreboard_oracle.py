"""Reference S_A layout the dense scoreboard is tested against.

:class:`CompactAccessScoreboard` is the paper's memory-efficient ``S_A``
layout, moved here from ``repro.core.scoreboard`` when the dense
``O(|V|)`` array became the only layout the prefetcher builds: an
``O(|V_h^p|)`` array over the sorted halo ids, addressed by binary search.
It shares no code with the dense layout, so agreeing with it on values and
``KeyError`` messages is an independent check of
:class:`~repro.core.scoreboard.DenseAccessScoreboard`
(``tests/test_property_scoreboard.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_1d_int_array


class CompactAccessScoreboard:
    """``O(|V_h^p|)`` S_A array addressed by ``searchsorted`` over the halo ids."""

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
            raise KeyError(
                f"nodes {global_ids[foreign][:5].tolist()} are not halo nodes of this partition"
            )
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
