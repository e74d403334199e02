"""Key-value feature store (DistDGL KVStore analog).

Each machine in a DistDGL deployment runs a server process holding the node
features of its partition in a KVStore.  Trainers pull locally owned features
straight from the co-located store (a memory copy) and remotely owned ("halo")
features over RPC from the owning machine's store.

:class:`KVStore` holds one partition's feature rows keyed by **global** node
id (internally a sorted-id + row-matrix layout with ``searchsorted`` lookups),
and counts how many rows and bytes it has served — those counters feed the
Fig. 11 RPC-reduction analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.distributed.cost_model import BYTES_PER_FEATURE
from repro.utils.validation import check_1d_int_array, check_2d_float_array, sorted_lookup


@dataclass
class KVStoreStats:
    """Cumulative service counters for one KVStore."""

    local_pulls: int = 0
    local_rows: int = 0
    remote_pulls: int = 0
    remote_rows: int = 0
    bytes_served_remote: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "local_pulls": self.local_pulls,
            "local_rows": self.local_rows,
            "remote_pulls": self.remote_pulls,
            "remote_rows": self.remote_rows,
            "bytes_served_remote": self.bytes_served_remote,
        }


class KVStore:
    """Feature rows for the nodes owned by one partition."""

    def __init__(self, owned_global: np.ndarray, features: np.ndarray, part_id: int = 0):
        owned_global = check_1d_int_array(owned_global, "owned_global")
        features = check_2d_float_array(features, "features")
        if len(owned_global) != len(features):
            raise ValueError(
                f"owned_global ({len(owned_global)}) and features ({len(features)}) must align"
            )
        order = np.argsort(owned_global)
        self._ids = owned_global[order]
        self._rows = features[order]
        self.part_id = int(part_id)
        self.stats = KVStoreStats()

    # ------------------------------------------------------------------ #
    @property
    def feature_dim(self) -> int:
        return int(self._rows.shape[1])

    def nbytes(self) -> int:
        return int(self._rows.nbytes + self._ids.nbytes)

    def contains(self, global_ids: np.ndarray) -> np.ndarray:
        global_ids = check_1d_int_array(global_ids, "global_ids")
        return sorted_lookup(self._ids, global_ids)[1]

    # ------------------------------------------------------------------ #
    def pull(self, global_ids: np.ndarray, *, remote: bool = False) -> np.ndarray:
        """Fetch feature rows for *global_ids* (all must be owned here).

        ``remote`` marks the pull as served over RPC for accounting purposes.
        Precondition: *global_ids* is a 1-D int64 array — ids are validated
        where they enter the data path (:meth:`FeatureStore.fetch
        <repro.features.store.FeatureStore.fetch>`, the sampler's seeds), not
        at every hop; an id this store does not own still raises ``KeyError``.
        """
        if len(global_ids) == 0:
            return np.zeros((0, self.feature_dim), dtype=np.float32)
        idx, owned = sorted_lookup(self._ids, global_ids)
        if not owned.all():
            raise KeyError(
                f"KVStore for partition {self.part_id} does not own nodes "
                f"{global_ids[~owned][:5].tolist()}"
            )
        rows = self._rows.take(idx, axis=0)
        nbytes = rows.size * BYTES_PER_FEATURE
        if remote:
            self.stats.remote_pulls += 1
            self.stats.remote_rows += len(global_ids)
            self.stats.bytes_served_remote += int(nbytes)
        else:
            self.stats.local_pulls += 1
            self.stats.local_rows += len(global_ids)
        return rows

    def push(self, global_ids: np.ndarray, values: np.ndarray) -> None:
        """Overwrite stored rows (used by tests and by feature-update extensions)."""
        global_ids = check_1d_int_array(global_ids, "global_ids")
        values = check_2d_float_array(values, "values", columns=self.feature_dim)
        idx, owned = sorted_lookup(self._ids, global_ids)
        if not owned.all():
            raise KeyError("push contains node ids not owned by this KVStore")
        self._rows[idx] = values

    def reset_stats(self) -> None:
        self.stats = KVStoreStats()
