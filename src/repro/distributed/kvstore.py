"""Key-value feature store (DistDGL KVStore analog).

Each machine in a DistDGL deployment runs a server process holding the node
features of its partition in a KVStore.  Trainers pull locally owned features
straight from the co-located store (a memory copy) and remotely owned ("halo")
features over RPC from the owning machine's store.

:class:`KVStore` holds one partition's feature rows keyed by **global** node
id (internally a sorted-id + row-matrix layout with ``searchsorted`` lookups).
What crosses the network is counted by the trainer's RPC channel
(:class:`~repro.distributed.rpc.RPCStats`), not here.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_1d_int_array, check_2d_float_array, sorted_lookup


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

    # ------------------------------------------------------------------ #
    @property
    def feature_dim(self) -> int:
        return int(self._rows.shape[1])

    def nbytes(self) -> int:
        return int(self._rows.nbytes + self._ids.nbytes)

    # ------------------------------------------------------------------ #
    def pull(self, global_ids: np.ndarray) -> np.ndarray:
        """Fetch feature rows for *global_ids* (all must be owned here).

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
        return self._rows.take(idx, axis=0)
