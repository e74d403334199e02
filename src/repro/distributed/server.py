"""Partition servers: one KVStore-backed server per machine (DistDGL style).

DistDGL runs one server process per machine that owns a partition's graph
structure and node features.  :class:`PartitionServer` is the simulated
equivalent — it wraps the partition's :class:`~repro.distributed.kvstore.KVStore`
and exposes the queries a trainer needs (feature pulls, degree lookups for
prefetch initialization, label pulls for loss computation).

Under elastic membership a partition can outlive its home machine: when every
trainer on a machine leaves, the partition is adopted by a surviving machine.
``host_machine`` tracks the current host (initially the partition id itself)
and :meth:`re_register` re-points it — ownership stays a lookup that can be
re-pointed at runtime, with the row movement costed by the engine.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.distributed.kvstore import KVStore
from repro.graph.halo import GraphPartition
from repro.utils.validation import check_1d_int_array


class PartitionServer:
    """Server process analog for one graph partition."""

    def __init__(
        self,
        partition: GraphPartition,
        features: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ):
        self.partition = partition
        self.part_id = partition.part_id
        self.kvstore = KVStore(
            owned_global=partition.owned_global,
            features=features[partition.owned_global],
            part_id=partition.part_id,
        )
        self._labels = labels
        self.host_machine = partition.part_id
        self.migrations = 0

    # ------------------------------------------------------------------ #
    @property
    def num_owned(self) -> int:
        return self.partition.num_owned

    @property
    def feature_dim(self) -> int:
        return self.kvstore.feature_dim

    def pull_features(self, global_ids: np.ndarray, *, remote: bool = False) -> np.ndarray:
        """Feature rows for owned *global_ids* (delegates to the KVStore)."""
        return self.kvstore.pull(global_ids, remote=remote)

    def pull_labels(self, global_ids: np.ndarray) -> np.ndarray:
        """Labels for owned nodes (trainers only need labels of their seeds)."""
        if self._labels is None:
            raise RuntimeError("server was constructed without labels")
        global_ids = check_1d_int_array(global_ids, "global_ids")
        return self._labels[global_ids]

    def node_degrees(self, global_ids: np.ndarray) -> np.ndarray:
        """Global degrees for nodes present in this partition (owned or halo)."""
        local = self.partition.local_ids(global_ids)
        return self.partition.global_degrees[local]

    def re_register(self, new_host: int) -> None:
        """Re-point this partition at a new host machine (elastic adoption)."""
        new_host = int(new_host)
        if new_host < 0:
            raise ValueError(f"host machine must be >= 0, got {new_host}")
        self.host_machine = new_host
        self.migrations += 1

    def stats(self) -> Dict[str, int]:
        return self.kvstore.stats.as_dict()

    def reset_stats(self) -> None:
        self.kvstore.reset_stats()
