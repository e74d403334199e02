"""Per-partition local graph construction with halo nodes.

DistDGL's first level of partitioning stores, for every partition *p*, an
induced subgraph over the nodes owned by *p* **plus** the one-hop "halo"
(remotely owned) neighbors of those nodes.  Halo nodes appear in the local
structure so that samplers can walk one hop off-partition, but their features
live on the remote owner's KVStore — fetching them is exactly the RPC traffic
MassiveGNN's prefetcher eliminates.

:class:`GraphPartition` packages the local CSR structure and the partition's
one id map: two ascending global-id tables, ``owned_global`` and
``halo_global`` (with ``halo_owner`` aligned to it).  Every owner and
membership question — which KVStore serves a halo row, is this id known
here — is a :func:`~repro.utils.validation.sorted_lookup` over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import PartitionResult
from repro.utils.validation import check_1d_int_array, sorted_lookup


@dataclass
class GraphPartition:
    """Local view of one partition (owned nodes + halo)."""

    part_id: int
    owned_global: np.ndarray          # global ids owned here, ascending
    halo_global: np.ndarray           # global ids of halo (remote) nodes, ascending
    halo_owner: np.ndarray            # owning partition of each halo node
    local_graph: CSRGraph             # CSR over local ids [owned ... halo]
    local_to_global: np.ndarray       # local id -> global id
    global_degrees: np.ndarray        # global degree of every local node (owned+halo)

    @property
    def num_owned(self) -> int:
        return int(len(self.owned_global))

    @property
    def num_halo(self) -> int:
        return int(len(self.halo_global))

    def is_halo_local_id(self, local_ids: np.ndarray) -> np.ndarray:
        """Mask of local ids that refer to halo nodes."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        return local_ids >= self.num_owned

    def contains(self, global_ids: np.ndarray) -> np.ndarray:
        """Mask of which global ids exist in this partition (owned or halo)."""
        global_ids = check_1d_int_array(global_ids, "global_ids")
        _, owned = sorted_lookup(self.owned_global, global_ids)
        _, halo = sorted_lookup(self.halo_global, global_ids)
        return owned | halo

    def halo_degrees(self) -> np.ndarray:
        """Global degrees of the halo nodes (used for degree-based prefetching)."""
        return self.global_degrees[self.num_owned:]

    def halo_degree_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Global degree of each id that is a halo node here; any other id reports 0."""
        idx, match = sorted_lookup(self.halo_global, global_ids)
        out = np.zeros(len(global_ids), dtype=np.int64)
        out[match] = self.halo_degrees()[idx[match]]
        return out

    def halo_distance_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Hop distance from the partition boundary (a cache scorer's feature).

        Partitions only materialize 1-hop halos, so members of the halo table
        sit at distance 1 and anything else (ids seen only through multi-hop
        fanout) reports distance 2 — far enough that a ``1/distance`` feature
        ranks them below every direct halo neighbor.
        """
        _, match = sorted_lookup(self.halo_global, global_ids)
        out = np.full(len(global_ids), 2, dtype=np.int64)
        out[match] = 1
        return out

    def halo_owners_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Owning partition of each halo id, validating membership.

        Ids that are not halo neighbors of this partition have no entry in the
        halo tables; a blind ``searchsorted`` would silently route them to a
        wrong owner (whose KVStore would then reject or — worse — a clipped
        lookup would serve the wrong row), so they raise ``KeyError`` instead.
        """
        global_ids = check_1d_int_array(global_ids, "global_ids")
        idx, valid = sorted_lookup(self.halo_global, global_ids)
        if not np.all(valid):
            missing = global_ids[~valid][:5]
            raise KeyError(
                f"nodes {missing.tolist()} are not halo neighbors of partition "
                f"{self.part_id}; cannot resolve their owners"
            )
        return self.halo_owner[idx]

    def __post_init__(self) -> None:
        self.owned_global = np.asarray(self.owned_global, dtype=np.int64)
        self.halo_global = np.asarray(self.halo_global, dtype=np.int64)
        self.halo_owner = np.asarray(self.halo_owner, dtype=np.int64)
        self.local_to_global = np.asarray(self.local_to_global, dtype=np.int64)
        # Every lookup above is a binary search: an unsorted table would
        # answer some ids and silently miss others.
        for name in ("owned_global", "halo_global"):
            if np.any(np.diff(getattr(self, name)) <= 0):
                raise ValueError(f"{name} must be strictly ascending")


def build_partitions(graph: CSRGraph, result: PartitionResult) -> List[GraphPartition]:
    """Materialize :class:`GraphPartition` objects for every partition.

    The local graph of partition *p* contains every edge whose **source** is
    owned by *p*; destinations may be owned or halo.  Halo nodes have no
    outgoing edges in the local structure (their neighborhoods live on the
    owning partition), matching DistDGL's local sampling behaviour.
    """
    parts = result.parts
    global_degrees = graph.out_degree()
    src_all, dst_all = graph.edges()
    partitions: List[GraphPartition] = []

    for p in range(result.num_parts):
        owned = result.partition_nodes(p)
        owned_mask = parts == p
        edge_mask = owned_mask[src_all]
        src, dst = src_all[edge_mask], dst_all[edge_mask]
        halo_mark = np.zeros(graph.num_nodes, dtype=bool)
        halo_mark[dst] = True
        halo_mark &= ~owned_mask
        halo = np.flatnonzero(halo_mark)
        local_order = np.concatenate([owned, halo])
        global_to_local = np.full(graph.num_nodes, -1, dtype=np.int64)
        global_to_local[local_order] = np.arange(len(local_order), dtype=np.int64)
        local_graph = CSRGraph.from_edges(
            global_to_local[src],
            global_to_local[dst],
            num_nodes=len(local_order),
            deduplicate=False,
        )
        partition = GraphPartition(
            part_id=p,
            owned_global=owned,
            halo_global=halo,
            halo_owner=parts[halo] if len(halo) else np.zeros(0, dtype=np.int64),
            local_graph=local_graph,
            local_to_global=local_order,
            global_degrees=global_degrees[local_order],
        )
        partitions.append(partition)
    return partitions
