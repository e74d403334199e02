"""Message-flow-graph (MFG) blocks.

DGL represents each GNN layer's computation as a bipartite *block*: messages
flow from ``src`` nodes (the sampled neighborhood frontier) to ``dst`` nodes
(the nodes whose representations are being computed at that layer).  A
minibatch for an L-layer model is a list of L blocks; the input features are
gathered for the src nodes of the **first** (outermost) block, and the final
block's dst nodes are the seed nodes of the minibatch.

Blocks here store node ids in the *local id space of a partition* plus the
corresponding global ids, because the distributed data path needs global ids
(to decide owned vs. halo) while the numeric aggregation needs dense local
row indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.utils.validation import check_1d_int_array, group_offsets


@dataclass
class Block:
    """One bipartite message-passing layer.

    Attributes
    ----------
    src_nodes:
        Local ids of source (input-side) nodes; the first ``len(dst_nodes)``
        entries are the dst nodes themselves (self-loop convention used by
        GraphSAGE's concat of self and neighbor aggregation).
    dst_nodes:
        Local ids of destination (output-side) nodes.
    edge_src / edge_dst:
        Edge endpoints as **row indices** into ``src_nodes`` / ``dst_nodes``.
        **Invariant:** edges are grouped by ascending ``edge_dst`` (CSR order).
        The sampler emits them that way; any other order is stable-sorted
        once at construction, so aggregation only ever sees one.
    src_global / dst_global:
        Global node ids aligned with ``src_nodes`` / ``dst_nodes``.
    dst_indptr:
        Derived: dst row ``i`` owns edges ``dst_indptr[i]:dst_indptr[i + 1]``.
    """

    src_nodes: np.ndarray
    dst_nodes: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    src_global: np.ndarray
    dst_global: np.ndarray
    dst_indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.src_nodes = check_1d_int_array(self.src_nodes, "src_nodes")
        self.dst_nodes = check_1d_int_array(self.dst_nodes, "dst_nodes")
        self.edge_src = check_1d_int_array(self.edge_src, "edge_src", max_value=len(self.src_nodes))
        self.edge_dst = check_1d_int_array(self.edge_dst, "edge_dst", max_value=len(self.dst_nodes))
        self.src_global = check_1d_int_array(self.src_global, "src_global")
        self.dst_global = check_1d_int_array(self.dst_global, "dst_global")
        if len(self.edge_src) != len(self.edge_dst):
            raise ValueError("edge_src and edge_dst must have equal length")
        if len(self.src_global) != len(self.src_nodes):
            raise ValueError("src_global must align with src_nodes")
        if len(self.dst_global) != len(self.dst_nodes):
            raise ValueError("dst_global must align with dst_nodes")
        order, self.dst_indptr = group_offsets(self.edge_dst, self.num_dst)
        if order is not None:
            self.edge_src, self.edge_dst = self.edge_src[order], self.edge_dst[order]

    @classmethod
    def trusted(
        cls,
        src_nodes: np.ndarray,
        dst_nodes: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        src_global: np.ndarray,
        dst_global: np.ndarray,
        dst_indptr: np.ndarray,
    ) -> "Block":
        """A block from arrays its builder derived itself; nothing is checked.

        Precondition — everything the public constructor enforces: 1-D int64
        arrays, non-negative ids, edge endpoints inside ``src_nodes`` /
        ``dst_nodes``, globals aligned with locals, edges grouped by ascending
        ``edge_dst`` with ``dst_indptr`` their CSR offsets.  The sampler
        validates its seeds and derives the rest from the graph's CSR, so its
        blocks satisfy this by construction; anything else goes through
        ``Block(...)``.
        """
        block = object.__new__(cls)
        block.src_nodes, block.dst_nodes = src_nodes, dst_nodes
        block.edge_src, block.edge_dst = edge_src, edge_dst
        block.src_global, block.dst_global = src_global, dst_global
        block.dst_indptr = dst_indptr
        return block

    @property
    def num_src(self) -> int:
        return int(len(self.src_nodes))

    @property
    def num_dst(self) -> int:
        return int(len(self.dst_nodes))

    @property
    def num_edges(self) -> int:
        return int(len(self.edge_src))


@dataclass
class MiniBatch:
    """A sampled minibatch: seeds + a list of blocks (outermost first).

    ``input_global`` are the global ids whose features must be gathered before
    the forward pass can run — this is precisely the set the distributed data
    path must assemble from local KVStore lookups and remote RPC pulls.
    """

    seeds_global: np.ndarray
    blocks: List[Block]
    input_local: np.ndarray
    input_global: np.ndarray
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    step: int = 0

    def __post_init__(self) -> None:
        self.seeds_global = check_1d_int_array(self.seeds_global, "seeds_global")
        self.input_local = check_1d_int_array(self.input_local, "input_local")
        self.input_global = check_1d_int_array(self.input_global, "input_global")
        if len(self.input_local) != len(self.input_global):
            raise ValueError("input_local and input_global must align")

    @classmethod
    def trusted(
        cls,
        seeds_global: np.ndarray,
        blocks: List[Block],
        input_local: np.ndarray,
        input_global: np.ndarray,
        labels: np.ndarray,
        step: int,
    ) -> "MiniBatch":
        """A minibatch from arrays its builder derived itself; nothing is checked.

        Precondition — everything the public constructor enforces: 1-D int64
        arrays, non-negative ids, ``input_local`` aligned with
        ``input_global``.  The sampler's are the first layer's ``src_nodes`` /
        ``src_global`` of a trusted :class:`Block`, so they satisfy this by
        construction; anything else goes through ``MiniBatch(...)``.
        """
        batch = object.__new__(cls)
        batch.seeds_global, batch.blocks = seeds_global, blocks
        batch.input_local, batch.input_global = input_local, input_global
        batch.labels, batch.step = labels, step
        return batch

    @property
    def num_input_nodes(self) -> int:
        return int(len(self.input_global))

    def total_edges(self) -> int:
        """Total message edges across all layers (drives sampling cost)."""
        return int(sum(b.num_edges for b in self.blocks))
