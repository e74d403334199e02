"""Reference implementation the sampler differential tests compare against.

:class:`LoopNeighborSampler` is the partial Fisher–Yates fan-out draw written
the way its definition reads: one node at a time, one swap at a time.  A
capped node with degree ``deg`` consumes exactly ``fanout`` uniform doubles —
swap round *i* exchanges positions ``i`` and ``i + floor(u_i * (deg - i))`` of
its neighbor list, and the first ``fanout`` positions are the sample.  NumPy
generators fill arrays sequentially, so the production sampler's one batched
draw per layer must equal this loop's concatenated per-node draws bit for
bit: same blocks, same edge indices, same RNG-stream position.

It shares no code with :mod:`repro.sampling.neighbor_sampler`: frontier rows
are mapped with ``setdiff1d``/``searchsorted`` instead of the scratch array,
and every block goes through the *public*, validating ``Block``/``MiniBatch``
constructors — so it also checks the production sampler's trusted ``Block``
constructor field for field, ``dst_indptr`` included.  It is slow and
obviously right, which is what an oracle is for.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.block import Block, MiniBatch
from repro.utils.rng import SeedLike, ensure_rng


class LoopNeighborSampler:
    """Per-node, per-swap oracle for :class:`~repro.sampling.neighbor_sampler.NeighborSampler`."""

    def __init__(self, graph: CSRGraph, fanouts: Sequence[int], seed: SeedLike = None):
        self.graph = graph
        self.fanouts = [int(f) for f in fanouts]
        self.rng = ensure_rng(seed)

    def sample(
        self,
        seeds: np.ndarray,
        local_to_global: Optional[np.ndarray] = None,
        step: int = 0,
        labels: Optional[np.ndarray] = None,
    ) -> MiniBatch:
        if local_to_global is None:
            local_to_global = np.arange(self.graph.num_nodes, dtype=np.int64)
        seed_nodes = np.unique(np.asarray(seeds, dtype=np.int64))
        blocks: List[Block] = []
        dst = seed_nodes
        for fanout in self.fanouts:
            sampled_src, edge_dst = self._draw_layer(dst, fanout)
            src = np.concatenate([dst, np.setdiff1d(sampled_src, dst)])
            by_id = np.argsort(src, kind="stable")
            edge_src = by_id[np.searchsorted(src[by_id], sampled_src)]
            blocks.append(
                Block(
                    src_nodes=src,
                    dst_nodes=dst,
                    edge_src=edge_src,
                    edge_dst=edge_dst,
                    src_global=local_to_global[src],
                    dst_global=local_to_global[dst],
                )
            )
            dst = src
        blocks.reverse()
        return MiniBatch(
            seeds_global=local_to_global[seed_nodes],
            blocks=blocks,
            input_local=blocks[0].src_nodes,
            input_global=local_to_global[blocks[0].src_nodes],
            labels=(
                labels[local_to_global[seed_nodes]]
                if labels is not None
                else np.zeros(0, dtype=np.int64)
            ),
            step=step,
        )

    def _draw_layer(self, dst: np.ndarray, fanout: int):
        """``(sampled neighbor ids, dst row of each)``, dst row by dst row."""
        indptr, indices = self.graph.indptr, self.graph.indices
        sampled: List[int] = []
        rows: List[int] = []
        for row, node in enumerate(dst):
            neigh = indices[indptr[node]: indptr[node + 1]]
            deg = len(neigh)
            if fanout == -1 or deg <= fanout:
                chosen = list(neigh)
            else:
                u = self.rng.random(fanout)
                arr = neigh.copy()
                for r in range(fanout):
                    j = r + int(u[r] * (deg - r))
                    arr[r], arr[j] = arr[j], arr[r]
                chosen = list(arr[:fanout])
            sampled.extend(chosen)
            rows.extend([row] * len(chosen))
        return np.array(sampled, dtype=np.int64), np.array(rows, dtype=np.int64)
