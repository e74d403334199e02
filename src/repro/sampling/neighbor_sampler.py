"""Fan-out neighbor sampling (DGL ``NeighborSampler`` analog).

Given seed nodes and a per-layer fan-out list (the paper uses ``{10, 25}`` for
a 2-layer GraphSAGE), the sampler walks the partition's *local* graph structure
outward layer by layer, uniformly sampling at most ``fanout`` neighbors per
node without replacement.  Halo nodes are legitimate sampling targets (their
structure is present locally) but have no outgoing edges in the local CSR, so
the frontier naturally truncates at the partition boundary — the same
behaviour as DistDGL's local sampling with halo nodes.

The sampler is deliberately stochastic and stateless across minibatches: this
non-determinism is exactly why a static cache is insufficient and a scored
prefetch buffer (the paper's contribution) is needed.

There is one implementation, :class:`NeighborSampler` (registry key
``"vectorized"``): a *partial Fisher–Yates* fan-out draw in which a capped
node consumes exactly ``fanout`` uniforms, each selecting the next swap target
of a truncated shuffle, batched across every capped node of a layer.  Its
per-node reference twin lives in ``tests/sampler_oracle.py``; because NumPy
generators consume the stream sequentially, one batched draw is bit-equal to
the oracle's concatenated per-node draws — identical blocks, edge indices and
RNG-stream position (pinned by ``tests/test_sampler_differential.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.halo import GraphPartition
from repro.sampling.block import Block, MiniBatch
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_1d_int_array


def _finalize_layer(
    dst: np.ndarray, sampled_src: np.ndarray, pos_scratch: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Map sampled neighbors onto frontier rows: ``(new_src_nodes, edge_src)``.

    ``pos_scratch`` is a reusable ``num_nodes``-sized array filled with ``-1``
    (restored before returning) giving O(1) node-id -> frontier-row lookups;
    the result equals the sort-based ``setdiff1d``/``searchsorted`` mapping
    the test oracle uses.

    ``dst`` must be unique: the mapping resolves each sampled endpoint to
    *one* row, so a duplicated dst entry would silently attach every edge to
    an arbitrary occurrence and drop the others'.
    :meth:`NeighborSampler.sample` guarantees uniqueness by deduplicating the
    seeds at entry; direct callers get a loud error instead of lost edges.
    """
    rows = np.arange(len(dst), dtype=np.int64)
    pos_scratch[dst] = rows
    if not np.array_equal(pos_scratch[dst], rows):
        pos_scratch[dst] = -1
        raise ValueError(
            "dst contains duplicate nodes; deduplicate the frontier before "
            "sampling (sample() does this for seed batches) — a duplicated "
            "dst row cannot be distinguished by the edge-index mapping"
        )
    # Frontier nodes not already in dst, sorted ascending (deduplicated), are
    # appended after dst — the layout ``setdiff1d(sampled_src, dst)`` gives.
    mapped = pos_scratch[sampled_src]
    new_mask = mapped < 0
    candidates = sampled_src[new_mask]
    if len(pos_scratch) <= 16 * len(candidates):
        # Dense regime (frontier comparable to the graph): idempotent scratch
        # marking + one linear scan beats hashing the much larger edge array.
        pos_scratch[candidates] = -2
        unique_new = np.nonzero(pos_scratch == -2)[0]
    else:
        # Sparse regime (big graph, small batch): stay bounded by the sampled
        # endpoints instead of scanning every node.  Same sorted-unique result.
        unique_new = np.unique(candidates)
    pos_scratch[unique_new] = len(dst) + np.arange(len(unique_new), dtype=np.int64)
    edge_src = mapped
    edge_src[new_mask] = pos_scratch[candidates]
    pos_scratch[dst] = -1
    pos_scratch[unique_new] = -1
    return unique_new, edge_src


class NeighborSampler:
    """Layer-wise uniform neighbor sampler over a local (partition) graph.

    The truncated shuffle runs *in place* on a per-sampler copy of
    ``graph.indices``: all capped nodes (``deg > fanout``) share **one**
    ``rng.random(fanout * num_capped)`` draw (in dst order), and each of the
    ``fanout`` swap rounds exchanges two CSR slots of every capped node at
    once.  Row ``i``'s sample is then the first ``min(deg, fanout)`` slots of
    its CSR segment — untouched for take-all nodes (``deg <= fanout`` or
    ``fanout == -1``, no RNG at all), the swapped prefix for capped ones — read
    by one gather for the whole layer.  Work per capped node is ``O(fanout)``,
    never ``O(deg)``: the ``<= 2 * fanout`` slots a layer swapped are restored
    from ``graph.indices`` before it returns, so the copy equals the graph's
    CSR between calls.

    Parameters
    ----------
    graph:
        CSR structure to sample from.  When sampling for a distributed trainer
        this is ``partition.local_graph`` (local id space).
    fanouts:
        Neighbors to sample per layer, listed from the layer closest to the
        seeds outward (the paper's ``{10, 25}`` means 10 neighbors at layer 1
        and 25 at layer 2).  ``-1`` keeps the full neighborhood.
    seed:
        RNG seed; each trainer uses an independent stream.
    """

    name = "vectorized"

    def __init__(self, graph: CSRGraph, fanouts: Sequence[int], seed: SeedLike = None):
        if not fanouts:
            raise ValueError("fanouts must contain at least one layer")
        for f in fanouts:
            if not isinstance(f, (int, np.integer)) or isinstance(f, bool) or f == 0 or f < -1:
                raise ValueError(f"fanout must be a positive integer or -1 (full), got {f!r}")
        self.graph = graph
        self.fanouts = [int(f) for f in fanouts]
        self.rng = ensure_rng(seed)
        # Scratch arrays, one per sampler so concurrent trainers never share:
        # node-id -> frontier-row lookups for _finalize_layer (kept at -1
        # between calls) and the CSR copy the shuffle swaps in place (kept
        # equal to graph.indices between calls).
        self._pos_scratch = np.full(graph.num_nodes, -1, dtype=np.int64)
        self._indices_scratch = graph.indices.copy()

    # ------------------------------------------------------------------ #
    def sample(
        self,
        seeds: np.ndarray,
        local_to_global: Optional[np.ndarray] = None,
        step: int = 0,
        labels: Optional[np.ndarray] = None,
    ) -> MiniBatch:
        """Sample a minibatch for *seeds* (given in the graph's id space).

        ``local_to_global`` translates sampler ids to global ids for the
        distributed data path; identity is assumed when omitted (single-machine
        sampling over the full graph).

        The seeds are validated here, once; every array of the returned
        blocks is derived from them and the graph's own CSR, so the blocks and
        the minibatch are built with :meth:`Block.trusted` and
        :meth:`MiniBatch.trusted`.
        """
        seeds = check_1d_int_array(seeds, "seeds", max_value=self.graph.num_nodes, allow_empty=False)
        if local_to_global is None:
            local_to_global = np.arange(self.graph.num_nodes, dtype=np.int64)

        blocks: List[Block] = []
        # Repeated seeds in a batch are deduplicated here: each node's sampled
        # neighborhood and label appear once, and every layer's dst frontier is
        # unique — the invariant the edge-index mapping in _finalize_layer
        # depends on (duplicates there would silently drop edges).
        dst = np.unique(seeds)
        seeds_global = dst_global = local_to_global[dst]
        # Sample from the innermost layer (closest to seeds) outward; blocks are
        # then reversed so blocks[0] is the outermost (input) layer.
        for fanout in self.fanouts:
            src_extra, edge_src, edge_dst, dst_indptr = self._sample_one_layer(dst, fanout)
            src = np.concatenate([dst, src_extra])
            src_global = np.concatenate([dst_global, local_to_global[src_extra]])
            blocks.append(
                Block.trusted(src, dst, edge_src, edge_dst, src_global, dst_global, dst_indptr)
            )
            dst, dst_global = src, src_global
        blocks.reverse()

        return MiniBatch.trusted(
            seeds_global=seeds_global,
            blocks=blocks,
            input_local=dst,
            input_global=dst_global,
            labels=labels[seeds_global] if labels is not None else np.zeros(0, dtype=np.int64),
            step=step,
        )

    # ------------------------------------------------------------------ #
    def _sample_one_layer(self, dst: np.ndarray, fanout: int):
        """Sample up to *fanout* in-neighbors for every node in *dst*.

        Returns ``(new_src_nodes, edge_src_index, edge_dst_index, dst_indptr)``
        where the edge indices refer to positions in
        ``concat([dst, new_src_nodes])`` and ``dst`` respectively, edges are
        grouped by ascending dst row, and row ``i`` owns edges
        ``dst_indptr[i]:dst_indptr[i + 1]``.
        """
        indptr, scratch = self.graph.indptr, self._indices_scratch
        n = len(dst)
        starts = indptr[dst]
        degs = indptr[dst + 1] - starts
        if fanout == -1:
            counts, num_capped = degs, 0
        else:
            counts = np.minimum(degs, fanout)
            capped = degs > fanout
            cap_starts, cap_degs = starts[capped], degs[capped]
            num_capped = len(cap_starts)
        dst_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=dst_indptr[1:])
        edge_dst = np.repeat(np.arange(n, dtype=np.int64), counts)

        swapped = None
        if num_capped:
            # The single batched draw: sequential stream consumption makes this
            # equal to the oracle's concatenated per-node rng.random(fanout).
            u = self.rng.random(fanout * num_capped).reshape(num_capped, fanout)
            # Round r swaps CSR slots r and r + floor(u_r * (deg - r)) of each
            # capped node's segment; every round's (pi, pj) pair is computed up
            # front, one row per round.
            rounds = np.arange(fanout, dtype=np.int64)[:, None]
            pi = cap_starts + rounds
            pj = pi + (u.T * (cap_degs - rounds)).astype(np.int64)
            # A swap is one gather and one scatter: slots concat(pi, pj) take
            # the values at concat(pj, pi).  Each node's pair lies inside its
            # own segment, so the scatter never collides across nodes.
            swapped = np.concatenate([pi, pj], axis=1)
            partner = np.concatenate([pj, pi], axis=1)
            for r in range(fanout):
                scratch[swapped[r]] = scratch[partner[r]]
        # Row i's sample is the first counts[i] slots of its CSR segment.
        sampled_src = scratch[
            np.repeat(starts - dst_indptr[:-1], counts) + np.arange(len(edge_dst), dtype=np.int64)
        ]
        if swapped is not None:  # undo the swaps: the next call starts pristine
            scratch[swapped] = self.graph.indices[swapped]

        new_src, edge_src = _finalize_layer(dst, sampled_src, self._pos_scratch)
        return new_src, edge_src, edge_dst, dst_indptr


def sample_for_partition(
    partition: GraphPartition,
    sampler: NeighborSampler,
    seeds_local: np.ndarray,
    step: int = 0,
    labels: Optional[np.ndarray] = None,
) -> MiniBatch:
    """Convenience wrapper: sample on a partition's local graph with global-id mapping."""
    return sampler.sample(
        seeds_local, local_to_global=partition.local_to_global, step=step, labels=labels
    )


def split_local_halo(partition: GraphPartition, minibatch: MiniBatch):
    """Split a minibatch's input nodes into locally owned vs. halo global ids.

    Returns
    -------
    (local_global_ids, halo_global_ids, local_rows, halo_rows):
        Global ids plus the corresponding row positions in the minibatch's
        input feature matrix, so callers can scatter fetched features into the
        right rows.
    """
    is_halo = partition.is_halo_local_id(minibatch.input_local)
    local_rows = np.nonzero(~is_halo)[0].astype(np.int64)
    halo_rows = np.nonzero(is_halo)[0].astype(np.int64)
    return (
        minibatch.input_global[local_rows],
        minibatch.input_global[halo_rows],
        local_rows,
        halo_rows,
    )
