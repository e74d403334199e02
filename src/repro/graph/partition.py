"""Graph partitioning.

DistDGL partitions the input graph offline with METIS before training.  METIS
itself is not available here, so this module implements a multilevel k-way
partitioner with the same three classic phases:

1. **Coarsening** — heavy-edge matching repeatedly contracts matched node
   pairs until the graph is small;
2. **Initial partitioning** — greedy depth-first region growing (the frontier
   is a stack) on the coarsest graph, balancing partition weights;
3. **Uncoarsening + refinement** — partitions are projected back and boundary
   nodes are moved greedily (Fiduccia–Mattheyses style single-node moves) to
   reduce edge cut while respecting a balance constraint.  Each level keeps an
   ``(n, k)`` gain table — the weight every node sends into every part — built
   once and updated along the in-edges of a node that moves, so a pass visits
   only the few percent of boundary nodes that can gain, not all of them.

Random and hash partitioners are provided as baselines; both produce far more
halo nodes than the multilevel partitioner, which is useful in ablation
benchmarks for showing how partition quality interacts with prefetching.

The per-node loops this module used to run are the test oracle
(``tests/partition_oracle.py``): ``parts`` and the RNG stream must match them
exactly, because every simulated metric downstream hangs off the partition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive


@dataclass
class PartitionResult:
    """Assignment of every node to one of ``num_parts`` partitions."""

    parts: np.ndarray
    num_parts: int
    method: str = "metis"
    stats: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.parts = np.asarray(self.parts, dtype=np.int64)
        if self.parts.ndim != 1:
            raise ValueError("parts must be a 1-D array")
        if self.parts.size and (self.parts.min() < 0 or self.parts.max() >= self.num_parts):
            raise ValueError("parts contains out-of-range partition ids")

    def partition_nodes(self, part: int) -> np.ndarray:
        """Global node ids owned by partition *part*."""
        return np.nonzero(self.parts == part)[0].astype(np.int64)

    def sizes(self) -> np.ndarray:
        """Number of nodes per partition."""
        return np.bincount(self.parts, minlength=self.num_parts).astype(np.int64)


# --------------------------------------------------------------------------- #
# Quality metrics
# --------------------------------------------------------------------------- #
def edge_cut(graph: CSRGraph, parts: np.ndarray) -> int:
    """Number of edges whose endpoints live in different partitions."""
    src_parts = np.repeat(parts, np.diff(graph.indptr))
    return int(np.count_nonzero(src_parts != parts[graph.indices]))


def edge_cut_fraction(graph: CSRGraph, parts: np.ndarray) -> float:
    """Edge cut normalized by total edge count."""
    if graph.num_edges == 0:
        return 0.0
    return edge_cut(graph, parts) / graph.num_edges


def balance(parts: np.ndarray, num_parts: int) -> float:
    """Load imbalance: max partition size divided by the ideal size."""
    sizes = np.bincount(parts, minlength=num_parts)
    ideal = len(parts) / num_parts
    return float(sizes.max() / ideal) if ideal > 0 else 1.0


# --------------------------------------------------------------------------- #
# Baseline partitioners
# --------------------------------------------------------------------------- #
def random_partition(graph: CSRGraph, num_parts: int, seed: SeedLike = None) -> PartitionResult:
    """Uniform random assignment with exact balance (block-shuffled)."""
    check_positive(num_parts, "num_parts")
    rng = ensure_rng(seed)
    parts = np.arange(graph.num_nodes, dtype=np.int64) % num_parts
    rng.shuffle(parts)
    return _with_stats(graph, PartitionResult(parts=parts, num_parts=num_parts, method="random"))


def hash_partition(graph: CSRGraph, num_parts: int, seed: SeedLike = None) -> PartitionResult:
    """Deterministic hash (modulo) assignment of node id to partition."""
    check_positive(num_parts, "num_parts")
    salt = 0 if seed is None else (seed if isinstance(seed, int) else 0)
    ids = np.arange(graph.num_nodes, dtype=np.uint64)
    hashed = (ids * np.uint64(2654435761) + np.uint64(salt)) % np.uint64(num_parts)
    result = PartitionResult(parts=hashed.astype(np.int64), num_parts=num_parts, method="hash")
    return _with_stats(graph, result)


def skewed_partition(
    graph: CSRGraph, num_parts: int, seed: SeedLike = None, skew: float = 0.6
) -> PartitionResult:
    """Deliberately imbalanced assignment with geometric partition sizes.

    Partition *p* receives a node share proportional to ``skew**p`` (so with
    the default ``skew=0.6`` and 4 parts the shares are roughly 46/28/17/10%).
    Real deployments hit this when METIS balances by node weight but training
    nodes cluster unevenly; the ``skewed-partitions`` scenario uses it to
    expose straggler epochs — trainers on the big partition process more
    minibatches, and everyone else waits at the allreduce barrier.
    """
    check_positive(num_parts, "num_parts")
    if not (0.0 < skew <= 1.0):
        raise ValueError(f"skew must be in (0, 1], got {skew}")
    rng = ensure_rng(seed)
    shares = np.power(skew, np.arange(num_parts, dtype=np.float64))
    shares /= shares.sum()
    counts = np.floor(shares * graph.num_nodes).astype(np.int64)
    counts[0] += graph.num_nodes - counts.sum()  # remainder to the biggest part
    if np.any(counts <= 0):
        raise ValueError(
            f"cannot split {graph.num_nodes} nodes into {num_parts} partitions "
            f"with skew {skew} (some partition would be empty)"
        )
    order = rng.permutation(graph.num_nodes).astype(np.int64)
    parts = np.empty(graph.num_nodes, dtype=np.int64)
    start = 0
    for p, count in enumerate(counts):
        parts[order[start: start + count]] = p
        start += count
    return _with_stats(graph, PartitionResult(parts=parts, num_parts=num_parts, method="skewed"))


# --------------------------------------------------------------------------- #
# Multilevel (METIS-like) partitioner
# --------------------------------------------------------------------------- #
@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    indptr: np.ndarray
    indices: np.ndarray
    edge_weights: np.ndarray
    node_weights: np.ndarray
    fine_to_coarse: Optional[np.ndarray] = None  # map from the finer level


def metis_partition(
    graph: CSRGraph,
    num_parts: int,
    seed: SeedLike = None,
    *,
    coarsen_until: int = 256,
    max_levels: int = 20,
    refine_passes: int = 4,
    imbalance_tolerance: float = 1.05,
) -> PartitionResult:
    """Multilevel k-way partitioning (METIS-style).

    Parameters
    ----------
    coarsen_until:
        Stop coarsening when the graph has at most this many nodes (scaled up
        to ``8 * num_parts`` when more partitions are requested).
    refine_passes:
        Boundary refinement passes per uncoarsening level.
    imbalance_tolerance:
        Maximum allowed ratio of a partition's weight to the ideal weight
        during refinement moves.
    """
    check_positive(num_parts, "num_parts")
    if num_parts == 1:
        parts = np.zeros(graph.num_nodes, dtype=np.int64)
        return _with_stats(graph, PartitionResult(parts=parts, num_parts=1, method="metis"))
    if num_parts > graph.num_nodes:
        raise ValueError(
            f"cannot split {graph.num_nodes} nodes into {num_parts} partitions"
        )
    rng = ensure_rng(seed)
    target_size = max(coarsen_until, 8 * num_parts)

    # ---------------- Coarsening ----------------
    levels: List[_Level] = [
        _Level(
            indptr=graph.indptr.copy(),
            indices=graph.indices.copy(),
            edge_weights=np.ones(graph.num_edges, dtype=np.int64),
            node_weights=np.ones(graph.num_nodes, dtype=np.int64),
        )
    ]
    while len(levels) < max_levels:
        current = levels[-1]
        n = len(current.node_weights)
        if n <= target_size:
            break
        coarse = _contract(current, _heavy_edge_matching(current, rng))
        if len(coarse.node_weights) >= 0.95 * n:
            # Matching stalled (e.g. star graphs); stop coarsening.
            break
        levels.append(coarse)

    # ---------------- Initial partitioning ----------------
    parts = _greedy_region_growing(levels[-1], num_parts)

    # ---------------- Uncoarsening + refinement ----------------
    counts = {"levels": len(levels), "boundary_nodes": 0, "refine_visits": 0, "refine_moves": 0}
    for level in reversed(levels):
        parts = _refine(level, parts, num_parts, refine_passes, imbalance_tolerance, rng, counts)
        if level.fine_to_coarse is not None:
            parts = parts[level.fine_to_coarse]

    result = PartitionResult(parts=parts, num_parts=num_parts, method="metis")
    return _with_stats(graph, result, **counts)


def partition_graph(
    graph: CSRGraph, num_parts: int, method: str = "metis", seed: SeedLike = None
) -> PartitionResult:
    """Dispatch to a partitioner by name (``metis``, ``random``, ``hash``, ``skewed``)."""
    if method == "metis":
        return metis_partition(graph, num_parts, seed=seed)
    if method == "random":
        return random_partition(graph, num_parts, seed=seed)
    if method == "hash":
        return hash_partition(graph, num_parts, seed=seed)
    if method == "skewed":
        return skewed_partition(graph, num_parts, seed=seed)
    raise ValueError(f"unknown partition method {method!r}")


# --------------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------------- #
def _with_stats(graph: CSRGraph, result: PartitionResult, **counts: int) -> PartitionResult:
    """Attach the quality stats (and the partitioner's own exact-repeat counters)."""
    cut = edge_cut(graph, result.parts)
    result.stats = {
        "edge_cut": float(cut),
        "edge_cut_fraction": cut / graph.num_edges if graph.num_edges else 0.0,
        "balance": balance(result.parts, result.num_parts),
        **counts,
    }
    return result


def _heavy_edge_matching(level: _Level, rng: np.random.Generator) -> np.ndarray:
    """Greedy heavy-edge matching; returns match[i] = partner (or i itself).

    Each node of ``rng.permutation(n)`` that is still unmatched takes its first
    heaviest unmatched neighbour.  The walk is sequential by nature, so it runs
    over plain ints (lists that die with the call), not NumPy scalars.
    """
    n = len(level.node_weights)
    order = rng.permutation(n).tolist()
    indptr, indices = level.indptr.tolist(), level.indices.tolist()
    eweights = level.edge_weights.tolist()
    # When all weights are equal (always at level 0) the first unmatched
    # neighbour is the heaviest: ``w > best_w`` holds once, the scan stops there.
    uniform = not eweights or level.edge_weights.min() == level.edge_weights.max()
    match = [-1] * n
    for u in order:
        if match[u] != -1:
            continue
        best, best_w = -1, -1
        for idx in range(indptr[u], indptr[u + 1]):
            v = indices[idx]
            if v == u or match[v] != -1:
                continue
            if eweights[idx] > best_w:
                best, best_w = v, eweights[idx]
                if uniform:
                    break
        if best >= 0:
            match[u], match[best] = best, u
        else:
            match[u] = u
    return np.array(match, dtype=np.int64)


def _contract(level: _Level, match: np.ndarray) -> _Level:
    """Contract matched pairs into coarse nodes; aggregate edge/node weights."""
    n = len(level.node_weights)
    ids = np.arange(n, dtype=np.int64)
    rep = np.minimum(ids, match)
    # *match* is an involution, so the representatives are exactly the nodes
    # with rep == id; coarse ids number them in ascending order.
    is_rep = rep == ids
    fine_to_coarse = (np.cumsum(is_rep) - 1)[rep]
    nc = int(np.count_nonzero(is_rep))

    csrc = np.repeat(fine_to_coarse, np.diff(level.indptr))
    cdst = fine_to_coarse[level.indices]
    keep = csrc != cdst
    key = csrc[keep] * nc + cdst[keep]
    # Parallel coarse edges become adjacent in key order, which is also the
    # coarse CSR order (as in ``CSRGraph.from_edges``); integer weights sum the
    # same in any order, so the sort need not be stable.
    order = np.argsort(key)
    key, weights = key[order], level.edge_weights[keep][order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[starts]
    return _Level(
        indptr=np.searchsorted(key, np.arange(nc + 1, dtype=np.int64) * nc),
        indices=key % nc,
        edge_weights=np.add.reduceat(weights, starts),
        node_weights=np.bincount(
            fine_to_coarse, weights=level.node_weights, minlength=nc
        ).astype(np.int64),
        fine_to_coarse=fine_to_coarse,
    )


def _greedy_region_growing(level: _Level, num_parts: int) -> np.ndarray:
    """Depth-first region growing producing a balanced initial partition."""
    n = len(level.node_weights)
    node_weights = level.node_weights.tolist()
    target = sum(node_weights) / num_parts
    parts = np.full(n, -1, dtype=np.int64)
    indptr, indices = level.indptr.tolist(), level.indices
    order = np.argsort(-np.diff(level.indptr)).tolist()  # grow from hubs outward
    cursor = 0  # assigned nodes stay assigned, so the seed scan never restarts

    for p in range(num_parts):
        weight = 0
        # Seed: highest-degree unassigned node.
        while cursor < n and parts[order[cursor]] != -1:
            cursor += 1
        if cursor == n:
            break
        frontier = [order[cursor]]
        while frontier and weight < target:
            u = frontier.pop()
            if parts[u] != -1:
                continue
            parts[u] = p
            weight += node_weights[u]
            neigh = indices[indptr[u]: indptr[u + 1]]
            frontier.extend(neigh[parts[neigh] == -1].tolist())
    # Any leftovers go to the lightest partition.
    leftovers = np.flatnonzero(parts == -1)
    if len(leftovers):
        assigned = parts >= 0
        weights = np.bincount(
            parts[assigned], weights=level.node_weights[assigned], minlength=num_parts
        ).astype(np.int64).tolist()
        for u in leftovers.tolist():
            p = weights.index(min(weights))
            parts[u] = p
            weights[p] += node_weights[u]
    return parts


class _GainTable:
    """``gains[u, p]``: weight of *u*'s out-edges into part *p*, kept current as nodes move.

    Built once per level with one ``bincount``.  Moving *v* changes the rows of
    the nodes that point **at** *v*, so the level's in-edges are grouped by
    destination here too (in = out on the symmetric dataset analogs, but the
    partitioner accepts any CSR).
    """

    def __init__(self, level: _Level, parts: np.ndarray, num_parts: int):
        n = len(level.node_weights)
        self.parts = parts
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(level.indptr))
        self.gains = np.bincount(
            src * num_parts + parts[level.indices],
            weights=level.edge_weights,
            minlength=n * num_parts,
        ).astype(np.int64).reshape(n, num_parts)
        self._out_weight = self.gains.sum(axis=1)
        order = np.argsort(level.indices)  # order within a destination is immaterial
        self._in_src, self._in_weights = src[order], level.edge_weights[order]
        self._in_indptr = np.searchsorted(level.indices[order], np.arange(n + 1))

    def boundary(self) -> np.ndarray:
        """Nodes with an out-edge into another part, ascending (edge weights are >= 1)."""
        internal = self.gains[np.arange(len(self.parts)), self.parts]
        return np.flatnonzero(internal < self._out_weight)

    def prefers_another_part(self, nodes: np.ndarray) -> np.ndarray:
        """Mask of *nodes* that send more weight into some other part than into their own."""
        rows, own, index = self.gains[nodes], self.parts[nodes], np.arange(len(nodes))
        internal = rows[index, own]
        rows[index, own] = -1
        return rows.max(axis=1) > internal

    def move(self, node: int, new: int) -> np.ndarray:
        """Reassign *node* to part *new*; returns the in-neighbours whose rows changed."""
        start, end = self._in_indptr[node], self._in_indptr[node + 1]
        sources, weights = self._in_src[start:end], self._in_weights[start:end]
        # ufunc.at, not fancy assignment: a multi-edge lists its source twice.
        np.subtract.at(self.gains[:, self.parts[node]], sources, weights)
        np.add.at(self.gains[:, new], sources, weights)
        self.parts[node] = new
        return sources


def _refine(
    level: _Level,
    parts: np.ndarray,
    num_parts: int,
    passes: int,
    imbalance_tolerance: float,
    rng: np.random.Generator,
    counts: Dict[str, int],
) -> np.ndarray:
    """Greedy boundary refinement (FM-style single-node moves).

    Every pass shuffles the boundary nodes and walks them in that order, moving
    a node to the part it sends most weight to when that beats its internal
    weight and keeps the balance.  Only the nodes for which it does — a few
    percent — are visited: a heap of shuffle positions holds them, and a move
    enqueues the later nodes it just turned into candidates.  Gain and balance
    are evaluated at visit time, so the result is that of visiting everyone.
    """
    node_weights = level.node_weights
    weights = np.bincount(parts, weights=node_weights, minlength=num_parts).astype(np.int64)
    max_weight = imbalance_tolerance * node_weights.sum() / num_parts
    table = _GainTable(level, parts.copy(), num_parts)
    parts = table.parts

    for _ in range(max(0, passes)):
        boundary = table.boundary()
        if len(boundary) == 0:
            break
        rng.shuffle(boundary)
        counts["boundary_nodes"] += len(boundary)
        position = np.full(len(parts), -1, dtype=np.int64)  # place in this pass's order
        position[boundary] = np.arange(len(boundary), dtype=np.int64)
        # Ascending positions are already a valid heap.
        heap = np.flatnonzero(table.prefers_another_part(boundary)).tolist()
        moved, last = 0, -1
        while heap:
            pos = heapq.heappop(heap)
            if pos == last:  # enqueued more than once
                continue
            last = pos
            counts["refine_visits"] += 1
            u = boundary[pos]
            current = parts[u]
            gains = table.gains[u].copy()
            internal = gains[current]
            gains[current] = -1  # never "move" to the same partition
            best = int(np.argmax(gains))
            if gains[best] > internal and weights[best] + node_weights[u] <= max_weight:
                weights[current] -= node_weights[u]
                weights[best] += node_weights[u]
                moved += 1
                touched = table.move(u, best)
                later = touched[position[touched] > pos]
                for candidate in position[later[table.prefers_another_part(later)]].tolist():
                    heapq.heappush(heap, candidate)
        counts["refine_moves"] += moved
        if moved == 0:
            break
    return parts
