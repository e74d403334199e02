"""Reference implementations the set-up path's differential tests compare against.

These are the per-node loops ``repro.graph.partition`` and the
``unique`` + ``lexsort`` body ``CSRGraph.from_edges`` used before the set-up
path was vectorised, moved here verbatim: heavy-edge matching that reads NumPy
scalars edge by edge, a contraction with two ``np.unique`` and an
``np.add.at``, region growing that rescans the degree order for every seed,
and a refinement that visits *every* boundary node with one ``np.zeros`` +
``np.add.at`` + ``np.argmax`` each.  The production partitioner must return
the identical ``parts`` array **and** leave the ``Generator`` in the identical
state; the production CSR build must return the identical arrays.

Nothing here imports from ``repro``: graphs go in and out as plain
``indptr`` / ``indices`` arrays.  It is slow and obviously right, which is what
an oracle is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


# --------------------------------------------------------------------------- #
# CSR build
# --------------------------------------------------------------------------- #
def from_edges_oracle(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: Optional[int] = None,
    *,
    symmetrize: bool = False,
    remove_self_loops: bool = False,
    deduplicate: bool = True,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(indptr, indices, num_nodes)`` by ``np.unique(return_index)`` + ``np.lexsort``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if num_nodes is None:
        num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if remove_self_loops and len(src):
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if deduplicate and len(src):
        key = src.astype(np.int64) * np.int64(num_nodes) + dst
        _, unique_idx = np.unique(key, return_index=True)
        src, dst = src[unique_idx], dst[unique_idx]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst.astype(np.int64), int(num_nodes)


# --------------------------------------------------------------------------- #
# Multilevel partitioner
# --------------------------------------------------------------------------- #
@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    indptr: np.ndarray
    indices: np.ndarray
    edge_weights: np.ndarray
    node_weights: np.ndarray
    fine_to_coarse: Optional[np.ndarray] = None  # map from the finer level


def metis_partition_oracle(
    indptr: np.ndarray,
    indices: np.ndarray,
    num_parts: int,
    rng: np.random.Generator,
    *,
    coarsen_until: int = 256,
    max_levels: int = 20,
    refine_passes: int = 4,
    imbalance_tolerance: float = 1.05,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """``(parts, counts)`` of the multilevel partitioner for ``2 <= num_parts <= n``.

    ``counts`` holds ``levels``, ``boundary_nodes``, ``refine_visits`` and
    ``refine_moves``; this refinement visits every boundary node, so
    ``refine_visits == boundary_nodes``.
    """
    num_nodes = len(indptr) - 1
    assert 2 <= num_parts <= num_nodes
    target_size = max(coarsen_until, 8 * num_parts)

    levels: List[_Level] = [
        _Level(
            indptr=np.asarray(indptr, dtype=np.int64).copy(),
            indices=np.asarray(indices, dtype=np.int64).copy(),
            edge_weights=np.ones(len(indices), dtype=np.int64),
            node_weights=np.ones(num_nodes, dtype=np.int64),
        )
    ]
    while len(levels) < max_levels:
        current = levels[-1]
        n = len(current.node_weights)
        if n <= target_size:
            break
        matching = heavy_edge_matching(current, rng)
        coarse, fine_to_coarse = contract(current, matching)
        if len(coarse.node_weights) >= 0.95 * n:
            # Matching stalled (e.g. star graphs); stop coarsening.
            break
        coarse.fine_to_coarse = fine_to_coarse
        levels.append(coarse)

    parts = greedy_region_growing(levels[-1], num_parts, rng)

    counts = {"levels": len(levels), "boundary_nodes": 0, "refine_visits": 0, "refine_moves": 0}
    for level_idx in range(len(levels) - 1, -1, -1):
        parts = refine(
            levels[level_idx], parts, num_parts, refine_passes, imbalance_tolerance, rng, counts
        )
        if level_idx > 0:
            parts = parts[levels[level_idx].fine_to_coarse]
    return parts.astype(np.int64), counts


def heavy_edge_matching(level: _Level, rng: np.random.Generator) -> np.ndarray:
    """Greedy heavy-edge matching; returns match[i] = partner (or i itself)."""
    n = len(level.node_weights)
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    indptr, indices, eweights = level.indptr, level.indices, level.edge_weights
    for u in order:
        if match[u] != -1:
            continue
        start, end = indptr[u], indptr[u + 1]
        best, best_w = -1, -1
        for idx in range(start, end):
            v = indices[idx]
            if v == u or match[v] != -1:
                continue
            w = eweights[idx]
            if w > best_w:
                best, best_w = v, w
        if best >= 0:
            match[u], match[best] = best, u
        else:
            match[u] = u
    unmatched = match == -1
    match[unmatched] = np.nonzero(unmatched)[0]
    return match


def contract(level: _Level, match: np.ndarray) -> Tuple[_Level, np.ndarray]:
    """Contract matched pairs into coarse nodes; aggregate edge/node weights."""
    n = len(level.node_weights)
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    unique_reps, fine_to_coarse = np.unique(rep, return_inverse=True)
    nc = len(unique_reps)
    node_weights = np.zeros(nc, dtype=np.int64)
    np.add.at(node_weights, fine_to_coarse, level.node_weights)

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(level.indptr))
    dst = level.indices
    csrc, cdst = fine_to_coarse[src], fine_to_coarse[dst]
    keep = csrc != cdst
    csrc, cdst, w = csrc[keep], cdst[keep], level.edge_weights[keep]
    if len(csrc):
        key = csrc * np.int64(nc) + cdst
        order = np.argsort(key, kind="stable")
        key, csrc, cdst, w = key[order], csrc[order], cdst[order], w[order]
        unique_key, start_idx = np.unique(key, return_index=True)
        agg_w = np.add.reduceat(w, start_idx)
        csrc, cdst = csrc[start_idx], cdst[start_idx]
        counts = np.bincount(csrc, minlength=nc)
        indptr = np.zeros(nc + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        coarse = _Level(
            indptr=indptr,
            indices=cdst.astype(np.int64),
            edge_weights=agg_w.astype(np.int64),
            node_weights=node_weights,
        )
    else:
        coarse = _Level(
            indptr=np.zeros(nc + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            edge_weights=np.zeros(0, dtype=np.int64),
            node_weights=node_weights,
        )
    return coarse, fine_to_coarse.astype(np.int64)


def greedy_region_growing(
    level: _Level, num_parts: int, rng: np.random.Generator
) -> np.ndarray:
    """Depth-first region growing producing a balanced initial partition."""
    n = len(level.node_weights)
    total_weight = int(level.node_weights.sum())
    target = total_weight / num_parts
    parts = np.full(n, -1, dtype=np.int64)
    indptr, indices = level.indptr, level.indices
    degrees = np.diff(indptr)
    order = np.argsort(-degrees)  # grow from hubs outward
    unassigned = set(range(n))

    for p in range(num_parts):
        weight = 0
        # Seed: highest-degree unassigned node.
        seed_node = next((int(u) for u in order if parts[u] == -1), None)
        if seed_node is None:
            break
        frontier = [seed_node]
        while frontier and weight < target:
            u = frontier.pop()
            if parts[u] != -1:
                continue
            parts[u] = p
            unassigned.discard(u)
            weight += int(level.node_weights[u])
            for v in indices[indptr[u]: indptr[u + 1]]:
                if parts[v] == -1:
                    frontier.append(int(v))
    # Any leftovers go to the lightest partition.
    if unassigned:
        weights = np.zeros(num_parts, dtype=np.int64)
        assigned_mask = parts >= 0
        np.add.at(weights, parts[assigned_mask], level.node_weights[assigned_mask])
        for u in sorted(unassigned):
            p = int(np.argmin(weights))
            parts[u] = p
            weights[p] += int(level.node_weights[u])
    return parts


def refine(
    level: _Level,
    parts: np.ndarray,
    num_parts: int,
    passes: int,
    imbalance_tolerance: float,
    rng: np.random.Generator,
    counts: Dict[str, int],
) -> np.ndarray:
    """Greedy boundary refinement (FM-style single-node moves)."""
    parts = parts.copy()
    n = len(level.node_weights)
    indptr, indices, eweights = level.indptr, level.indices, level.edge_weights
    weights = np.zeros(num_parts, dtype=np.int64)
    np.add.at(weights, parts, level.node_weights)
    max_weight = imbalance_tolerance * level.node_weights.sum() / num_parts

    for _ in range(max(0, passes)):
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        boundary = np.unique(src[parts[src] != parts[indices]])
        if len(boundary) == 0:
            break
        rng.shuffle(boundary)
        counts["boundary_nodes"] += len(boundary)
        moved = 0
        for u in boundary:
            counts["refine_visits"] += 1
            current = parts[u]
            start, end = indptr[u], indptr[u + 1]
            neigh, w = indices[start:end], eweights[start:end]
            gains = np.zeros(num_parts, dtype=np.int64)
            np.add.at(gains, parts[neigh], w)
            internal = gains[current]
            gains[current] = -1  # never "move" to the same partition
            best = int(np.argmax(gains))
            gain = int(gains[best]) - int(internal)
            if gain > 0 and weights[best] + level.node_weights[u] <= max_weight:
                weights[current] -= level.node_weights[u]
                weights[best] += level.node_weights[u]
                parts[u] = best
                moved += 1
        counts["refine_moves"] += moved
        if moved == 0:
            break
    return parts
