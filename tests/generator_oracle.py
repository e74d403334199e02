"""Reference implementations the dataset-analog differential tests compare against.

These are the bodies the set-up path's generators used before they were
rewritten to make fewer passes over memory, kept here as they were (the
induced subgraph with ``CSRGraph.from_edges``' key sort inlined): the R-MAT bit
loop that picks each edge's row half with ``np.where`` over two bool arrays and
ors int64 bits, the degree-proportional endpoint draw through
``rng.choice(n, size, p=prob)``, the induced subgraph that decodes every edge
and re-sorts the kept ones, and the halo of a partition as ``np.unique`` over
the non-owned destinations.  The production code must return the identical
arrays and dtypes **and** leave the ``Generator`` at the identical position.

Nothing here imports from ``repro``: graphs go in and out as plain
``indptr`` / ``indices`` arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def rmat_edges_oracle(
    scale: int,
    edge_factor: int,
    a: float,
    b: float,
    c: float,
    rng: np.random.Generator,
    noise: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """R-MAT edges over ``2**scale`` nodes, one int64 pass per bit and array."""
    d = 1.0 - a - b - c
    num_nodes = 1 << scale
    num_edges = num_nodes * edge_factor
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    ab = a + b
    for bit in range(scale):
        jitter = 1.0 + noise * (rng.random() - 0.5)
        r1 = rng.random(num_edges)
        r2 = rng.random(num_edges)
        go_right = r1 >= (ab * jitter)
        go_down = np.where(
            go_right,
            r2 >= (c / max(c + d, 1e-12)),
            r2 >= (a / max(a + b, 1e-12)),
        )
        src |= (go_right.astype(np.int64) << bit)
        dst |= (go_down.astype(np.int64) << bit)
    perm = rng.permutation(num_nodes)
    return perm[src], perm[dst]


def draw_weighted_oracle(rng: np.random.Generator, prob: np.ndarray, size: int) -> np.ndarray:
    """``size`` ids drawn with probability *prob*, through NumPy's ``choice``."""
    return rng.choice(len(prob), size=size, p=prob)


def induced_subgraph_oracle(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the subgraph induced by *nodes* (local ids in
    the order given): decode every edge, keep both-ends-kept, sort by key."""
    num_nodes = len(indptr) - 1
    mask = np.full(num_nodes, -1, dtype=np.int64)
    mask[nodes] = np.arange(len(nodes), dtype=np.int64)
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
    dst = indices
    keep = (mask[src] >= 0) & (mask[dst] >= 0)
    m = len(nodes)
    key = mask[src[keep]] * m + mask[dst[keep]]
    key.sort()
    sub_indptr = np.searchsorted(key, np.arange(m + 1, dtype=np.int64) * m)
    return sub_indptr, key % m if m else key


def halo_oracle(
    indptr: np.ndarray, indices: np.ndarray, parts: np.ndarray, part: int
) -> np.ndarray:
    """Ascending non-owned destinations of the edges partition *part* owns."""
    num_nodes = len(indptr) - 1
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
    owned_mask = parts == part
    dst = indices[owned_mask[src]]
    return np.unique(dst[~owned_mask[dst]])
