"""Synthetic graph generators.

The paper evaluates on four OGB datasets (arxiv, products, reddit, papers100M).
Those graphs are not redistributable inside this offline environment, so this
module provides scaled-down synthetic analogs with the structural properties
the prefetcher is sensitive to:

* heavy-tailed (power-law) degree distributions — the degree-based buffer
  initialization exploits skew, and sampling hot nodes repeatedly is what makes
  caching effective;
* community structure — METIS-style partitioning produces realistic halo-node
  populations only when the graph has locality to exploit;
* class-correlated node features — so that GraphSAGE/GAT training is a real
  learning problem and the "accuracy is unchanged" claim can be checked.

Two families are provided: an R-MAT / Kronecker-style generator (skewed,
weak community structure — resembles citation/product graphs) and a planted
partition (stochastic block model) generator with configurable power-law
degrees (strong communities — resembles reddit).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive


# --------------------------------------------------------------------------- #
# Degree sequences
# --------------------------------------------------------------------------- #
def powerlaw_degree_sequence(
    num_nodes: int,
    avg_degree: float,
    exponent: float = 2.2,
    min_degree: int = 1,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample a power-law degree sequence rescaled to a target average degree.

    The returned sequence always sums to an even number so it can be realized
    by an (approximate) configuration model.
    """
    check_positive(num_nodes, "num_nodes")
    check_positive(avg_degree, "avg_degree")
    if exponent <= 1.0:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    rng = ensure_rng(seed)
    # Draw from a Pareto distribution and rescale to the requested mean.
    raw = (rng.pareto(exponent - 1.0, size=num_nodes) + 1.0) * min_degree
    raw *= avg_degree / raw.mean()
    degrees = np.maximum(min_degree, np.round(raw)).astype(np.int64)
    # Cap the maximum degree to avoid a single node owning most of the edges.
    cap = max(min_degree + 1, int(10 * avg_degree * np.sqrt(num_nodes) / 10))
    degrees = np.minimum(degrees, cap)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(num_nodes))] += 1
    return degrees


# --------------------------------------------------------------------------- #
# R-MAT (Kronecker) generator
# --------------------------------------------------------------------------- #
def rmat_edges(
    scale: int,
    edge_factor: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    noise: float = 0.05,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate R-MAT edges over ``2**scale`` nodes with ``edge_factor`` edges/node.

    ``a, b, c`` are the standard R-MAT quadrant probabilities (``d`` is the
    remainder); Graph500 defaults are used.  A small multiplicative *noise*
    term decorrelates successive bits so the degree distribution is smoother.
    """
    check_positive(scale, "scale")
    check_positive(edge_factor, "edge_factor")
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must not exceed 1")
    rng = ensure_rng(seed)
    num_nodes = 1 << scale
    num_edges = num_nodes * edge_factor
    # Ids are built bit by bit; int32 halves the traffic while they fit.
    dtype = np.int32 if num_nodes - 1 <= np.iinfo(np.int32).max else np.int64
    src = np.zeros(num_edges, dtype=dtype)
    dst = np.zeros(num_edges, dtype=dtype)
    ab = a + b
    down_if_right = c / max(c + d, 1e-12)
    down_if_left = a / max(a + b, 1e-12)
    for bit in range(scale):
        # Per-bit jitter (kept identical across all edges of the bit level for speed).
        jitter = 1.0 + noise * (rng.random() - 0.5)
        r1 = rng.random(num_edges)
        r2 = rng.random(num_edges)
        go_right = r1 >= (ab * jitter)
        go_down = (go_right & (r2 >= down_if_right)) | (~go_right & (r2 >= down_if_left))
        src |= go_right.astype(dtype) << bit
        dst |= go_down.astype(dtype) << bit
    # Random vertex permutation removes the correlation between id and degree.
    perm = rng.permutation(num_nodes)
    return perm[src], perm[dst]


def rmat_graph(
    scale: int,
    edge_factor: int,
    seed: SeedLike = None,
    **kwargs,
) -> CSRGraph:
    """Symmetrized, deduplicated R-MAT graph (see :func:`rmat_edges`)."""
    src, dst = rmat_edges(scale, edge_factor, seed=seed, **kwargs)
    return CSRGraph.from_edges(
        src, dst, num_nodes=1 << scale, symmetrize=True, remove_self_loops=True
    )


# --------------------------------------------------------------------------- #
# Planted-partition (SBM-like) generator with skewed degrees
# --------------------------------------------------------------------------- #
def planted_partition_graph(
    num_nodes: int,
    num_communities: int,
    avg_degree: float,
    intra_fraction: float = 0.8,
    degree_exponent: float = 2.3,
    seed: SeedLike = None,
) -> Tuple[CSRGraph, np.ndarray]:
    """Graph with planted communities and power-law degrees.

    Returns the graph together with the community assignment (used as
    classification labels by the dataset loaders).

    ``intra_fraction`` is the probability that an edge stays inside its source
    node's community; the remainder is wired uniformly across the graph, which
    creates the cross-partition "halo" edges that the prefetcher targets.
    """
    check_positive(num_nodes, "num_nodes")
    check_positive(num_communities, "num_communities")
    check_fraction(intra_fraction, "intra_fraction")
    rng = ensure_rng(seed)
    communities = rng.integers(0, num_communities, size=num_nodes)
    degrees = powerlaw_degree_sequence(
        num_nodes, avg_degree, exponent=degree_exponent, seed=rng
    )
    # Bucket nodes by community for fast intra-community endpoint draws.
    order = np.argsort(communities, kind="stable")
    sorted_comms = communities[order]
    boundaries = np.searchsorted(sorted_comms, np.arange(num_communities + 1))

    total_stubs = int(degrees.sum())
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    rng.shuffle(src)
    src = src[: total_stubs // 2]
    dst = np.empty_like(src)

    intra = rng.random(len(src)) < intra_fraction
    # Intra-community endpoints: uniform within the community of the source.
    comm_of_src = communities[src]
    lo = boundaries[comm_of_src]
    hi = boundaries[comm_of_src + 1]
    span = np.maximum(hi - lo, 1)
    intra_pick = lo + (rng.random(len(src)) * span).astype(np.int64)
    intra_dst = order[np.minimum(intra_pick, hi - 1)]
    # Inter-community endpoints: degree-proportional over the whole graph, so
    # hubs attract cross-partition edges (this is what makes degree-based
    # prefetch initialization effective, mirroring real OGB graphs).
    prob = degrees / degrees.sum()
    inter_dst = _draw_weighted(rng, prob, len(src))
    dst = np.where(intra, intra_dst, inter_dst)

    graph = CSRGraph.from_edges(
        src, dst, num_nodes=num_nodes, symmetrize=True, remove_self_loops=True
    )
    return graph, communities.astype(np.int64)


def _draw_weighted(rng: np.random.Generator, prob: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(prob), size, p=prob)``: the same uniforms and answers.

    NumPy's algorithm is ``cdf = prob.cumsum(); cdf /= cdf[-1]`` and then
    ``cdf.searchsorted(rng.random(size), "right")``; only the search is
    replaced (see :func:`_search_cdf`).  In place of ``choice``'s validation,
    a negative or NaN entry or a zero total raises ``ValueError``.
    """
    cdf = prob.cumsum()
    if not (prob.min() >= 0 and cdf[-1] > 0):
        raise ValueError("probabilities must be non-negative with a positive sum")
    cdf /= cdf[-1]
    return _search_cdf(cdf, rng.random(size))


def _search_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, "right")`` for uniforms in ``[0, 1)``, via a guide table.

    *cdf* is non-decreasing and ends at exactly 1.0.  With ``K`` a power of
    two, ``u * K`` and ``k / K`` are exact, so a uniform in bucket
    ``k = floor(u * K)`` has its answer in ``[g[k], g[k + 1]]`` where ``g`` is
    the search of the bucket edges.  A vectorised bisection over those few
    candidates finishes it; ``K >= 4 * len(cdf)`` keeps most buckets at one.
    The answer is below ``len(cdf)`` because ``u < cdf[-1]``, so no probe
    leaves the array.
    """
    num_buckets = 1 << (4 * len(cdf) - 1).bit_length()
    guide = cdf.searchsorted(np.arange(num_buckets + 1) / num_buckets, "right")
    bucket = (u * num_buckets).astype(np.intp)
    lo = guide[bucket]
    hi = guide[bucket + 1]
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        # A settled lane (lo == hi) probes cdf[lo] > u and stays put.
        mid = (lo + hi) >> 1
        go_up = cdf[mid] <= u
        lo = np.where(go_up, mid + 1, lo)
        hi = np.where(go_up, hi, mid)
    return lo


# --------------------------------------------------------------------------- #
# Features and labels
# --------------------------------------------------------------------------- #
def class_informative_features(
    labels: np.ndarray,
    feature_dim: int,
    noise: float = 1.0,
    informative_fraction: float = 0.5,
    seed: SeedLike = None,
) -> np.ndarray:
    """Gaussian features whose means depend on the node label.

    A fraction of the dimensions carry class signal (per-class mean vectors);
    the rest are pure noise.  This yields a learnable but non-trivial node
    classification task for the GNN models.
    """
    check_positive(feature_dim, "feature_dim")
    check_fraction(informative_fraction, "informative_fraction")
    rng = ensure_rng(seed)
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = int(labels.max()) + 1 if labels.size else 1
    num_informative = max(1, int(feature_dim * informative_fraction))
    class_means = rng.normal(0.0, 1.0, size=(num_classes, num_informative)).astype(np.float32)
    feats = rng.normal(0.0, noise, size=(len(labels), feature_dim)).astype(np.float32)
    feats[:, :num_informative] += class_means[labels]
    return feats


def train_val_test_split(
    num_nodes: int,
    train_fraction: float = 0.6,
    val_fraction: float = 0.2,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random boolean masks for train/val/test node sets."""
    check_fraction(train_fraction, "train_fraction")
    check_fraction(val_fraction, "val_fraction")
    if train_fraction + val_fraction > 1.0:
        raise ValueError("train_fraction + val_fraction must not exceed 1")
    rng = ensure_rng(seed)
    perm = rng.permutation(num_nodes)
    n_train = int(round(train_fraction * num_nodes))
    n_val = int(round(val_fraction * num_nodes))
    train_mask = np.zeros(num_nodes, dtype=bool)
    val_mask = np.zeros(num_nodes, dtype=bool)
    test_mask = np.zeros(num_nodes, dtype=bool)
    train_mask[perm[:n_train]] = True
    val_mask[perm[n_train: n_train + n_val]] = True
    test_mask[perm[n_train + n_val:]] = True
    return train_mask, val_mask, test_mask


def smooth_labels_by_propagation(
    graph: CSRGraph, labels: np.ndarray, rounds: int = 1, seed: SeedLike = None
) -> np.ndarray:
    """Optionally smooth labels by majority vote over neighbors.

    Increases homophily so that message passing genuinely helps classification
    (mirrors the homophilous OGB benchmarks).
    """
    rng = ensure_rng(seed)
    labels = np.asarray(labels, dtype=np.int64).copy()
    num_classes = int(labels.max()) + 1 if labels.size else 1
    for _ in range(max(0, rounds)):
        src, dst = graph.edges()
        counts = np.bincount(
            dst * num_classes + labels[src], minlength=graph.num_nodes * num_classes
        ).reshape(graph.num_nodes, num_classes)
        has_neighbors = counts.sum(axis=1) > 0
        majority = counts.argmax(axis=1)
        # Break ties / keep isolated nodes at their original label.
        labels = np.where(has_neighbors, majority, labels)
        # Perturb a small fraction to keep the task from becoming trivial.
        flip = rng.random(graph.num_nodes) < 0.02
        labels[flip] = rng.integers(0, num_classes, size=int(flip.sum()))
    return labels
