"""Segment operations and initializers for the NumPy GNN layers.

GNN message passing over sampled blocks reduces edge messages onto destination
nodes.  These helpers implement the segment reductions (sum / mean / softmax)
and their backward passes as a CSR reduce: rows are grouped by segment id
(a :class:`~repro.sampling.block.Block` stores its edges that way and hands
over the offsets as ``indptr``; anything else is stable-sorted here) and each
contiguous run is reduced in order: no Python edge loop, no ``ufunc.at``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import group_offsets

# CSR offsets of ids that are already grouped (``Block.dst_indptr``); ``None`` = derive them.
Indptr = Optional[np.ndarray]


# --------------------------------------------------------------------------- #
# Initializers
# --------------------------------------------------------------------------- #
def xavier_uniform(shape: Tuple[int, ...], seed: SeedLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    rng = ensure_rng(seed)
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


# --------------------------------------------------------------------------- #
# Segment reductions
# --------------------------------------------------------------------------- #
def _segment_reduce(
    ufunc: np.ufunc,
    values: np.ndarray,
    ids: np.ndarray,
    n: int,
    indptr: Indptr,
    fill: float,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reduce the rows of each segment with *ufunc*, in row order; empty segments give *fill*.

    Entry ``i`` is ``values[i]``, or ``values[rows[i]]`` when *rows* is given
    (the per-run gather below then reads ``values`` through ``rows``, so the
    ``values[rows]`` matrix is never materialized).  Entries must sit grouped
    by ascending segment id: a caller whose ids already are passes their CSR
    offsets as *indptr*, anything else is stable-sorted here.  All runs of one
    length are then reduced together as one ``(runs, length, ...)`` gather;
    fan-out sampling leaves few distinct lengths, and there can never be more
    than ``sqrt(2 * len(ids))``.  (``ufunc.reduceat`` is slower: it walks 2-D
    values column by column and aliases cache sets on power-of-two widths;
    numbers in docs/ARCHITECTURE.md.)
    """
    if indptr is None:
        order, indptr = group_offsets(ids, n)
        if order is not None:
            if rows is None:
                values = values[order]
            else:
                rows = rows[order]
    elif len(indptr) != n + 1 or indptr[-1] != len(ids):
        raise ValueError("indptr must hold num_segments + 1 offsets ending at len(ids)")
    lengths = indptr[1:] - indptr[:-1]
    out = np.full((n,) + values.shape[1:], fill, dtype=values.dtype)
    for length in np.bincount(lengths)[1:].nonzero()[0] + 1:
        runs = (lengths == length).nonzero()[0]
        entries = indptr[runs, None] + np.arange(length)
        out[runs] = ufunc.reduce(values[entries if rows is None else rows[entries]], axis=1)
    return out


def _mean_divisor(ids: np.ndarray, n: int, indptr: Indptr, like: np.ndarray) -> np.ndarray:
    """Entries per segment (empty segments count as 1), shaped to divide *like*."""
    counts = np.bincount(ids, minlength=n) if indptr is None else indptr[1:] - indptr[:-1]
    return np.maximum(counts, 1).astype(like.dtype).reshape((-1,) + (1,) * (like.ndim - 1))


def segment_sum(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int, indptr: Indptr = None
) -> np.ndarray:
    """Sum *values* rows into *num_segments* buckets given by *segment_ids*."""
    return _segment_reduce(np.add, values, segment_ids, num_segments, indptr, 0)


def segment_mean(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    indptr: Indptr = None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Mean of *values* (of ``values[rows]`` when given) per segment; empty segments yield zero rows."""
    sums = _segment_reduce(np.add, values, segment_ids, num_segments, indptr, 0, rows)
    return sums / _mean_divisor(segment_ids, num_segments, indptr, values)


def segment_mean_backward(
    grad_out: np.ndarray, segment_ids: np.ndarray, num_segments: int, indptr: Indptr = None
) -> np.ndarray:
    """Backward of :func:`segment_mean`: distribute gradient / count to each entry."""
    return (grad_out / _mean_divisor(segment_ids, num_segments, indptr, grad_out))[segment_ids]


def segment_softmax(
    scores: np.ndarray, segment_ids: np.ndarray, num_segments: int, indptr: Indptr = None
) -> np.ndarray:
    """Numerically stable softmax of *scores* within each segment.

    ``scores`` has shape ``(num_edges, ...)``; the softmax normalizes over all
    edges sharing a segment id, independently per trailing dimension.
    """
    if len(scores) == 0:
        return scores.copy()
    seg_max = _segment_reduce(np.maximum, scores, segment_ids, num_segments, indptr, -np.inf)
    shifted = scores - seg_max[segment_ids]
    exp = np.exp(shifted)
    denom = segment_sum(exp, segment_ids, num_segments, indptr)
    denom = np.maximum(denom, np.finfo(scores.dtype).tiny)
    return exp / denom[segment_ids]


def segment_softmax_backward(
    grad_alpha: np.ndarray,
    alpha: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    indptr: Indptr = None,
) -> np.ndarray:
    """Backward of :func:`segment_softmax`.

    ``d_score = alpha * (d_alpha - sum_seg(alpha * d_alpha))``.
    """
    weighted = alpha * grad_alpha
    seg_dot = segment_sum(weighted, segment_ids, num_segments, indptr)
    return alpha * (grad_alpha - seg_dot[segment_ids])


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad: np.ndarray, pre_activation: np.ndarray) -> np.ndarray:
    return grad * (pre_activation > 0)


def leaky_relu(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def leaky_relu_backward(grad: np.ndarray, pre_activation: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return grad * np.where(pre_activation > 0, 1.0, slope)


def identity(x: np.ndarray) -> np.ndarray:
    return x


ACTIVATIONS = {
    "relu": (relu, relu_backward),
    "none": (identity, lambda grad, pre: grad),
}
