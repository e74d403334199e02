"""Segment operations and initializers for the NumPy GNN layers.

GNN message passing over sampled blocks reduces edge messages onto destination
nodes.  These helpers implement the segment reductions (sum / mean / softmax)
and the softmax backward as a CSR reduce: rows are grouped by segment id
(a :class:`~repro.sampling.block.Block` stores its edges that way and hands
over the offsets as ``indptr``; anything else is read through its stable sort)
and all runs are reduced together, position by position: no ``ufunc.at``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import group_offsets

# CSR offsets of ids that are already grouped (``Block.dst_indptr``); ``None`` = derive them.
Indptr = Optional[np.ndarray]
_TAIL_COST = 4  # what finishing one long run alone costs, in trips of _segment_reduce's walk


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
    (gathers read ``values`` through ``rows``; ``values[rows]`` is never built).
    Entries must sit grouped by ascending segment id: a caller whose ids
    already are passes their CSR offsets as *indptr*, anything else is read
    through its stable sort order.  Runs are stable-sorted longest first, so
    those still open at a position are a prefix: the positions every non-empty
    run has are one ``(positions, runs, ...)`` gather reduced along its leading
    axis, each later position a 2-D ``take`` folded into the accumulator prefix
    in place.  The walk stops where finishing each open run alone (a
    leading-axis reduce seeded by its accumulator row, priced at ``_TAIL_COST``
    trips) is cheaper, so ``trips + tails <= (1 + _TAIL_COST) * sqrt(len(ids))
    + 1``: after ``sqrt(len(ids))`` trips fewer than that many runs are open.
    Every segment is reduced first entry to last.  One-element rows (1-D
    *values*) hold that order to dtype tolerance only: NumPy coalesces unit
    axes and may sum a run unrolled.  (Why not ``ufunc.reduceat``:
    docs/ARCHITECTURE.md.)
    """
    if len(values if rows is None else rows) != len(ids):
        raise ValueError("values (rows, when given) must hold one entry per id")
    if rows is not None and len(rows) and not 0 <= rows.min() <= rows.max() < len(values):
        raise IndexError(f"rows must lie in [0, {len(values)})")
    if indptr is None:
        order, indptr = group_offsets(ids, n)
        if order is not None:
            rows = order if rows is None else rows[order]
    lengths = indptr[1:] - indptr[:-1]
    order = (-lengths).argsort(kind="stable")
    lengths = lengths[order]  # descending: the last one is the smallest
    if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(ids) or (n and lengths[-1] < 0):
        raise ValueError("indptr must hold num_segments + 1 offsets, ascending from 0 to len(ids)")
    k = np.count_nonzero(lengths)
    out = np.full((n,) + values.shape[1:], fill, dtype=values.dtype)
    if k == 0:
        return out
    order, starts = order[:k], indptr[order[:k]]
    shared, longest = int(lengths[k - 1]), int(lengths[0])
    entries = starts + np.arange(shared)[:, None]
    gathered = values.take(entries if rows is None else rows[entries], axis=0)
    acc = ufunc.reduce(gathered, axis=0, dtype=values.dtype)  # NumPy would widen small ints
    if longest > shared:
        # still_open[i]: how many runs (a prefix of the sorted ones) are longer than shared + i.
        still_open = k - np.bincount(lengths[:k]).cumsum()[shared:]
        walked = int(np.argmin(np.arange(len(still_open)) + _TAIL_COST * still_open))
        scratch = np.empty_like(acc[: still_open[0]])
        for position, width in enumerate(still_open[:walked].tolist(), shared):
            entries = starts[:width] + position
            if rows is not None:
                entries = rows[entries]
            # Every index was range-checked above, so "clip" never clips; "raise" would buffer out.
            gathered = values.take(entries, axis=0, out=scratch[:width], mode="clip")
            ufunc(acc[:width], gathered, out=acc[:width])
        for run in range(still_open[walked]):
            tail = slice(starts[run] + shared + walked, starts[run] + lengths[run])
            rest = values[tail if rows is None else rows[tail]]
            acc[run] = ufunc.reduce(np.concatenate((acc[run : run + 1], rest)), axis=0)
    out[order] = acc
    return out


def mean_divisor(ids: np.ndarray, n: int, indptr: Indptr, like: np.ndarray) -> np.ndarray:
    """Entries per segment (empty ones count as 1), shaped to divide *like*: sums, or gradients."""
    counts = np.bincount(ids, minlength=n) if indptr is None else indptr[1:] - indptr[:-1]
    return np.maximum(counts, 1).astype(like.dtype).reshape((-1,) + (1,) * (like.ndim - 1))


def segment_sum(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    indptr: Indptr = None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum *values* rows (of ``values[rows]`` when given) into *num_segments* buckets."""
    return _segment_reduce(np.add, values, segment_ids, num_segments, indptr, 0, rows)


def segment_mean(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    indptr: Indptr = None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Mean of *values* (of ``values[rows]`` when given) per segment; empty segments yield zero rows."""
    sums = segment_sum(values, segment_ids, num_segments, indptr, rows)
    sums /= mean_divisor(segment_ids, num_segments, indptr, values)
    return sums


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
