"""Reference implementation the segment-reduce differential tests compare against.

:func:`segment_reduce` is the per-run-length loop ``repro.nn.tensor_utils``
used until aggregation became position-major, moved here verbatim: all runs
of one length are gathered as one ``(runs, length, ...)`` block and reduced
along the *middle* axis, which NumPy does one row at a time — so every
segment is reduced first entry to last, the order the production kernel must
keep to the bit.  (Rows of a single element are the exception: NumPy
coalesces the unit axes, the middle axis becomes the contiguous one and the
sum is unrolled, so there the two agree to dtype tolerance only.)

It imports nothing from ``repro``; the grouping step that the kernel gets
from ``repro.utils.validation.group_offsets`` is written out below.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def segment_reduce(
    ufunc: np.ufunc,
    values: np.ndarray,
    ids: np.ndarray,
    n: int,
    indptr: Optional[np.ndarray],
    fill: float,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reduce the rows of each segment with *ufunc*, in row order; empty segments give *fill*."""
    if indptr is None:
        order = np.argsort(ids, kind="stable") if np.any(ids[1:] < ids[:-1]) else None
        indptr = np.searchsorted(ids if order is None else ids[order], np.arange(n + 1))
        if indptr[0] != 0 or indptr[-1] != len(ids):
            raise ValueError(f"ids must lie in [0, {n})")
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
