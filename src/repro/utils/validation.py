"""Input validation helpers used across the library.

The distributed-training code paths move a lot of integer index arrays around
(global node ids, local ids, halo ids).  Validating shapes and dtypes at module
boundaries keeps errors close to their source instead of surfacing as cryptic
NumPy broadcasting failures deep inside the simulation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]


def check_positive(value: Number, name: str, *, allow_zero: bool = False) -> Number:
    """Require a (strictly) positive scalar."""
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    else:
        if value <= 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_duration(value: float, name: str) -> float:
    """Require a finite, non-negative time in seconds (NaN fails every comparison)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def check_fraction(value: float, name: str, *, inclusive_low: bool = True,
                   inclusive_high: bool = True) -> float:
    """Require ``value`` to be a fraction in [0, 1] (bounds configurable)."""
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        raise ValueError(f"{name} must lie in the unit interval, got {value!r}")
    return float(value)


def check_1d_int_array(
    array: Union[np.ndarray, Sequence[int]],
    name: str,
    *,
    max_value: Optional[int] = None,
    allow_empty: bool = True,
) -> np.ndarray:
    """Coerce *array* to a 1-D int64 NumPy array and validate its range."""
    arr = np.asarray(array)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        if not allow_empty:
            raise ValueError(f"{name} must not be empty")
        return arr.astype(np.int64)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise TypeError(f"{name} must be an integer array, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0:
        raise ValueError(f"{name} contains negative indices")
    if max_value is not None and arr.max() >= max_value:
        raise ValueError(
            f"{name} contains index {int(arr.max())} >= allowed maximum {max_value}"
        )
    return arr


def group_offsets(ids: np.ndarray, n: int) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Group rows by ascending id in ``[0, n)``: ``(order, indptr)``.

    *order* is the stable sort that groups them (``None`` if they already
    are); afterwards the rows of id ``i`` are ``indptr[i]:indptr[i + 1]``.
    """
    order = np.argsort(ids, kind="stable") if np.any(ids[1:] < ids[:-1]) else None
    indptr = np.searchsorted(ids if order is None else ids[order], np.arange(n + 1))
    if indptr[0] != 0 or indptr[-1] != len(ids):
        raise ValueError(f"ids must lie in [0, {n})")
    return order, indptr


def sorted_lookup(sorted_ids: np.ndarray, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(position, found)`` of each *query* id in ascending *sorted_ids*, in
    one ``searchsorted`` + ``take`` pass; a position means nothing where not found."""
    idx = sorted_ids.searchsorted(query)
    if len(sorted_ids) == 0:  # take(mode="clip") cannot read an empty array
        return idx, np.zeros(len(query), dtype=bool)
    return idx, sorted_ids.take(idx, mode="clip") == query


def check_2d_float_array(array: np.ndarray, name: str, *, columns: Optional[int] = None) -> np.ndarray:
    """Coerce *array* to a 2-D float32 array, optionally checking column count."""
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if columns is not None and arr.shape[1] != columns:
        raise ValueError(f"{name} must have {columns} columns, got {arr.shape[1]}")
    return arr
