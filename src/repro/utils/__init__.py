"""Shared utilities: RNG handling, validation helpers, and ASCII tables."""

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_1d_int_array,
    check_fraction,
    check_positive,
)

__all__ = [
    "ensure_rng",
    "check_1d_int_array",
    "check_fraction",
    "check_positive",
]
