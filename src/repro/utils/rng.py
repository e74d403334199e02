"""Random number generator helpers.

All stochastic components in the library (graph generators, samplers,
partitioners, model initialization) accept either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``.  These helpers normalize that
input and derive independent child generators for parallel workers so that
simulated trainers remain reproducible and decorrelated.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` seed, an existing
        ``Generator`` (returned unchanged), or a ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive *count* independent generators from a single seed.

    Used to give each simulated trainer / sampler its own stream so that the
    per-trainer sampling order does not depend on the number of trainers
    iterating concurrently.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by jumping the underlying bit generator state.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_seed(seed: SeedLike, *salts: Iterable[int]) -> int:
    """Deterministically derive an integer seed from *seed* and salt values."""
    base = 0 if seed is None else (seed if isinstance(seed, int) else 0)
    mixed = np.random.SeedSequence([base, *[int(s) for s in salts]])
    return int(mixed.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))


def optional_shuffle(
    array: np.ndarray, rng: Optional[np.random.Generator], inplace: bool = False
) -> np.ndarray:
    """Shuffle *array* with *rng* when provided, otherwise return it unchanged."""
    if rng is None:
        return array
    out = array if inplace else array.copy()
    rng.shuffle(out)
    return out
