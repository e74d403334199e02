"""Random number generator helpers.

All stochastic components in the library (graph generators, samplers,
partitioners, model initialization) accept either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``.  These helpers normalize that
input and derive salted integer seeds so that simulated trainers remain
reproducible and decorrelated.
"""

from __future__ import annotations

from typing import Iterable, Union

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


def derive_seed(seed: SeedLike, *salts: Iterable[int]) -> int:
    """Deterministically derive an integer seed from *seed* and salt values."""
    base = 0 if seed is None else (seed if isinstance(seed, int) else 0)
    mixed = np.random.SeedSequence([base, *[int(s) for s in salts]])
    return int(mixed.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))
