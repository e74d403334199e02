"""Eviction policies for the prefetch buffer.

The paper's policy is score-threshold eviction (Algorithm 2,
``EVICT_AND_REPLACE``): during an eviction round every slot whose eviction
score has decayed below ``α`` is evicted, and an equal number of replacement
candidates with the highest access score (ties broken by degree) moves in.

Alternative policies are included for ablation benchmarks — they answer the
question the paper raises in Section I: is a simple recency or random policy
enough, or does the scored approach actually matter?
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.scoreboard import EvictionScores
from repro.utils.registry import Registry
from repro.utils.rng import SeedLike, ensure_rng


class EvictionPolicy(Protocol):
    """Selects which buffer slots to evict during an eviction round."""

    name: str

    def select(self, scores: EvictionScores, alpha: float,
               last_hit_step: np.ndarray, step: int) -> np.ndarray:
        """Return the slot indices to evict."""
        ...


class ScoreThresholdPolicy:
    """The paper's policy: evict slots whose S_E fell below the threshold α."""

    name = "score-threshold"

    def select(self, scores: EvictionScores, alpha: float,
               last_hit_step: np.ndarray, step: int) -> np.ndarray:
        return scores.below_threshold(alpha)


class LRUPolicy:
    """Evict the slots whose nodes were hit least recently.

    Evicts the same *number* of slots the score policy would have (so the two
    are comparable per round) but chooses them by recency instead of score.
    """

    name = "lru"

    def select(self, scores: EvictionScores, alpha: float,
               last_hit_step: np.ndarray, step: int) -> np.ndarray:
        num_to_evict = len(scores.below_threshold(alpha))
        if num_to_evict == 0:
            return np.zeros(0, dtype=np.int64)
        order = np.argsort(last_hit_step, kind="stable")
        return order[:num_to_evict].astype(np.int64)


class RandomEvictionPolicy:
    """Evict a random set of slots (same count as the score policy)."""

    name = "random"

    def __init__(self, seed: SeedLike = None):
        self.rng = ensure_rng(seed)

    def select(self, scores: EvictionScores, alpha: float,
               last_hit_step: np.ndarray, step: int) -> np.ndarray:
        num_to_evict = len(scores.below_threshold(alpha))
        capacity = len(scores.values)
        if num_to_evict == 0 or capacity == 0:
            return np.zeros(0, dtype=np.int64)
        return np.sort(self.rng.choice(capacity, size=min(num_to_evict, capacity), replace=False)).astype(np.int64)


EVICTION_POLICIES = Registry("eviction policy")
EVICTION_POLICIES.register(
    "score-threshold", lambda seed=None: ScoreThresholdPolicy(), aliases=("score", "paper")
)
EVICTION_POLICIES.register("lru", lambda seed=None: LRUPolicy())
EVICTION_POLICIES.register("random", lambda seed=None: RandomEvictionPolicy(seed=seed))


def build_eviction_policy(name: str, seed: SeedLike = None) -> EvictionPolicy:
    """Factory: ``score-threshold`` (default), ``lru`` or ``random``.

    Backed by :data:`EVICTION_POLICIES`; unknown names raise a ``ValueError``
    listing every registered policy.
    """
    return EVICTION_POLICIES.build(name, seed=seed)
