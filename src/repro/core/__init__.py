"""MassiveGNN core: parameterized continuous prefetch and eviction."""

from repro.core.buffer import PrefetchBuffer
from repro.core.config import (
    PAPER_DELTAS,
    PAPER_GAMMAS,
    PAPER_HALO_FRACTIONS,
    PrefetchConfig,
)
from repro.core.eviction import (
    EVICTION_POLICIES,
    EvictionPolicy,
    LRUPolicy,
    RandomEvictionPolicy,
    ScoreThresholdPolicy,
    build_eviction_policy,
)
from repro.core.metrics import (
    HitRateTracker,
    PrefetchCounters,
    hit_rate,
    merge_hit_trackers,
)
from repro.core.prefetcher import Prefetcher, PrefetchStepResult
from repro.core.scoreboard import DenseAccessScoreboard, EvictionScores

__all__ = [
    "PrefetchBuffer",
    "PAPER_DELTAS",
    "PAPER_GAMMAS",
    "PAPER_HALO_FRACTIONS",
    "PrefetchConfig",
    "EVICTION_POLICIES",
    "EvictionPolicy",
    "LRUPolicy",
    "RandomEvictionPolicy",
    "ScoreThresholdPolicy",
    "build_eviction_policy",
    "HitRateTracker",
    "PrefetchCounters",
    "hit_rate",
    "merge_hit_trackers",
    "Prefetcher",
    "PrefetchStepResult",
    "DenseAccessScoreboard",
    "EvictionScores",
]
