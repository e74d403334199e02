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
    NoEvictionPolicy,
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
from repro.core.prefetcher import (
    Prefetcher,
    PrefetchInitReport,
    PrefetchStepResult,
)
from repro.core.scoreboard import (
    AccessScoreboard,
    CompactAccessScoreboard,
    DenseAccessScoreboard,
    EvictionScores,
    make_access_scoreboard,
)

__all__ = [
    "PrefetchBuffer",
    "PAPER_DELTAS",
    "PAPER_GAMMAS",
    "PAPER_HALO_FRACTIONS",
    "PrefetchConfig",
    "EVICTION_POLICIES",
    "EvictionPolicy",
    "LRUPolicy",
    "NoEvictionPolicy",
    "RandomEvictionPolicy",
    "ScoreThresholdPolicy",
    "build_eviction_policy",
    "HitRateTracker",
    "PrefetchCounters",
    "hit_rate",
    "merge_hit_trackers",
    "Prefetcher",
    "PrefetchInitReport",
    "PrefetchStepResult",
    "AccessScoreboard",
    "CompactAccessScoreboard",
    "DenseAccessScoreboard",
    "EvictionScores",
    "make_access_scoreboard",
]
