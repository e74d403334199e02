"""``repro.cache``: the tiered, policy-pluggable feature-cache subsystem.

Composes :class:`~repro.cache.tier.CacheTier` levels (a per-trainer hot tier
plus an optional machine-shared tier) into a
:class:`~repro.cache.stack.TieredFeatureCache` that sits in front of the RPC
miss path, with string-keyed admission/eviction policy registries and an
adaptive per-epoch capacity controller.  See README.md § Caching.
"""

from repro.cache.config import CacheConfig
from repro.cache.controller import AdaptiveCapacityController, CapacityAdjustment
from repro.cache.policies import (
    ADMISSION_POLICIES,
    CACHE_EVICTION_POLICIES,
    build_admission_policy,
    build_cache_eviction_policy,
)
from repro.cache.scoring import (
    DecisionLog,
    PrefetchScorer,
    ScoredAdmission,
    ScoredEviction,
    ScoreRecord,
    capture_decisions,
)
from repro.cache.stack import CacheFetchResult, TieredFeatureCache
from repro.cache.tier import CacheTier, TierStats

__all__ = [
    "ADMISSION_POLICIES",
    "CACHE_EVICTION_POLICIES",
    "AdaptiveCapacityController",
    "CacheConfig",
    "CacheFetchResult",
    "CacheTier",
    "CapacityAdjustment",
    "DecisionLog",
    "PrefetchScorer",
    "ScoreRecord",
    "ScoredAdmission",
    "ScoredEviction",
    "TierStats",
    "TieredFeatureCache",
    "build_admission_policy",
    "build_cache_eviction_policy",
    "capture_decisions",
]
