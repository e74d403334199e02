"""Admission and eviction policies for :class:`~repro.cache.tier.CacheTier`.

A tier makes two independent decisions, each pluggable by registry name:

* **admission** — when rows that missed arrive from the next level down,
  which of them deserve a slot?  (:data:`ADMISSION_POLICIES`)
* **eviction** — when the tier is full and must make room, which resident
  rows go?  (:data:`CACHE_EVICTION_POLICIES`)

These registries are deliberately separate from
:data:`repro.core.eviction.EVICTION_POLICIES`: that registry selects *buffer
slots* inside the MassiveGNN prefetcher's scored eviction rounds (Algorithm
2), while these policies govern the generic tiered feature cache that any
source can sit behind.  The shipped names cover the classic spectrum —
``static-degree`` (the pre-tier behavior: populate once by degree, never
churn), ``lru``, ``lfu``, ``clock`` (second chance), and ``degree-weighted``
(retain hubs) — so cache-stress scenarios can compare them by flipping a
string.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.cache.scoring import ScoredAdmission, ScoredEviction
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.tier import CacheTier


# --------------------------------------------------------------------------- #
# Admission
# --------------------------------------------------------------------------- #
class AdmissionPolicy(Protocol):
    """Decides which candidate rows may enter a tier after a miss fetch."""

    name: str

    def admit(self, tier: "CacheTier", candidate_ids: np.ndarray) -> np.ndarray:
        """Boolean mask over *candidate_ids*: True = offer a slot.

        A degree-aware policy reads ``tier.degrees(candidate_ids)``; the tier
        stores no degrees, so a policy that never asks costs no lookup."""
        ...


class AlwaysAdmit:
    """Every fetched row is offered a slot (classic demand-filled cache)."""

    name = "always"

    def admit(self, tier: "CacheTier", candidate_ids: np.ndarray) -> np.ndarray:
        return np.ones(len(candidate_ids), dtype=bool)


class StaticDegreeAdmission:
    """Runtime admission is closed: the tier only holds its seeded contents.

    Paired with the ``none`` eviction policy this is the ``static-cache``
    pipeline's cache — a degree-ranked population chosen once at
    initialization, never updated.
    """

    name = "static-degree"

    def admit(self, tier: "CacheTier", candidate_ids: np.ndarray) -> np.ndarray:
        return np.zeros(len(candidate_ids), dtype=bool)


class DegreeWeightedAdmission:
    """Admit while there is free space; once full, only rows at or above the
    median resident degree.

    A cheap frequency proxy: high-degree nodes are sampled (and therefore
    missed) more often, so they are the candidates worth displacing a resident
    for.  Low-degree one-off misses are filtered out instead of churning the
    tier.  Ties with the median are admitted: on a constant-degree graph every
    candidate ties the median, and a strict comparison would reject all of
    them forever once the tier fills — silently degrading the policy to
    ``static-degree`` (regression-pinned by the constant-degree test).
    """

    name = "degree-weighted"

    def admit(self, tier: "CacheTier", candidate_ids: np.ndarray) -> np.ndarray:
        free = tier.capacity - tier.size
        if free >= len(candidate_ids):
            return np.ones(len(candidate_ids), dtype=bool)
        degrees = tier.degrees(candidate_ids)
        mask = np.zeros(len(candidate_ids), dtype=bool)
        if free > 0:
            # Give the free slots to the highest-degree candidates.
            order = np.argsort(-degrees, kind="stable")
            mask[order[:free]] = True
        if tier.size:
            threshold = float(np.median(tier.resident_degrees))
            mask |= degrees >= threshold
        return mask


ADMISSION_POLICIES = Registry("admission policy")
ADMISSION_POLICIES.register("always", lambda: AlwaysAdmit(), aliases=("open",))
ADMISSION_POLICIES.register(
    "static-degree", lambda: StaticDegreeAdmission(), aliases=("static", "never")
)
ADMISSION_POLICIES.register(
    "degree-weighted", lambda: DegreeWeightedAdmission(), aliases=("degree",)
)
# Score-based admission (repro.cache.scoring): a per-node score with
# confidence bounds decides who may displace a resident.
ADMISSION_POLICIES.register("scored", lambda: ScoredAdmission())


def build_admission_policy(name: str) -> AdmissionPolicy:
    """Build a registered admission policy by name (see :data:`ADMISSION_POLICIES`)."""
    return ADMISSION_POLICIES.build(name)


# --------------------------------------------------------------------------- #
# Eviction (victim selection)
# --------------------------------------------------------------------------- #
class CacheEvictionPolicy(Protocol):
    """Selects which resident rows leave a full tier."""

    name: str

    def select(self, tier: "CacheTier", num_victims: int) -> np.ndarray:
        """Unique int64 resident-array indices of at most ``max(num_victims, 0)`` victims."""
        ...


class NoEviction:
    """Never evict: inserts beyond capacity are rejected instead."""

    name = "none"

    def select(self, tier: "CacheTier", num_victims: int) -> np.ndarray:
        return np.zeros(0, dtype=np.int64)


class LRUEviction:
    """Evict the rows hit least recently (ties broken by resident order).

    The first *k* of a stable argsort of the stamps, without sorting the tier:
    ``np.partition`` finds the *k*-th smallest stamp and only the residents at
    or below it are stable-sorted."""

    name = "lru"

    def select(self, tier: "CacheTier", num_victims: int) -> np.ndarray:
        stamps = tier.resident_last_access
        if num_victims <= 0 or len(stamps) == 0:
            return np.zeros(0, dtype=np.int64)
        if num_victims >= len(stamps):
            return np.argsort(stamps, kind="stable")
        kth = np.partition(stamps, num_victims - 1)[num_victims - 1]
        candidates = np.flatnonzero(stamps <= kth)
        return candidates[np.argsort(stamps[candidates], kind="stable")[:num_victims]]


class LFUEviction:
    """Evict the rows hit least often (ties broken by least recent access)."""

    name = "lfu"

    def select(self, tier: "CacheTier", num_victims: int) -> np.ndarray:
        order = np.lexsort((tier.resident_last_access, tier.resident_freq))
        return order[:max(num_victims, 0)].astype(np.int64)


class ClockEviction:
    """Second-chance (CLOCK): sweep a hand, clearing reference bits until
    enough unreferenced rows are found.

    The hand position persists across eviction rounds on the tier itself, so
    repeated rounds continue the sweep instead of restarting — the property
    that makes CLOCK approximate LRU at a fraction of the bookkeeping.
    """

    name = "clock"

    def select(self, tier: "CacheTier", num_victims: int) -> np.ndarray:
        size = tier.size
        if size == 0 or num_victims <= 0:
            return np.zeros(0, dtype=np.int64)
        ref = tier.resident_ref
        hand = tier.clock_hand % size
        swept = (hand + np.arange(size)) % size        # rows in sweep order
        referenced = ref[swept] != 0
        # Sweep step at which each row is collected.  Two full sweeps suffice:
        # the first takes the unreferenced rows and clears the bits of the
        # rest, so the second takes those, each row once.
        collected = np.concatenate(
            [np.flatnonzero(~referenced), size + np.flatnonzero(referenced)]
        )[:num_victims]
        steps = int(collected[-1]) + 1                 # the hand stops after the last victim
        ref[swept[:steps]] = 0
        tier.clock_hand = (hand + steps) % size
        return np.sort(swept[collected % size])


class DegreeWeightedEviction:
    """Evict the lowest-degree rows first (retain hubs, the Fig. 10 regime)."""

    name = "degree-weighted"

    def select(self, tier: "CacheTier", num_victims: int) -> np.ndarray:
        order = np.argsort(tier.resident_degrees, kind="stable")
        return order[:max(num_victims, 0)].astype(np.int64)


CACHE_EVICTION_POLICIES = Registry("cache eviction policy")
CACHE_EVICTION_POLICIES.register("none", lambda: NoEviction(), aliases=("static-degree",))
CACHE_EVICTION_POLICIES.register("lru", lambda: LRUEviction())
CACHE_EVICTION_POLICIES.register("lfu", lambda: LFUEviction())
CACHE_EVICTION_POLICIES.register("clock", lambda: ClockEviction(), aliases=("second-chance",))
CACHE_EVICTION_POLICIES.register(
    "degree-weighted", lambda: DegreeWeightedEviction(), aliases=("degree",)
)
CACHE_EVICTION_POLICIES.register(
    "scored", lambda: ScoredEviction(), aliases=("lowest-upper-bound",)
)


def build_cache_eviction_policy(name: str) -> CacheEvictionPolicy:
    """Build a registered eviction policy by name (see :data:`CACHE_EVICTION_POLICIES`)."""
    return CACHE_EVICTION_POLICIES.build(name)
