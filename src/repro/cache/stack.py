"""The tiered cache stack: ordered tiers in front of a miss handler.

:class:`TieredFeatureCache` chains :class:`~repro.cache.tier.CacheTier`\\ s —
typically a small per-trainer **hot** tier backed by a larger machine-shared
tier — in front of a ``fetch_fn`` that resolves final misses (in this repo:
an RPC pull from the owning partition, possibly through the
:class:`~repro.distributed.rpc.BatchedRPCChannel`'s coalescing window).

Per fetch the stack walks the tiers top-down: rows found at a tier are served
there (and promoted into the tiers above it, subject to their admission
policies); rows missing everywhere are deduplicated, fetched once, and
offered to every tier on the way back up.  The per-tier hit/miss/eviction
counters come back in a :class:`CacheFetchResult`, thread through
:class:`~repro.features.source.FetchStats` into
``TrainerRunStats.cache_stats``, and surface cluster-wide via
:meth:`~repro.training.cluster_engine.ClusterReport.mean_tier_hit_rates` —
identically under the lockstep and event-driven engines, since both collect
trainer stats through the same shared helpers.  Capacity re-splitting between
a trainer's hot tier and its machine-shared contribution is the
:class:`~repro.cache.controller.AdaptiveCapacityController`'s job, driven by
the per-epoch interval hit rates recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cache.tier import CacheTier

# ids -> (rows, simulated_time_s, bytes_fetched); the stack treats the miss
# handler as opaque, so it can be an RPC channel, a disk tier, or a test stub.
MissFetcher = Callable[[np.ndarray], Tuple[np.ndarray, float, int]]


@dataclass
class CacheFetchResult:
    """Outcome of one :meth:`TieredFeatureCache.fetch` call."""

    num_requested: int = 0
    num_hits: int = 0                  # rows served from any tier
    num_misses: int = 0                # rows that had to be fetched below the stack
    fetched_rows: int = 0              # unique rows pulled by the miss handler
    fetch_time_s: float = 0.0
    bytes_fetched: int = 0
    lookup_nodes: int = 0              # membership tests across all tiers
    per_tier: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def tier_counters(self) -> Dict[str, float]:
        """Flat ``{tier}.{counter}`` dict for FetchStats threading."""
        out: Dict[str, float] = {}
        for tier_name, counters in self.per_tier.items():
            for key, value in counters.items():
                out[f"{tier_name}.{key}"] = float(value)
        return out


class TieredFeatureCache:
    """Ordered cache tiers over a miss handler, fetched as one unit."""

    def __init__(self, tiers: List[CacheTier], fetch_fn: MissFetcher, feature_dim: int):
        if not tiers:
            raise ValueError("a tiered cache needs at least one tier")
        names = [tier.name for tier in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        self.tiers = list(tiers)
        self.fetch_fn = fetch_fn
        self.feature_dim = int(feature_dim)

    # ------------------------------------------------------------------ #
    def fetch(self, global_ids: np.ndarray, step: int) -> Tuple[np.ndarray, CacheFetchResult]:
        """Assemble rows for *global_ids* (aligned), recording per-tier costs.

        Precondition: *global_ids* is a 1-D int64 array, validated where it
        entered the data path (``FeatureStore.fetch``, the sampler's seeds).
        """
        result = CacheFetchResult(num_requested=int(len(global_ids)))
        rows = np.zeros((len(global_ids), self.feature_dim), dtype=np.float32)
        remaining = np.arange(len(global_ids), dtype=np.int64)

        # Hits at a lower tier are promoted into the tiers above it, so hot
        # rows migrate toward the cheapest level (admission policies decide).
        promotions: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for level, tier in enumerate(self.tiers):
            hit_mask, hit_rows = tier.lookup(global_ids[remaining], step)
            result.lookup_nodes += int(len(remaining))
            delta = {
                "hits": int(hit_mask.sum()),
                "misses": int((~hit_mask).sum()),
                "evictions": 0,
                "admissions": 0,
            }
            result.per_tier[tier.name] = delta
            if delta["hits"]:
                hit_positions = remaining[hit_mask]
                rows[hit_positions] = hit_rows
                if level > 0:
                    promotions.append((level, global_ids[hit_positions], hit_rows))
            remaining = remaining[~hit_mask]
            if len(remaining) == 0:
                # Later tiers see no traffic for this call; record zeroes so
                # the per-tier schema is stable across calls.
                for lower in self.tiers[level + 1:]:
                    result.per_tier[lower.name] = {
                        "hits": 0, "misses": 0, "evictions": 0, "admissions": 0,
                    }
                break

        result.num_hits = int(result.num_requested - len(remaining))
        result.num_misses = int(len(remaining))
        if len(remaining):
            unique_missing = np.unique(global_ids[remaining])
            fetched, fetch_time, bytes_fetched = self.fetch_fn(unique_missing)
            rows[remaining] = fetched[
                np.searchsorted(unique_missing, global_ids[remaining])
            ]
            result.fetched_rows = int(len(unique_missing))
            result.fetch_time_s = float(fetch_time)
            result.bytes_fetched = int(bytes_fetched)
            self._offer(self.tiers, unique_missing, fetched, step, result)
        for level, promo_ids, promo_rows in promotions:
            self._offer(self.tiers[:level], promo_ids, promo_rows, step, result)
        return rows, result

    # ------------------------------------------------------------------ #
    def end_epoch(self) -> None:
        """Epoch boundary hook: steps every tier's scorer (controllers attach
        via the owning source)."""
        for tier in self.tiers:
            tier.end_epoch()

    def nbytes(self) -> int:
        return int(sum(tier.nbytes() for tier in self.tiers))

    @property
    def total_resident(self) -> int:
        return int(sum(tier.size for tier in self.tiers))

    def summary(self) -> Dict[str, float]:
        """Flat cumulative per-tier counters, keys prefixed ``tier.{name}.``."""
        out: Dict[str, float] = {}
        for tier in self.tiers:
            for key, value in tier.summary().items():
                out[f"tier.{tier.name}.{key}"] = float(value)
        return out

    # ------------------------------------------------------------------ #
    def _offer(self, tiers: List[CacheTier], ids: np.ndarray, rows: np.ndarray,
               step: int, result: CacheFetchResult) -> None:
        for tier in tiers:
            evictions_before = tier.stats.evictions
            admitted = tier.admit(ids, rows, step)
            counters = result.per_tier.setdefault(
                tier.name, {"hits": 0, "misses": 0, "evictions": 0, "admissions": 0}
            )
            counters["admissions"] += int(admitted)
            counters["evictions"] += int(tier.stats.evictions - evictions_before)
