"""Adaptive capacity control: re-split tier budgets from observed hit rates.

Each trainer owns a fixed row budget ``B`` (derived from the prefetch
config's halo fraction, exactly like the single-tier caches).  With two tiers
the budget is split between the trainer's private hot tier and the trainer's
*contribution* to the machine-shared tier; the shared tier's capacity is the
sum of its trainers' contributions, so every controller only ever moves its
own share and concurrent trainers cannot fight over the same slots.

At every epoch boundary the controller compares the tiers' hit rates over the
interval since its last adjustment and shifts capacity toward the tier with
the higher observed hit rate, moving at most ``MAX_SHIFT_FRACTION`` of the
budget per epoch and keeping ``MIN_TIER_FRACTION`` of it in each tier so
neither tier starves.  With a single tier (or ``adaptive=False`` in the
config) the controller is never constructed and the capacities are
immutable — the bit-identical default path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.tier import CacheTier, TierStats

# Each tier keeps at least this fraction of the budget.
MIN_TIER_FRACTION = 0.1
# One epoch moves at most this fraction of the budget (and at least one row).
MAX_SHIFT_FRACTION = 0.25
# Added to both interval hit rates, so a cold tier keeps a foothold.
HIT_RATE_EPSILON = 0.05


@dataclass
class CapacityAdjustment:
    """One epoch's re-split decision (kept for telemetry/benchmarks)."""

    epoch: int
    hot_hit_rate: float
    shared_hit_rate: float
    hot_capacity: int
    shared_contribution: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "epoch": float(self.epoch),
            "hot_hit_rate": self.hot_hit_rate,
            "shared_hit_rate": self.shared_hit_rate,
            "hot_capacity": float(self.hot_capacity),
            "shared_contribution": float(self.shared_contribution),
        }


class AdaptiveCapacityController:
    """Re-splits one trainer's row budget between its hot and shared tiers."""

    def __init__(
        self,
        hot_tier: CacheTier,
        shared_tier: CacheTier,
        total_budget: int,
        shared_contribution: int,
    ):
        if total_budget < 0:
            raise ValueError("total_budget must be >= 0")
        self.hot_tier = hot_tier
        self.shared_tier = shared_tier
        self.total_budget = int(total_budget)
        self.shared_contribution = int(shared_contribution)
        self.history: List[CapacityAdjustment] = []
        self._hot_snapshot: TierStats = hot_tier.stats.snapshot()
        self._shared_snapshot: TierStats = shared_tier.stats.snapshot()
        self._epoch = 0

    # ------------------------------------------------------------------ #
    def end_epoch(self, step: int = 0) -> Optional[CapacityAdjustment]:
        """Observe the epoch's hit rates and re-split the budget.

        Returns the adjustment applied, or ``None`` when the interval carried
        no traffic (nothing to learn from) or the budget is zero (nothing to
        split).
        """
        hot = self.hot_tier.stats.since(self._hot_snapshot)
        shared = self.shared_tier.stats.since(self._shared_snapshot)
        self._hot_snapshot = self.hot_tier.stats.snapshot()
        self._shared_snapshot = self.shared_tier.stats.snapshot()
        self._epoch += 1
        if self.total_budget == 0:
            return None
        if hot.lookups == 0 and shared.lookups == 0:
            return None

        # Weight each tier by its interval hit rate plus epsilon, so a cold
        # tier keeps a foothold and can recover later.  All roundings use
        # an explicit half-up rule (floor(x + 0.5)) rather than Python's
        # banker's round(): banker's rounding maps exact .5 targets to the
        # nearest even integer, which can flip the split ±1 row between epochs
        # with identical hit rates and break re-split determinism.
        hot_weight = hot.hit_rate + HIT_RATE_EPSILON
        shared_weight = shared.hit_rate + HIT_RATE_EPSILON
        target_hot = math.floor(
            self.total_budget * hot_weight / (hot_weight + shared_weight) + 0.5
        )

        floor = math.floor(MIN_TIER_FRACTION * self.total_budget + 0.5)
        max_shift = max(1, math.floor(MAX_SHIFT_FRACTION * self.total_budget + 0.5))
        current_hot = self.hot_tier.capacity
        target_hot = max(current_hot - max_shift, min(current_hot + max_shift, target_hot))
        target_hot = max(floor, min(self.total_budget - floor, target_hot))
        new_contribution = self.total_budget - target_hot

        if target_hot != current_hot:
            self.hot_tier.resize(target_hot, step)
            delta = new_contribution - self.shared_contribution
            self.shared_tier.resize(self.shared_tier.capacity + delta, step)
            self.shared_contribution = new_contribution

        adjustment = CapacityAdjustment(
            epoch=self._epoch,
            hot_hit_rate=hot.hit_rate,
            shared_hit_rate=shared.hit_rate,
            hot_capacity=self.hot_tier.capacity,
            shared_contribution=self.shared_contribution,
        )
        self.history.append(adjustment)
        return adjustment
