"""Configuration of the tiered feature cache.

The defaults reproduce the pre-tier single static cache *exactly*: one
per-trainer tier, ``static-degree`` admission (population fixed at the
degree-ranked preload), no eviction, no adaptation.  Every knob is a registry
name or a bounded number, validated eagerly so a typo fails at construction
— the same contract :class:`~repro.core.config.PrefetchConfig` follows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Tuple

from repro.utils.validation import check_fraction

if TYPE_CHECKING:  # pragma: no cover - tier.py sits above this module
    from repro.cache.tier import CacheTier

MAX_TIERS = 2  # hot (per trainer) + shared (per machine)


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of the tiered feature cache.

    ``tiers`` selects the stack shape: ``1`` is the per-trainer hot tier
    alone, ``2`` adds the machine-shared tier between the hot tier and the
    RPC channel.  ``hot_fraction`` splits the trainer's row budget between
    the two (ignored with one tier).  ``admission``/``eviction`` name the hot
    tier's policies; the shared tier uses ``shared_admission``/
    ``shared_eviction``.  ``adaptive`` turns on the per-epoch capacity
    controller (see :class:`~repro.cache.controller.AdaptiveCapacityController`).
    ``scorer`` names the :data:`~repro.cache.scoring.SCORERS` entry built for
    tiers whose policies require one (the ``scored`` family), and
    ``record_decisions`` makes those tiers keep a :class:`ScoreRecord` ledger
    (the ``repro explain`` replay path).
    """

    tiers: int = 1
    admission: str = "static-degree"
    eviction: str = "none"
    shared_admission: str = "always"
    shared_eviction: str = "lru"
    hot_fraction: float = 0.5
    adaptive: bool = False
    min_tier_fraction: float = 0.1
    max_shift_fraction: float = 0.25
    scorer: str = "decayed"
    record_decisions: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.tiers <= MAX_TIERS:
            raise ValueError(f"tiers must be in [1, {MAX_TIERS}], got {self.tiers}")
        if self.adaptive and self.tiers < 2:
            raise ValueError(
                "adaptive capacity control re-splits the budget between two "
                "tiers; it requires tiers=2 (hot + machine-shared)"
            )
        check_fraction(self.hot_fraction, "hot_fraction")
        check_fraction(self.min_tier_fraction, "min_tier_fraction")
        check_fraction(self.max_shift_fraction, "max_shift_fraction")
        # Resolve registry names eagerly (lazy imports: policies sit above
        # nothing, but keep symmetry with PrefetchConfig's validation).
        from repro.cache.policies import ADMISSION_POLICIES, CACHE_EVICTION_POLICIES
        from repro.cache.scoring import SCORERS

        object.__setattr__(self, "scorer", SCORERS.resolve(self.scorer))
        object.__setattr__(self, "admission", ADMISSION_POLICIES.resolve(self.admission))
        object.__setattr__(self, "eviction", CACHE_EVICTION_POLICIES.resolve(self.eviction))
        object.__setattr__(
            self, "shared_admission", ADMISSION_POLICIES.resolve(self.shared_admission)
        )
        object.__setattr__(
            self, "shared_eviction", CACHE_EVICTION_POLICIES.resolve(self.shared_eviction)
        )

    # ------------------------------------------------------------------ #
    @property
    def is_default_single_tier(self) -> bool:
        """True when the config is numerically the pre-tier static cache."""
        return (
            self.tiers == 1
            and self.admission == "static-degree"
            and self.eviction == "none"
            and not self.adaptive
        )

    def split_budget(self, total_budget: int) -> Tuple[int, int]:
        """(hot_capacity, shared_contribution) for a trainer budget of rows."""
        total_budget = max(0, int(total_budget))
        if self.tiers == 1:
            return total_budget, 0
        hot = int(round(self.hot_fraction * total_budget))
        hot = max(0, min(total_budget, hot))
        return hot, total_budget - hot

    def build_tier(self, name: str, capacity: int, feature_dim: int, partition) -> "CacheTier":
        """The ``"hot"`` or ``"shared"`` tier this config describes, over *partition*'s halo.

        ``"shared"`` takes the ``shared_*`` policy pair, any other name the
        hot tier's; both read degrees and halo distance off the partition.
        """
        from repro.cache.tier import CacheTier

        shared = name == "shared"
        return CacheTier(
            name,
            capacity,
            feature_dim,
            admission=self.shared_admission if shared else self.admission,
            eviction=self.shared_eviction if shared else self.eviction,
            degree_of=partition.halo_degree_of,
            scorer=self.scorer,
            distance_of=partition.halo_distance_of,
            record_decisions=self.record_decisions,
        )

    def with_overrides(self, **overrides) -> "CacheConfig":
        """A copy with selected fields replaced; ``None`` values are ignored."""
        filtered = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **filtered)

    def describe(self) -> str:
        if self.tiers == 1:
            return f"1 tier, admission={self.admission}, eviction={self.eviction}"
        adaptive = ", adaptive" if self.adaptive else ""
        return (
            f"2 tiers (hot {self.admission}/{self.eviction}, "
            f"shared {self.shared_admission}/{self.shared_eviction}, "
            f"hot_fraction={self.hot_fraction}{adaptive})"
        )
