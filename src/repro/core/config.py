"""Configuration of the prefetch-and-eviction scheme.

The paper parameterizes the scheme with three knobs (Table I):

* ``f_h`` — the fraction of a partition's halo nodes whose features are
  prefetched into the buffer at initialization (buffer capacity);
* ``γ`` (``gamma``) — the per-minibatch decay applied to the eviction score of
  buffered nodes that were *not* sampled;
* ``Δ`` (``delta``) — the eviction interval: every Δ minibatch steps an
  eviction round replaces under-used buffer slots with the hottest missed
  nodes.

The eviction threshold follows Eq. 1: ``α = S_E(init) · γ^Δ`` — a buffered
node is evicted if it went unused for (roughly) a full interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.eviction import EVICTION_POLICIES
from repro.utils.validation import check_fraction, check_positive


@dataclass
class PrefetchConfig:
    """Parameters of the continuous prefetch and eviction scheme."""

    halo_fraction: float = 0.25
    gamma: float = 0.995
    delta: int = 64
    eviction_enabled: bool = True
    alpha: Optional[float] = None
    scoreboard: str = "dense"
    initial_eviction_score: float = 1.0
    min_buffer_slots: int = 1
    # Registry name (see repro.core.eviction.EVICTION_POLICIES) of the
    # eviction policy every trainer's prefetcher builds for itself.
    eviction_policy: str = "score-threshold"

    def __post_init__(self) -> None:
        check_fraction(self.halo_fraction, "halo_fraction")
        check_fraction(self.gamma, "gamma", inclusive_low=False)
        check_positive(self.delta, "delta")
        check_positive(self.initial_eviction_score, "initial_eviction_score")
        if self.scoreboard not in ("dense", "compact"):
            raise ValueError(f"scoreboard must be 'dense' or 'compact', got {self.scoreboard!r}")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        # Resolve the registry name eagerly so a typo fails at construction,
        # not mid-run.
        EVICTION_POLICIES.resolve(self.eviction_policy)

    @property
    def effective_alpha(self) -> float:
        """Eviction threshold; defaults to Eq. 1, ``α = S_E(init) · γ^Δ``."""
        if self.alpha is not None:
            return float(self.alpha)
        return float(self.initial_eviction_score * (self.gamma ** self.delta))

    def buffer_capacity(self, num_halo_nodes: int) -> int:
        """Number of buffer slots for a partition with *num_halo_nodes* halo nodes."""
        if num_halo_nodes <= 0:
            return 0
        return max(self.min_buffer_slots, int(round(self.halo_fraction * num_halo_nodes)))

    def without_eviction(self) -> "PrefetchConfig":
        """Copy of this config with eviction disabled (prefetch-only variant)."""
        return replace(self, eviction_enabled=False)

    def describe(self) -> str:
        """Short human-readable descriptor (used in benchmark table rows)."""
        evict = f"gamma={self.gamma}, delta={self.delta}" if self.eviction_enabled else "no-evict"
        return f"f_h={self.halo_fraction}, {evict}"


# Values of f_h, Δ and γ explored by the paper's evaluation (Section V).
PAPER_HALO_FRACTIONS = (0.15, 0.25, 0.35, 0.50)
PAPER_DELTAS = (16, 32, 64, 128, 512, 1024)
PAPER_GAMMAS = (0.95, 0.995, 0.9995)
