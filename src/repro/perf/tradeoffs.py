"""Trade-off analysis of the decay factor γ and eviction interval Δ (Fig. 5).

The paper frames the parameter space as four quadrants:

=================  ==========================  =====================================
quadrant           (γ, Δ) regime               expected behaviour
=================  ==========================  =====================================
low decay/short    γ → 1, small Δ              hit-rate stagnation + lookup overhead
high decay/short   γ → 0, small Δ              hit-rate swings, useful nodes evicted
high decay/long    γ → 0, large Δ              delayed evictions, possible hit drops
low decay/long     γ → 1, large Δ              best: steady hit-rate growth, low overhead
=================  ==========================  =====================================

:func:`classify_quadrant` maps (γ, Δ) to its quadrant, whose ``expected``
field is the paper's qualitative prediction, and :func:`quadrant_configs`
builds one representative configuration per quadrant for the Fig. 5 bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import PrefetchConfig


# Boundaries: the paper calls γ >= 0.9 "low decay"; Δ of 128 or more is "long"
# relative to the 16–1024 range it sweeps.
LOW_DECAY_THRESHOLD = 0.9
LONG_INTERVAL_THRESHOLD = 128


@dataclass(frozen=True)
class QuadrantInfo:
    """One quadrant of the Fig. 5 trade-off space."""

    name: str
    low_decay: bool
    long_interval: bool
    expected: str
    overhead: str


QUADRANTS: Dict[str, QuadrantInfo] = {
    "low-decay/short-interval": QuadrantInfo(
        name="low-decay/short-interval",
        low_decay=True,
        long_interval=False,
        expected="hit-rate stagnation (few nodes evicted per frequent round)",
        overhead="high (frequent eviction inspection)",
    ),
    "high-decay/short-interval": QuadrantInfo(
        name="high-decay/short-interval",
        low_decay=False,
        long_interval=False,
        expected="hit-rate swings (useful nodes evicted aggressively)",
        overhead="high (frequent eviction inspection)",
    ),
    "high-decay/long-interval": QuadrantInfo(
        name="high-decay/long-interval",
        low_decay=False,
        long_interval=True,
        expected="delayed evictions, possible hit-rate drops",
        overhead="low",
    ),
    "low-decay/long-interval": QuadrantInfo(
        name="low-decay/long-interval",
        low_decay=True,
        long_interval=True,
        expected="consistent hit-rate growth (recommended regime)",
        overhead="low",
    ),
}


def classify_quadrant(gamma: float, delta: int) -> QuadrantInfo:
    """Map (γ, Δ) to its Fig. 5 quadrant."""
    low_decay = gamma >= LOW_DECAY_THRESHOLD
    long_interval = delta >= LONG_INTERVAL_THRESHOLD
    for info in QUADRANTS.values():
        if info.low_decay == low_decay and info.long_interval == long_interval:
            return info
    raise RuntimeError("unreachable: quadrant table covers all combinations")


def quadrant_configs(
    halo_fraction: float = 0.25,
    low_gamma: float = 0.5,
    high_gamma: float = 0.995,
    short_delta: int = 16,
    long_delta: int = 512,
) -> Dict[str, PrefetchConfig]:
    """One representative :class:`PrefetchConfig` per quadrant (for Fig. 5 benches)."""
    return {
        "low-decay/short-interval": PrefetchConfig(
            halo_fraction=halo_fraction, gamma=high_gamma, delta=short_delta
        ),
        "high-decay/short-interval": PrefetchConfig(
            halo_fraction=halo_fraction, gamma=low_gamma, delta=short_delta
        ),
        "high-decay/long-interval": PrefetchConfig(
            halo_fraction=halo_fraction, gamma=low_gamma, delta=long_delta
        ),
        "low-decay/long-interval": PrefetchConfig(
            halo_fraction=halo_fraction, gamma=high_gamma, delta=long_delta
        ),
    }
