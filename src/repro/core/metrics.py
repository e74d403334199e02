"""Prefetching quality metrics: hit rate tracking and communication counters.

Hit rate (Eq. 8): ``h / (h + m)`` where ``h`` counts sampled halo nodes found
in the prefetch buffer and ``m`` counts those that had to be fetched over RPC.
The tracker records per-step history so the Fig. 10 / Fig. 12 trajectories can
be regenerated, and marks the eviction points (every Δ steps) the figures
annotate with dashed vertical lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


def hit_rate(hits: int, misses: int) -> float:
    """Eq. 8: fraction of sampled halo nodes served from the prefetch buffer."""
    total = hits + misses
    if total <= 0:
        return 0.0
    return hits / total


@dataclass
class HitRateTracker:
    """Per-minibatch hit/miss history for one trainer."""

    hits_history: List[int] = field(default_factory=list)
    misses_history: List[int] = field(default_factory=list)
    eviction_steps: List[int] = field(default_factory=list)
    total_hits: int = 0
    total_misses: int = 0

    def record(self, hits: int, misses: int, *, eviction: bool = False) -> None:
        if hits < 0 or misses < 0:
            raise ValueError("hits and misses must be non-negative")
        self.hits_history.append(int(hits))
        self.misses_history.append(int(misses))
        self.total_hits += int(hits)
        self.total_misses += int(misses)
        if eviction:
            self.eviction_steps.append(len(self.hits_history) - 1)

    @property
    def num_steps(self) -> int:
        return len(self.hits_history)

    @property
    def cumulative_hit_rate(self) -> float:
        return hit_rate(self.total_hits, self.total_misses)

    def running_hit_rate(self) -> np.ndarray:
        """Cumulative hit rate after each minibatch (the Fig. 10 trajectory)."""
        hits = np.cumsum(self.hits_history, dtype=np.float64)
        misses = np.cumsum(self.misses_history, dtype=np.float64)
        total = np.maximum(hits + misses, 1.0)
        return hits / total

    def summary(self) -> Dict[str, float]:
        return {
            "steps": float(self.num_steps),
            "hit_rate": self.cumulative_hit_rate,
            "total_hits": float(self.total_hits),
            "total_misses": float(self.total_misses),
            "eviction_rounds": float(len(self.eviction_steps)),
        }


@dataclass
class PrefetchCounters:
    """Cumulative communication-side counters for one trainer's prefetcher."""

    remote_nodes_fetched: int = 0          # nodes pulled over RPC (misses + replacements + init)
    remote_nodes_for_misses: int = 0
    remote_nodes_for_replacement: int = 0
    remote_nodes_at_init: int = 0
    eviction_rounds: int = 0
    nodes_evicted: int = 0
    halo_nodes_sampled: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "remote_nodes_fetched": self.remote_nodes_fetched,
            "remote_nodes_for_misses": self.remote_nodes_for_misses,
            "remote_nodes_for_replacement": self.remote_nodes_for_replacement,
            "remote_nodes_at_init": self.remote_nodes_at_init,
            "eviction_rounds": self.eviction_rounds,
            "nodes_evicted": self.nodes_evicted,
            "halo_nodes_sampled": self.halo_nodes_sampled,
        }


def merge_hit_trackers(trackers: List[HitRateTracker]) -> HitRateTracker:
    """Merge trackers from several trainers into one aggregate trajectory.

    Per-step entries are summed element-wise up to the shortest history, which
    matches how the paper plots a single hit-rate curve per configuration.
    """
    merged = HitRateTracker()
    if not trackers:
        return merged
    min_len = min(t.num_steps for t in trackers)
    for step in range(min_len):
        hits = sum(t.hits_history[step] for t in trackers)
        misses = sum(t.misses_history[step] for t in trackers)
        eviction = any(step in t.eviction_steps for t in trackers)
        merged.record(hits, misses, eviction=eviction)
    return merged
