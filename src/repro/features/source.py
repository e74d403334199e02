"""The :class:`FeatureSource` protocol and its fetch accounting types.

A feature source answers one question — *give me the feature rows for these
global node ids* — and reports what that cost: simulated copy/RPC time plus
the operation counts (membership lookups, score updates, eviction work) that
the training engine converts into the paper's simulated-time model.  The
protocol is the seam that makes data paths pluggable: the DistDGL baseline,
the MassiveGNN prefetch buffer, and any new caching strategy are all just
sources composed behind a :class:`~repro.features.store.FeatureStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Protocol, Tuple, runtime_checkable

import numpy as np


@dataclass
class FetchStats:
    """Accounting for one :meth:`FeatureSource.fetch` call (mergeable)."""

    source: str = ""
    num_requested: int = 0
    num_hits: int = 0                 # rows served without any RPC
    num_misses: int = 0               # rows that required a remote pull
    copy_time_s: float = 0.0          # simulated local memory-copy time
    rpc_time_s: float = 0.0           # simulated remote-pull time
    bytes_fetched: int = 0            # bytes moved over the simulated network
    remote_nodes_fetched: int = 0     # rows pulled remotely (misses + refills)
    lookup_nodes: int = 0             # membership tests performed
    scoring_nodes: int = 0            # S_E decays + S_A increments performed
    eviction_round: bool = False
    nodes_evicted: int = 0
    nodes_replaced: int = 0
    buffer_capacity: int = 0
    # Per-tier counters of the tiered cache stack, keyed "{tier}.{counter}"
    # (e.g. "hot.hits", "shared.evictions").  Empty for cache-less sources so
    # the historical flat schema — which the golden fixtures pin — is
    # untouched unless tiers are actually in play.
    tier_counters: Dict[str, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.num_hits + self.num_misses
        return self.num_hits / total if total else 0.0

    def merge(self, other: "FetchStats") -> "FetchStats":
        """Combine two fetch outcomes (per-source stats -> per-minibatch stats)."""
        merged_tiers = dict(self.tier_counters)
        for key, value in other.tier_counters.items():
            merged_tiers[key] = merged_tiers.get(key, 0.0) + value
        return FetchStats(
            source=self.source if self.source == other.source else "merged",
            num_requested=self.num_requested + other.num_requested,
            num_hits=self.num_hits + other.num_hits,
            num_misses=self.num_misses + other.num_misses,
            copy_time_s=self.copy_time_s + other.copy_time_s,
            rpc_time_s=self.rpc_time_s + other.rpc_time_s,
            bytes_fetched=self.bytes_fetched + other.bytes_fetched,
            remote_nodes_fetched=self.remote_nodes_fetched + other.remote_nodes_fetched,
            lookup_nodes=self.lookup_nodes + other.lookup_nodes,
            scoring_nodes=self.scoring_nodes + other.scoring_nodes,
            eviction_round=self.eviction_round or other.eviction_round,
            nodes_evicted=self.nodes_evicted + other.nodes_evicted,
            nodes_replaced=self.nodes_replaced + other.nodes_replaced,
            buffer_capacity=max(self.buffer_capacity, other.buffer_capacity),
            tier_counters=merged_tiers,
        )

    def as_dict(self) -> Dict[str, float]:
        out = dict(self.__dict__)
        out["hit_rate"] = self.hit_rate
        if not self.tier_counters:
            out.pop("tier_counters")
        return out


@dataclass
class FetchResult:
    """Per-minibatch outcome of a :class:`~repro.features.store.FeatureStore` fetch."""

    per_source: Dict[str, FetchStats] = field(default_factory=dict)

    @property
    def merged(self) -> FetchStats:
        total = FetchStats()
        for stats in self.per_source.values():
            total = total.merge(stats)
        return total

    def source(self, name: str) -> FetchStats:
        return self.per_source[name]


@runtime_checkable
class FeatureSource(Protocol):
    """Anything that can serve feature rows for global node ids.

    Implementations must align the returned rows with the requested ids and
    report the cost of doing so in a :class:`FetchStats`.  ``nbytes`` exposes
    the memory the source pins (buffer + index structures) and ``summary``
    returns the introspection counters benchmarks tabulate.
    """

    name: str

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        """Return ``(rows, stats)``; ``rows[i]`` is the feature row of ``global_ids[i]``.

        ``global_ids`` arrives as a 1-D int64 array: the
        :class:`~repro.features.store.FeatureStore` validates ids it is handed
        directly and minibatch ids are built by the sampler, so a source does
        not re-validate them.
        """
        ...

    def nbytes(self) -> int:
        """Resident memory attributable to this source, in bytes."""
        ...

    def summary(self) -> Dict[str, float]:
        """Cumulative counters for reports and benchmark tables."""
        ...
