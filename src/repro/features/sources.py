"""Concrete feature sources: local KVStore, remote RPC, tiered cache.

Each source implements the :class:`~repro.features.source.FeatureSource`
protocol over a different data path (the MassiveGNN prefetch buffer of
Algorithms 1–2 is the fourth: :class:`~repro.core.prefetcher.Prefetcher`
is its own source):

* :class:`LocalKVStoreSource` — memory copies from the trainer's co-located
  partition server (the local half of both pipelines);
* :class:`RemoteRPCSource` — every row pulled from its owning partition over
  simulated RPC (the DistDGL baseline halo path, Eq. 2);
* :class:`TieredCacheSource` — the general policy-pluggable path: a
  per-trainer hot :class:`~repro.cache.tier.CacheTier` optionally backed by a
  machine-shared tier (no other source has one), both sitting in front of the
  RPC channel (and hence in front of the
  :class:`~repro.distributed.rpc.BatchedRPCChannel`'s coalescing window when
  that channel is selected).  With the default
  :class:`~repro.cache.config.CacheConfig` it is the degree-ranked static
  cache — populated once, never updated — the ablation showing why continuous
  eviction beats a static cache under stochastic neighbor sampling.

Sources are plain classes: each row of
:data:`~repro.training.pipelines.PIPELINES` names the halo source it wants,
and :func:`~repro.training.pipelines.build_pipeline` hands the objects to a
:class:`~repro.features.store.FeatureStore`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.controller import AdaptiveCapacityController
from repro.cache.stack import TieredFeatureCache
from repro.cache.tier import CacheTier
from repro.core.metrics import HitRateTracker
from repro.distributed.rpc import RPCChannel
from repro.features.source import FetchStats
from repro.graph.halo import GraphPartition


class LocalKVStoreSource:
    """Rows owned by the trainer's partition, served as local memory copies."""

    name = "local-kvstore"

    def __init__(self, rpc: RPCChannel):
        self.rpc = rpc
        self._rows_served = 0
        self._calls = 0

    @property
    def feature_dim(self) -> int:
        return self.rpc.servers[self.rpc.local_part].feature_dim

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        if len(global_ids) == 0:
            # An empty request is not a pull: no copy, no call counted.
            return np.zeros((0, self.feature_dim), dtype=np.float32), FetchStats()
        rows, copy_time = self.rpc.local_pull(global_ids)
        self._rows_served += int(len(global_ids))
        self._calls += 1
        stats = FetchStats(
            num_requested=int(len(global_ids)),
            num_hits=int(len(global_ids)),
            copy_time_s=copy_time,
        )
        return rows, stats

    def nbytes(self) -> int:
        # The co-located partition server's memory is shared by every trainer
        # on the machine; this source pins nothing extra trainer-side.
        return 0

    def summary(self) -> Dict[str, float]:
        return {
            "calls": float(self._calls),
            "rows_served": float(self._rows_served),
            "server_nbytes": float(self.rpc.servers[self.rpc.local_part].nbytes()),
        }


class RemoteRPCSource:
    """Every requested row is pulled over RPC from its owning partition.

    Owners come from the partition's halo table
    (:meth:`~repro.graph.halo.GraphPartition.halo_owners_of`), which rejects
    an id that is not a halo neighbor with a ``KeyError`` naming it.

    A zero-capacity :class:`TieredCacheSource` is not a drop-in for it.  Run
    as ``baseline``'s halo source on the fixed-seed 2x2 golden workload, it
    repeats the clocks, the critical path, the RPC counters and the losses
    exactly, but it charges Fig. 9's ``lookup`` component (0 → 1.33e-5 s per
    trainer), reports a hit rate of 0.0 instead of none, adds an init report
    (and the clock's ``init`` key) and renames the store-summary keys.  That
    would move ``single_run.json`` and the Fig. 9 table, so this class stays.
    """

    name = "remote-rpc"

    def __init__(self, rpc: RPCChannel, partition: GraphPartition):
        self.rpc = rpc
        self.partition = partition
        self._rows_served = 0
        self._calls = 0

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        if len(global_ids) == 0:
            # Zero rows after routing means zero RPCs: skip the pull entirely
            # so the call/request counters only ever reflect real traffic.
            dim = self.rpc.servers[self.rpc.local_part].feature_dim
            return np.zeros((0, dim), dtype=np.float32), FetchStats()
        owners = self.partition.halo_owners_of(global_ids)
        rows, rpc_time, _ = self.rpc.remote_pull(global_ids, owners)
        self._rows_served += int(len(global_ids))
        self._calls += 1
        stats = FetchStats(
            num_requested=int(len(global_ids)),
            num_misses=int(len(global_ids)),
            rpc_time_s=rpc_time,
        )
        return rows, stats

    def nbytes(self) -> int:
        return 0  # nothing cached trainer-side

    def summary(self) -> Dict[str, float]:
        return {"calls": float(self._calls), "rows_served": float(self._rows_served)}


class TieredCacheSource:
    """Halo features served through the tiered cache stack (``repro.cache``).

    A per-trainer **hot** :class:`~repro.cache.tier.CacheTier` — preloaded
    with the partition's top-degree halo rows, exactly like the historical
    static cache — optionally backed by a machine-shared tier, both in front
    of the RPC channel (and hence in front of the
    :class:`~repro.distributed.rpc.BatchedRPCChannel`'s coalescing window
    when that channel is selected).  Admission/eviction behavior is whatever
    the :class:`~repro.cache.config.CacheConfig` names; with the default
    config (one tier, ``static-degree`` admission, no eviction) the source
    *is* the static cache: populated once, no scoreboards, no eviction — the
    counterpoint to the :class:`~repro.core.prefetcher.Prefetcher`: its hit
    rate decays over training because neighbor sampling is stochastic
    (Section I).

    ``capacity`` is the trainer's total row budget; with two tiers it is
    split by ``cache_config.hot_fraction`` between the hot tier and this
    trainer's contribution to the shared tier, and the adaptive controller
    (``cache_config.adaptive``) re-splits it at epoch boundaries from
    observed per-tier hit rates.
    """

    name = "tiered-cache"

    def __init__(
        self,
        rpc: RPCChannel,
        partition: GraphPartition,
        capacity: int,
        cache_config: Optional[CacheConfig] = None,
        shared_tier: Optional[CacheTier] = None,
    ):
        self.rpc = rpc
        self.partition = partition
        self.capacity = int(capacity)
        self.cache_config = cache_config or CacheConfig()
        self.tracker = HitRateTracker()
        self._remote_nodes_fetched = 0
        self._step = 0
        self._initialized = False

        feature_dim = rpc.servers[rpc.local_part].feature_dim
        # With two tiers the trainer funds its share of the machine tier here,
        # so the tier's capacity is the sum of its trainers' contributions and
        # total resident memory matches the single-tier configuration.
        hot_capacity, shared_contribution = self.cache_config.split_budget(self.capacity)
        if self.cache_config.tiers >= 2:
            if shared_tier is None:
                raise ValueError(
                    "a two-tier CacheConfig needs the machine's shared tier: pass "
                    "shared_tier=cluster.shared_cache_tier(machine, cache_config)"
                )
            shared_tier.resize(shared_tier.capacity + shared_contribution)
        self.hot_tier = self.cache_config.build_tier(
            "hot", hot_capacity, feature_dim, partition
        )
        tiers: List[CacheTier] = [self.hot_tier]
        self.shared_tier: Optional[CacheTier] = None
        self.controller: Optional[AdaptiveCapacityController] = None
        if self.cache_config.tiers >= 2:
            self.shared_tier = shared_tier
            tiers.append(shared_tier)
            if self.cache_config.adaptive:
                self.controller = AdaptiveCapacityController(
                    self.hot_tier,
                    shared_tier,
                    total_budget=self.capacity,
                    shared_contribution=shared_contribution,
                )
        self.stack = TieredFeatureCache(tiers, self._fetch_missing, feature_dim)

    # ------------------------------------------------------------------ #
    def initialize(self) -> Dict[str, float]:
        """Preload the hot tier with the top-degree halo rows (one-time RPC)."""
        halo = self.partition.halo_global
        capacity = min(self.hot_tier.capacity, len(halo))
        rpc_time = 0.0
        bytes_fetched = 0
        if capacity > 0:
            order = np.argsort(-self.partition.halo_degrees(), kind="stable")
            selected = np.sort(halo[order[:capacity]])
            rows, rpc_time, delta = self.rpc.remote_pull(
                selected, self.partition.halo_owners_of(selected)
            )
            self.hot_tier.seed(selected, rows)
            bytes_fetched = int(delta.bytes_fetched)
            self._remote_nodes_fetched += int(len(selected))
        self._initialized = True
        return {
            "num_prefetched": float(self.hot_tier.size),
            "buffer_capacity": float(capacity),
            "rpc_time_s": rpc_time,
            "bytes_fetched": float(bytes_fetched),
            "buffer_nbytes": float(self.nbytes()),
            "scoreboard_nbytes": 0.0,
            "num_halo_nodes": float(len(halo)),
        }

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        if not self._initialized:
            raise RuntimeError(f"{type(self).__name__}.initialize() must be called before use")
        # The stack validates the ids: that is where they enter the cache.
        features, result = self.stack.fetch(global_ids, self._step)
        self._step += 1
        self._remote_nodes_fetched += result.fetched_rows
        self.tracker.record(result.num_hits, result.num_misses)
        stats = FetchStats(
            num_requested=result.num_requested,
            num_hits=result.num_hits,
            num_misses=result.num_misses,
            rpc_time_s=result.fetch_time_s,
            lookup_nodes=result.lookup_nodes,
            buffer_capacity=self.stack.total_resident,
        )
        return features, stats

    def end_epoch(self) -> None:
        """Epoch boundary: let the adaptive controller re-split tier budgets."""
        if self.controller is not None:
            self.controller.end_epoch(self._step)

    # ------------------------------------------------------------------ #
    def _fetch_missing(self, global_ids: np.ndarray) -> Tuple[np.ndarray, float]:
        """Miss handler behind the stack: one owner-routed RPC pull."""
        rows, rpc_time, _ = self.rpc.remote_pull(
            global_ids, self.partition.halo_owners_of(global_ids)
        )
        return rows, rpc_time

    def nbytes(self) -> int:
        # The shared tier is machine-level (funded by every trainer on the
        # machine); reporting the full stack here reads as "bytes reachable
        # from this trainer", and summaries average level-like keys.
        return self.stack.nbytes()

    def tier_summary(self) -> Dict[str, float]:
        """Cumulative per-tier counters (``tier.{name}.{counter}`` keys)."""
        if self.cache_config.is_default_single_tier:
            return {}
        out = self.stack.summary()
        if self.controller is not None:
            out["controller.adjustments"] = float(len(self.controller.history))
            out["controller.hot_capacity"] = float(self.hot_tier.capacity)
        return out

    def summary(self) -> Dict[str, float]:
        out = {
            "hit_rate": self.tracker.cumulative_hit_rate,
            "buffer_capacity": float(self.stack.total_resident),
            "buffer_nbytes": float(self.nbytes()),
            "remote_nodes_fetched": float(self._remote_nodes_fetched),
        }
        out.update(self.tier_summary())
        return out
