"""Concrete feature sources: local KVStore, remote RPC, prefetch buffer, tiered cache.

Each source implements the :class:`~repro.features.source.FeatureSource`
protocol over a different data path:

* :class:`LocalKVStoreSource` — memory copies from the trainer's co-located
  partition server (the local half of both pipelines);
* :class:`RemoteRPCSource` — every row pulled from its owning partition over
  simulated RPC (the DistDGL baseline halo path, Eq. 2);
* :class:`BufferedSource` — owns a :class:`~repro.core.prefetcher.Prefetcher`
  so Algorithms 1–2 (scored prefetch + eviction) serve the halo path, with the
  prefetcher's exact operation counts surfaced as :class:`FetchStats`;
* :class:`TieredCacheSource` — the general policy-pluggable path: a
  per-trainer hot :class:`~repro.cache.tier.CacheTier` optionally backed by a
  machine-shared tier, both sitting in front of the RPC channel (and hence in
  front of the :class:`~repro.distributed.rpc.BatchedRPCChannel`'s coalescing
  window when that channel is selected).  With the default
  :class:`~repro.cache.config.CacheConfig` it is the degree-ranked static
  cache — populated once, never updated — the ablation showing why continuous
  eviction beats a static cache under stochastic neighbor sampling.

Sources are plain classes: each row of
:data:`~repro.training.pipelines.PIPELINES` names the halo source it wants,
and :func:`~repro.training.pipelines.build_pipeline` hands the objects to a
:class:`~repro.features.store.FeatureStore`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.controller import AdaptiveCapacityController
from repro.cache.stack import TieredFeatureCache
from repro.cache.tier import CacheTier
from repro.core.config import PrefetchConfig
from repro.core.eviction import build_eviction_policy
from repro.core.metrics import HitRateTracker
from repro.core.prefetcher import Prefetcher
from repro.distributed.cost_model import BYTES_PER_FEATURE
from repro.distributed.rpc import RPCChannel
from repro.features.source import FetchStats
from repro.graph.halo import GraphPartition
from repro.graph.partition_book import PartitionBook
from repro.utils.rng import SeedLike


def _split_budget(
    cache_config: CacheConfig, shared_tier: Optional[CacheTier], budget: int
) -> Tuple[int, int]:
    """``(hot_capacity, shared_contribution)`` of one trainer's row *budget*.

    With two tiers the trainer funds its share of the machine tier here, so
    the tier's capacity is the sum of its trainers' contributions and total
    resident memory matches the single-tier configuration.
    """
    hot_capacity, shared_contribution = cache_config.split_budget(budget)
    if cache_config.tiers >= 2:
        if shared_tier is None:
            raise ValueError(
                "a two-tier CacheConfig needs the machine's shared tier: pass "
                "shared_tier=cluster.shared_cache_tier(machine, cache_config)"
            )
        shared_tier.resize(shared_tier.capacity + shared_contribution)
    return hot_capacity, shared_contribution


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
            return np.zeros((0, self.feature_dim), dtype=np.float32), FetchStats(source=self.name)
        rows, copy_time = self.rpc.local_pull(global_ids)
        self._rows_served += int(len(global_ids))
        self._calls += 1
        stats = FetchStats(
            source=self.name,
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

    A zero-capacity :class:`TieredCacheSource` is not a drop-in for it.  Run
    as ``baseline``'s halo source on the fixed-seed 2x2 golden workload, it
    repeats the clocks, the critical path, the RPC counters and the losses
    exactly, but it charges Fig. 9's ``lookup`` component (0 → 1.33e-5 s per
    trainer), reports a hit rate of 0.0 instead of none, adds an init report
    (and the clock's ``init`` key) and renames the store-summary keys.  That
    would move ``single_run.json`` and the Fig. 9 table, so this class stays.
    """

    name = "remote-rpc"

    def __init__(self, rpc: RPCChannel, owner_of: Callable[[np.ndarray], np.ndarray]):
        self.rpc = rpc
        self.owner_of = owner_of
        self._rows_served = 0
        self._calls = 0

    @classmethod
    def from_book(cls, rpc: RPCChannel, book: PartitionBook) -> "RemoteRPCSource":
        """Route ownership lookups through the cluster's partition book."""
        return cls(rpc, owner_of=book.owner)

    @classmethod
    def from_partition(cls, rpc: RPCChannel, partition: GraphPartition) -> "RemoteRPCSource":
        """Route ownership lookups through the partition's halo tables."""
        return cls(rpc, owner_of=partition.halo_owners_of)

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        if len(global_ids) == 0:
            # Zero rows after routing means zero RPCs: skip the pull entirely
            # so the call/request counters only ever reflect real traffic.
            dim = self.rpc.servers[self.rpc.local_part].feature_dim
            return np.zeros((0, dim), dtype=np.float32), FetchStats(source=self.name)
        owners = self.owner_of(global_ids)
        rows, rpc_time, delta = self.rpc.remote_pull(global_ids, owners)
        self._rows_served += int(len(global_ids))
        self._calls += 1
        stats = FetchStats(
            source=self.name,
            num_requested=int(len(global_ids)),
            num_misses=int(len(global_ids)),
            rpc_time_s=rpc_time,
            bytes_fetched=int(delta.bytes_fetched),
            remote_nodes_fetched=int(len(global_ids)),
        )
        return rows, stats

    def nbytes(self) -> int:
        return 0  # nothing cached trainer-side

    def summary(self) -> Dict[str, float]:
        return {"calls": float(self._calls), "rows_served": float(self._rows_served)}


class BufferedSource:
    """The MassiveGNN data path: a scored prefetch buffer in front of RPC.

    Owns one per-trainer :class:`Prefetcher` and preserves its Algorithm 1/2
    semantics exactly — the buffer lookup, S_E decay, S_A increments, the Δ-step
    eviction rounds, and every operation count the cost model charges for.  The
    prefetcher's lifetime step counter (which drives Δ) advances once per
    ``fetch`` call, i.e. once per minibatch.

    ``config.eviction_policy`` names the policy, built here with *seed* so
    every trainer owns its instance (and its RNG stream).  A two-tier
    ``cache_config`` threads the machine-shared tier into the prefetcher's
    miss path and splits the trainer's row budget like
    :class:`TieredCacheSource` does: the buffer keeps ``hot_fraction`` of it
    and the rest funds the shared tier.  ``None`` or a single tier keeps the
    golden-pinned Algorithm 2 accounting bit-identical.
    """

    name = "buffered"

    def __init__(
        self,
        rpc: RPCChannel,
        partition: GraphPartition,
        config: PrefetchConfig,
        num_global_nodes: int,
        seed: SeedLike = None,
        cache_config: Optional[CacheConfig] = None,
        shared_tier: Optional[CacheTier] = None,
    ):
        if cache_config is None or cache_config.tiers < 2:
            shared_tier = None
        else:
            if cache_config.adaptive:
                raise ValueError(
                    "adaptive capacity control is not supported on the prefetch "
                    "(buffered) data path — the buffer is not a resizable cache "
                    "tier; use the 'tiered-cache' pipeline instead"
                )
            num_halo = partition.num_halo
            budget = config.buffer_capacity(num_halo)
            hot_capacity, _ = _split_budget(cache_config, shared_tier, budget)
            if num_halo > 0 and budget > 0:
                config = dataclasses.replace(
                    config, halo_fraction=min(1.0, hot_capacity / num_halo)
                )
        self.prefetcher = Prefetcher(
            partition=partition,
            config=config,
            rpc=rpc,
            num_global_nodes=num_global_nodes,
            eviction_policy=build_eviction_policy(config.eviction_policy, seed=seed),
            shared_tier=shared_tier,
        )
        self._step = 0

    @property
    def tracker(self) -> HitRateTracker:
        return self.prefetcher.tracker

    def initialize(self) -> Dict[str, float]:
        """Populate the buffer (one-time RPC); returns the Fig. 8 init report."""
        return self.prefetcher.initialize().as_dict()

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        result = self.prefetcher.process_minibatch(global_ids, step=self._step)
        self._step += 1
        tier_counters: Dict[str, float] = {}
        if self.prefetcher.shared_tier is not None:
            tier_counters = {
                "shared.hits": float(result.shared_tier_hits),
                "shared.misses": float(result.shared_tier_misses),
            }
        stats = FetchStats(
            source=self.name,
            num_requested=result.num_requested,
            num_hits=result.num_hits,
            num_misses=result.num_misses,
            rpc_time_s=result.rpc_time_s,
            bytes_fetched=int(
                result.remote_nodes_fetched * result.features.shape[1] * BYTES_PER_FEATURE
            ),
            remote_nodes_fetched=result.remote_nodes_fetched,
            lookup_nodes=result.lookup_nodes,
            scoring_nodes=result.scoring_nodes,
            eviction_round=result.eviction_round,
            nodes_evicted=result.nodes_evicted,
            nodes_replaced=result.nodes_replaced,
            buffer_capacity=result.buffer_capacity,
            tier_counters=tier_counters,
        )
        return result.features, stats

    def nbytes(self) -> int:
        return self.prefetcher.buffer_nbytes() + self.prefetcher.scoreboard_nbytes()

    def tier_summary(self) -> Dict[str, float]:
        """Shared-tier counters when the miss path routes through one."""
        tier = self.prefetcher.shared_tier
        if tier is None:
            return {}
        return {f"tier.shared.{key}": float(value) for key, value in tier.summary().items()}

    def summary(self) -> Dict[str, float]:
        out = self.prefetcher.summary()
        out.update(self.tier_summary())
        return out


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
    counterpoint to :class:`BufferedSource` whose hit rate decays over
    training because neighbor sampling is stochastic (Section I).

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
        hot_capacity, shared_contribution = _split_budget(
            self.cache_config, shared_tier, self.capacity
        )
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
                    min_tier_fraction=self.cache_config.min_tier_fraction,
                    max_shift_fraction=self.cache_config.max_shift_fraction,
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
            source=self.name,
            num_requested=result.num_requested,
            num_hits=result.num_hits,
            num_misses=result.num_misses,
            rpc_time_s=result.fetch_time_s,
            bytes_fetched=result.bytes_fetched,
            remote_nodes_fetched=result.fetched_rows,
            lookup_nodes=result.lookup_nodes,
            buffer_capacity=self.stack.total_resident,
            tier_counters=(
                {} if self.cache_config.is_default_single_tier else result.tier_counters
            ),
        )
        return features, stats

    def end_epoch(self) -> None:
        """Epoch boundary: re-split tier budgets and step the online scorers."""
        if self.controller is not None:
            self.controller.end_epoch(self._step)
        self.hot_tier.end_epoch()
        if self.shared_tier is not None:
            self.shared_tier.end_epoch()

    # ------------------------------------------------------------------ #
    def _fetch_missing(self, global_ids: np.ndarray) -> Tuple[np.ndarray, float, int]:
        """Miss handler behind the stack: one owner-routed RPC pull."""
        rows, rpc_time, delta = self.rpc.remote_pull(
            global_ids, self.partition.halo_owners_of(global_ids)
        )
        return rows, rpc_time, int(delta.bytes_fetched)

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
