"""Concrete feature sources: local KVStore, remote RPC, prefetch buffer, static cache.

Each source implements the :class:`~repro.features.source.FeatureSource`
protocol over a different data path:

* :class:`LocalKVStoreSource` — memory copies from the trainer's co-located
  partition server (the local half of both pipelines);
* :class:`RemoteRPCSource` — every row pulled from its owning partition over
  simulated RPC (the DistDGL baseline halo path, Eq. 2);
* :class:`BufferedSource` — wraps a :class:`~repro.core.prefetcher.Prefetcher`
  so Algorithms 1–2 (scored prefetch + eviction) serve the halo path, with the
  prefetcher's exact operation counts surfaced as :class:`FetchStats`;
* :class:`StaticDegreeCacheSource` — a degree-ranked cache populated once and
  never updated: the natural ablation showing why continuous eviction beats a
  static cache under stochastic neighbor sampling.  Since the tiered-cache
  subsystem landed it is a thin configuration of :class:`TieredCacheSource`
  (one tier, ``static-degree`` admission, no eviction) — the stats and
  numerics are bit-identical to the historical implementation;
* :class:`TieredCacheSource` — the general policy-pluggable path: a
  per-trainer hot :class:`~repro.cache.tier.CacheTier` optionally backed by a
  machine-shared tier, both sitting in front of the RPC channel (and hence in
  front of the :class:`~repro.distributed.rpc.BatchedRPCChannel`'s coalescing
  window when that channel is selected).

Sources are registered in :data:`FEATURE_SOURCES` and built by name from a
:class:`SourceContext` via :func:`build_feature_source`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.controller import AdaptiveCapacityController
from repro.cache.stack import TieredFeatureCache
from repro.cache.tier import CacheTier
from repro.core.config import PrefetchConfig
from repro.core.eviction import EvictionPolicy, build_eviction_policy
from repro.core.metrics import HitRateTracker
from repro.core.prefetcher import Prefetcher
from repro.distributed.cost_model import BYTES_PER_FEATURE
from repro.distributed.rpc import RPCChannel
from repro.features.source import FetchStats
from repro.graph.halo import GraphPartition
from repro.graph.partition_book import PartitionBook
from repro.utils.registry import Registry


def halo_degree_lookup(partition: GraphPartition) -> Callable[[np.ndarray], np.ndarray]:
    """Degree lookup over the partition's halo (non-halo ids report degree 0)."""
    halo = partition.halo_global
    degrees = partition.halo_degrees()

    def lookup(global_ids: np.ndarray) -> np.ndarray:
        out = np.zeros(len(global_ids), dtype=np.int64)
        if len(halo) and len(global_ids):
            idx = np.minimum(np.searchsorted(halo, global_ids), len(halo) - 1)
            match = halo[idx] == global_ids
            out[match] = degrees[idx[match]]
        return out

    return lookup


def halo_distance_lookup(partition: GraphPartition) -> Callable[[np.ndarray], np.ndarray]:
    """Hop distance from the partition boundary for the scorer's distance feature.

    Partitions only materialize 1-hop halos, so members of the halo table sit
    at distance 1 and anything else (ids seen only through multi-hop fanout)
    reports distance 2 — far enough that the scorer's ``1/distance`` feature
    ranks them below every direct halo neighbor.
    """
    halo = partition.halo_global

    def lookup(global_ids: np.ndarray) -> np.ndarray:
        out = np.full(len(global_ids), 2, dtype=np.int64)
        if len(halo) and len(global_ids):
            idx = np.minimum(np.searchsorted(halo, global_ids), len(halo) - 1)
            out[halo[idx] == global_ids] = 1
        return out

    return lookup


def halo_owners(partition: GraphPartition, global_ids: np.ndarray) -> np.ndarray:
    """Owning partition of each halo node, validating membership.

    Ids that are not halo neighbors of *partition* (e.g. nodes of a
    non-adjacent partition) have no entry in the halo tables; a blind
    ``searchsorted`` would silently return a wrong owner, so reject them.
    Delegates to :meth:`~repro.graph.halo.GraphPartition.halo_owners_of`,
    which the prefetcher's miss path shares.
    """
    return partition.halo_owners_of(global_ids)


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
    """Every requested row is pulled over RPC from its owning partition."""

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
        return cls(rpc, owner_of=lambda global_ids: halo_owners(partition, global_ids))

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

    Wraps one per-trainer :class:`Prefetcher` and preserves its Algorithm 1/2
    semantics exactly — the buffer lookup, S_E decay, S_A increments, the Δ-step
    eviction rounds, and every operation count the cost model charges for.  The
    prefetcher's lifetime step counter (which drives Δ) advances once per
    ``fetch`` call, i.e. once per minibatch.
    """

    name = "buffered"

    def __init__(self, prefetcher: Prefetcher):
        self.prefetcher = prefetcher
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
    config (one tier, ``static-degree`` admission, no eviction) the source is
    bit-identical to the pre-tier :class:`StaticDegreeCacheSource`, which the
    differential tests pin.

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

        degree_of = halo_degree_lookup(partition)
        distance_of = halo_distance_lookup(partition)
        feature_dim = rpc.servers[rpc.local_part].feature_dim
        hot_capacity, shared_contribution = self.cache_config.split_budget(self.capacity)
        self.hot_tier = CacheTier(
            "hot",
            hot_capacity,
            feature_dim,
            admission=self.cache_config.admission,
            eviction=self.cache_config.eviction,
            degree_of=degree_of,
            scorer=self.cache_config.scorer,
            distance_of=distance_of,
            record_decisions=self.cache_config.record_decisions,
        )
        tiers: List[CacheTier] = [self.hot_tier]
        self.shared_tier: Optional[CacheTier] = None
        self.controller: Optional[AdaptiveCapacityController] = None
        if self.cache_config.tiers >= 2:
            if shared_tier is None:
                shared_tier = CacheTier(
                    "shared",
                    0,
                    feature_dim,
                    admission=self.cache_config.shared_admission,
                    eviction=self.cache_config.shared_eviction,
                    degree_of=degree_of,
                    scorer=self.cache_config.scorer,
                    distance_of=distance_of,
                    record_decisions=self.cache_config.record_decisions,
                )
            # Each trainer funds its share of the machine tier; the tier's
            # capacity is the sum of its trainers' contributions.
            shared_tier.resize(shared_tier.capacity + shared_contribution)
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
                selected, halo_owners(self.partition, selected)
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
            global_ids, halo_owners(self.partition, global_ids)
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


class StaticDegreeCacheSource(TieredCacheSource):
    """A top-degree halo cache populated once at initialization, never updated.

    The counterpoint to :class:`BufferedSource`: identical capacity and the
    same degree-ranked initial population, but no scoreboards and no eviction.
    Because neighbor sampling is stochastic, a static cache's hit rate decays
    over training — the phenomenon that motivates the paper's continuous
    prefetch-and-eviction scheme (Section I).

    Implemented as the default single-tier configuration of
    :class:`TieredCacheSource` (``static-degree`` admission, no eviction);
    the regression tests pin its stats and numerics to the historical
    stand-alone implementation.
    """

    name = "static-cache"

    def __init__(self, rpc: RPCChannel, partition: GraphPartition, capacity: int):
        super().__init__(rpc, partition, capacity, cache_config=CacheConfig())

    @property
    def _cached_ids(self) -> np.ndarray:
        """Resident ids, ascending (legacy introspection some tests use)."""
        return self.hot_tier.resident_ids


# --------------------------------------------------------------------------- #
# Registry: sources constructible by name from configs / CLI / benchmarks
# --------------------------------------------------------------------------- #
@dataclass
class SourceContext:
    """Everything a feature-source factory may need for one trainer.

    ``cache_config`` parameterizes the tiered cache sources; ``shared_tier``
    is the machine-shared :class:`~repro.cache.tier.CacheTier` owned by the
    cluster (one per machine) that two-tier stacks compose behind the hot
    tier — every trainer on the machine passes the same instance.
    """

    rpc: RPCChannel
    partition: GraphPartition
    num_global_nodes: int = 0
    book: Optional[PartitionBook] = None
    prefetch_config: Optional[PrefetchConfig] = None
    eviction_policy: Optional[EvictionPolicy] = None
    seed: Optional[int] = None
    cache_config: Optional[CacheConfig] = None
    shared_tier: Optional[CacheTier] = None

    def require_prefetch_config(self, source_name: str) -> PrefetchConfig:
        if self.prefetch_config is None:
            raise ValueError(f"feature source {source_name!r} requires a PrefetchConfig")
        return self.prefetch_config


FEATURE_SOURCES = Registry("feature source")


@FEATURE_SOURCES.register("local-kvstore", aliases=("local",))
def _build_local(ctx: SourceContext) -> LocalKVStoreSource:
    return LocalKVStoreSource(ctx.rpc)


@FEATURE_SOURCES.register("remote-rpc", aliases=("remote", "rpc"))
def _build_remote(ctx: SourceContext) -> RemoteRPCSource:
    if ctx.book is not None:
        return RemoteRPCSource.from_book(ctx.rpc, ctx.book)
    return RemoteRPCSource.from_partition(ctx.rpc, ctx.partition)


@FEATURE_SOURCES.register("buffered", aliases=("buffer", "prefetcher"))
def _build_buffered(ctx: SourceContext) -> BufferedSource:
    config = ctx.require_prefetch_config("buffered")
    policy = ctx.eviction_policy
    if policy is None:
        policy = build_eviction_policy(config.eviction_policy, seed=ctx.seed)
    # A two-tier cache config threads the machine-shared tier into the
    # prefetcher's miss path; the default (None / single tier) keeps the
    # golden-pinned Algorithm 2 accounting bit-identical.  The trainer's row
    # budget is split like the tiered source's: the buffer keeps
    # ``hot_fraction`` of it and the rest funds the machine-shared tier, so
    # total resident memory matches the single-tier configuration.
    shared_tier = None
    if ctx.cache_config is not None and ctx.cache_config.tiers >= 2:
        if ctx.cache_config.adaptive:
            raise ValueError(
                "adaptive capacity control is not supported on the prefetch "
                "(buffered) data path — the buffer is not a resizable cache "
                "tier; use the 'tiered-cache' pipeline instead"
            )
        shared_tier = ctx.shared_tier
        if shared_tier is None:
            # Parity with TieredCacheSource: a two-tier config without a
            # cluster-owned tier still gets a (private) shared tier instead
            # of silently degrading to the single-tier path.
            shared_tier = CacheTier(
                "shared",
                0,
                ctx.rpc.servers[ctx.rpc.local_part].feature_dim,
                admission=ctx.cache_config.shared_admission,
                eviction=ctx.cache_config.shared_eviction,
                degree_of=halo_degree_lookup(ctx.partition),
                scorer=ctx.cache_config.scorer,
                distance_of=halo_distance_lookup(ctx.partition),
                record_decisions=ctx.cache_config.record_decisions,
            )
        num_halo = ctx.partition.num_halo
        budget = config.buffer_capacity(num_halo)
        hot_capacity, shared_contribution = ctx.cache_config.split_budget(budget)
        if num_halo > 0 and budget > 0:
            config = dataclasses.replace(
                config, halo_fraction=min(1.0, hot_capacity / num_halo)
            )
        shared_tier.resize(shared_tier.capacity + shared_contribution)
    prefetcher = Prefetcher(
        partition=ctx.partition,
        config=config,
        rpc=ctx.rpc,
        num_global_nodes=ctx.num_global_nodes,
        eviction_policy=policy,
        shared_tier=shared_tier,
    )
    return BufferedSource(prefetcher)


@FEATURE_SOURCES.register("static-cache", aliases=("static", "static-degree"))
def _build_static_cache(ctx: SourceContext) -> StaticDegreeCacheSource:
    config = ctx.require_prefetch_config("static-cache")
    capacity = config.buffer_capacity(ctx.partition.num_halo)
    return StaticDegreeCacheSource(ctx.rpc, ctx.partition, capacity)


@FEATURE_SOURCES.register("tiered-cache", aliases=("tiered", "tiers"))
def _build_tiered_cache(ctx: SourceContext) -> TieredCacheSource:
    config = ctx.require_prefetch_config("tiered-cache")
    capacity = config.buffer_capacity(ctx.partition.num_halo)
    return TieredCacheSource(
        ctx.rpc,
        ctx.partition,
        capacity,
        cache_config=ctx.cache_config,
        shared_tier=ctx.shared_tier,
    )


def build_feature_source(name: str, ctx: SourceContext):
    """Build a registered feature source by name for one trainer's context."""
    return FEATURE_SOURCES.build(name, ctx)
