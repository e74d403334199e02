"""Named pipeline configurations and their simulated-time accounting.

The engine runs whatever :class:`~repro.sampling.pipeline.MiniBatchPipeline`
it is given; *this* module decides what the named pipelines are made of:

* ``baseline`` — DistDGL data path: halo features over plain RPC, accounted
  serially (Eq. 2, with communication stall per Eq. 9);
* ``prefetch`` — MassiveGNN data path: halo features through the scored
  prefetch buffer (Algorithms 1–2), with minibatch preparation overlapping
  DDP training (Eqs. 3–5);
* ``static-cache`` — ablation: a degree-ranked cache populated once, same
  overlap accounting as ``prefetch`` but no scoreboards or eviction (the
  tier stack under the default :class:`~repro.cache.config.CacheConfig`);
* ``tiered-cache`` — the policy-pluggable tier stack (``repro.cache``): a
  per-trainer hot tier plus an optional machine-shared tier in front of RPC,
  with admission/eviction selected by a
  :class:`~repro.cache.config.CacheConfig`.

:data:`PIPELINES` is the one lookup between a pipeline name and a trainer's
data path.  Each builder constructs, per trainer, the two feature sources it
wants, the :class:`~repro.features.store.FeatureStore` over them, the four
chained stages, and the timing policy mapping component costs onto the
trainer's simulated clock.  A custom strategy is a callable with the
builders' ``(trainer, cluster, prefetch_config, cache_config)`` signature
passed as ``pipeline=`` — the same builders serve the lockstep
:class:`~repro.training.cluster_engine.ClusterEngine`, the event-driven
:class:`~repro.training.async_engine.AsyncClusterEngine` and the serving
engine (selected from :data:`~repro.training.engines.ENGINES`), which is what
keeps their numerics differentially testable against each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.features.sources import (
    BufferedSource,
    LocalKVStoreSource,
    RemoteRPCSource,
    TieredCacheSource,
)
from repro.features.store import FeatureStore
from repro.perf.model import (
    baseline_step_time,
    communication_stall_time,
    prefetch_first_step_time,
    prefetch_steady_step_time,
    prepare_time,
)
from repro.sampling.pipeline import (
    BatchStage,
    FetchFeatureStage,
    MiniBatchPipeline,
    SampleStage,
    SeedStage,
)
from repro.training.telemetry import StepTiming
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.clock import SimClock
    from repro.distributed.cluster import SimCluster, TrainerContext


# --------------------------------------------------------------------------- #
# Timing policies: component times -> critical path and clock advances
# --------------------------------------------------------------------------- #
class SerialTimingPolicy:
    """Eq. 2: sample, fetch, then train — nothing overlaps.

    Both equations come from :mod:`repro.perf.model`; the clock's ``rpc``
    component takes only the stall beyond the local copy (Eq. 9).
    """

    name = "serial"
    overlaps_preparation = False

    def account(self, timing: StepTiming, trainer_step: int, clock: "SimClock") -> None:
        critical = baseline_step_time(timing.sampling, timing.rpc, timing.copy, timing.ddp)
        clock.advance(timing.sampling, "sampling")
        clock.advance(timing.copy, "copy")
        clock.advance(communication_stall_time(timing.rpc, timing.copy), "rpc")
        clock.advance(timing.ddp, "ddp")
        timing.prepare = 0.0
        timing.hidden = 0.0
        timing.critical_path = critical


class OverlappedTimingPolicy:
    """Eqs. 3–5: preparation of the next minibatch overlaps DDP training.

    All three come from :mod:`repro.perf.model`.  Scoring plus eviction
    overlaps the RPC fetch of missed nodes (Eq. 3); the very first minibatch
    cannot reuse a prefetched batch (Eq. 4); after it, only the un-hidden
    part of preparation stalls the trainer (Eq. 5).
    """

    name = "overlapped"
    overlaps_preparation = True

    def account(self, timing: StepTiming, trainer_step: int, clock: "SimClock") -> None:
        prepare = prepare_time(
            timing.sampling, timing.lookup, timing.scoring + timing.eviction,
            timing.rpc, timing.copy,
        )
        timing.prepare = prepare
        if trainer_step == 0:
            critical = prefetch_first_step_time(prepare, timing.ddp)
        else:
            critical = prefetch_steady_step_time(prepare, timing.ddp)
        timing.hidden = min(prepare, timing.ddp)
        clock.advance(timing.ddp, "ddp")
        clock.advance(max(0.0, critical - timing.ddp), "stall")
        timing.critical_path = critical


# --------------------------------------------------------------------------- #
# Pipeline builders
# --------------------------------------------------------------------------- #
PIPELINES = Registry("pipeline")

# Pipelines with no tier stack to configure: a CacheConfig handed to one of
# them would be dropped, so their builders refuse it.
CACHELESS_PIPELINES = frozenset({"baseline", "static-cache"})


def _assemble(trainer: "TrainerContext", halo_source, timing, name: str) -> MiniBatchPipeline:
    """The canonical four-stage chain over one trainer's loader and a fresh store.

    Owned rows always come from the co-located KVStore; ``halo_source``
    serves the rest and ``timing`` is the accounting model
    (:class:`SerialTimingPolicy` / :class:`OverlappedTimingPolicy`).
    """
    store = FeatureStore(
        partition=trainer.partition,
        local_source=LocalKVStoreSource(trainer.rpc),
        halo_source=halo_source,
    )
    pipeline = (
        SeedStage(trainer.dataloader.seed_iterator)
        >> SampleStage(trainer.dataloader)
        >> FetchFeatureStage(store)
        >> BatchStage()
    )
    return pipeline.configure(
        timing=timing,
        name=name,
        feature_store=store,
        init_report=store.initialize(),
    )


def _require(name: str, prefetch_config: Optional[PrefetchConfig], why: str = "") -> PrefetchConfig:
    if prefetch_config is None:
        raise ValueError(f"the {name!r} pipeline requires a PrefetchConfig{why}")
    return prefetch_config


def _reject_cache_config(name: str, cache_config: Optional[CacheConfig]) -> None:
    if cache_config is not None:
        raise ValueError(
            f"a CacheConfig (--cache-tiers/--admission/--eviction/--adaptive-cache) "
            f"has no effect on the {name!r} pipeline; use pipeline 'tiered-cache' "
            f"(or 'prefetch', which consumes the machine-shared tier)"
        )


@PIPELINES.register("baseline", aliases=("distdgl",))
def build_baseline_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    _reject_cache_config("baseline", cache_config)
    halo = RemoteRPCSource.from_book(trainer.rpc, cluster.book)
    return _assemble(trainer, halo, SerialTimingPolicy(), "baseline")


@PIPELINES.register("prefetch", aliases=("massivegnn",))
def build_prefetch_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    halo = BufferedSource(
        trainer.rpc,
        trainer.partition,
        _require("prefetch", prefetch_config),
        num_global_nodes=cluster.dataset.num_nodes,
        seed=cluster.config.seed,
        cache_config=cache_config,
        shared_tier=cluster.shared_cache_tier(trainer.machine, cache_config),
    )
    return _assemble(trainer, halo, OverlappedTimingPolicy(), "prefetch")


@PIPELINES.register("static-cache", aliases=("static",))
def build_static_cache_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    _reject_cache_config("static-cache", cache_config)
    config = _require(
        "static-cache", prefetch_config, " (its halo_fraction sets the cache capacity)"
    )
    halo = TieredCacheSource(
        trainer.rpc, trainer.partition, config.buffer_capacity(trainer.partition.num_halo)
    )
    return _assemble(trainer, halo, OverlappedTimingPolicy(), "static-cache")


@PIPELINES.register("tiered-cache", aliases=("tiered",))
def build_tiered_cache_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    """Halo features through the tiered cache stack (see ``repro.cache``).

    ``prefetch_config.halo_fraction`` still sets the trainer's row budget (so
    tiered runs are memory-comparable with ``prefetch``/``static-cache``);
    the :class:`CacheConfig` decides how that budget is split across tiers
    and which admission/eviction policies govern them.
    """
    config = _require(
        "tiered-cache", prefetch_config, " (its halo_fraction sets the cache budget)"
    )
    halo = TieredCacheSource(
        trainer.rpc,
        trainer.partition,
        config.buffer_capacity(trainer.partition.num_halo),
        cache_config=cache_config,
        shared_tier=cluster.shared_cache_tier(trainer.machine, cache_config),
    )
    return _assemble(trainer, halo, OverlappedTimingPolicy(), "tiered-cache")


def build_pipeline(
    name: str,
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    """Build the named pipeline for one trainer (see :data:`PIPELINES`)."""
    return PIPELINES.build(name, trainer, cluster, prefetch_config, cache_config)
