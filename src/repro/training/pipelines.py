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
data path.  Each entry is a :class:`PipelineRow`: where halo features come
from, which timing policy maps component costs onto the trainer's simulated
clock, and which configs the data path reads.  :func:`build_pipeline` is the
one builder: it checks the configs against the row, composes the
:class:`~repro.features.store.FeatureStore` and returns the trainer's
:class:`~repro.sampling.pipeline.MiniBatchPipeline`.  Everything else that
asks "does this pipeline read a PrefetchConfig / CacheConfig?" (the scenario
workload, ``repro run``, the memory profile) asks the row.

A custom strategy is a callable with the ``(trainer, cluster,
prefetch_config, cache_config)`` signature returning a
``MiniBatchPipeline(...)``, passed as ``pipeline=`` — registered names and
callables serve the lockstep
:class:`~repro.training.cluster_engine.ClusterEngine`, the event-driven
:class:`~repro.training.async_engine.AsyncClusterEngine` and the serving
engine (selected from :data:`~repro.training.engines.ENGINES`) alike, which
is what keeps their numerics differentially testable against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.features.source import FeatureSource
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
from repro.sampling.pipeline import MiniBatchPipeline
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
# Halo sources: (trainer, cluster, prefetch_config, cache_config) -> source
# --------------------------------------------------------------------------- #
def _remote_rpc(trainer, cluster, prefetch_config, cache_config) -> RemoteRPCSource:
    return RemoteRPCSource.from_book(trainer.rpc, cluster.book)


def _prefetch_buffer(trainer, cluster, prefetch_config, cache_config) -> BufferedSource:
    return BufferedSource(
        trainer.rpc,
        trainer.partition,
        prefetch_config,
        num_global_nodes=cluster.dataset.num_nodes,
        seed=cluster.config.seed,
        cache_config=cache_config,
        shared_tier=cluster.shared_cache_tier(trainer.machine, cache_config),
    )


def _tiered_cache(trainer, cluster, prefetch_config, cache_config) -> TieredCacheSource:
    """The tier stack at the trainer's row budget.

    ``prefetch_config.halo_fraction`` sets the budget, so cached runs are
    memory-comparable with ``prefetch``; the CacheConfig (default: the
    degree-ranked static cache) splits it across tiers.
    """
    return TieredCacheSource(
        trainer.rpc,
        trainer.partition,
        prefetch_config.buffer_capacity(trainer.partition.num_halo),
        cache_config=cache_config,
        shared_tier=cluster.shared_cache_tier(trainer.machine, cache_config),
    )


# --------------------------------------------------------------------------- #
# The pipeline table and its one builder
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PipelineRow:
    """One named data path: a row of :data:`PIPELINES`.

    ``budget_clause`` finishes the "requires a PrefetchConfig" message with
    what the config is for.
    """

    halo_source: Callable[..., FeatureSource]
    timing: Callable[[], object]
    reads_prefetch_config: bool
    reads_cache_config: bool
    budget_clause: str = ""


PIPELINES = Registry("pipeline")
PIPELINES.register("baseline", PipelineRow(
    _remote_rpc, SerialTimingPolicy, reads_prefetch_config=False, reads_cache_config=False,
), aliases=("distdgl",))
PIPELINES.register("prefetch", PipelineRow(
    _prefetch_buffer, OverlappedTimingPolicy, reads_prefetch_config=True, reads_cache_config=True,
), aliases=("massivegnn",))
PIPELINES.register("static-cache", PipelineRow(
    _tiered_cache, OverlappedTimingPolicy, reads_prefetch_config=True, reads_cache_config=False,
    budget_clause=" (its halo_fraction sets the cache capacity)",
), aliases=("static",))
PIPELINES.register("tiered-cache", PipelineRow(
    _tiered_cache, OverlappedTimingPolicy, reads_prefetch_config=True, reads_cache_config=True,
    budget_clause=" (its halo_fraction sets the cache budget)",
), aliases=("tiered",))


def build_pipeline(
    name: str,
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    """Build the named pipeline for one trainer (see :data:`PIPELINES`).

    A config the row does not read raises ``ValueError`` rather than being
    dropped, and so does a missing PrefetchConfig the row needs.  Owned rows
    always come from the co-located KVStore; the row's source serves the halo.
    """
    name = PIPELINES.resolve(name)
    row: PipelineRow = PIPELINES.get(name)
    if cache_config is not None and not row.reads_cache_config:
        raise ValueError(
            f"a CacheConfig (--cache-tiers/--admission/--eviction/--adaptive-cache) "
            f"has no effect on the {name!r} pipeline; use pipeline 'tiered-cache' "
            f"(or 'prefetch', which consumes the machine-shared tier)"
        )
    if prefetch_config is None and row.reads_prefetch_config:
        raise ValueError(f"the {name!r} pipeline requires a PrefetchConfig{row.budget_clause}")
    if prefetch_config is not None and not row.reads_prefetch_config:
        raise ValueError(
            f"a PrefetchConfig has no effect on the {name!r} pipeline; pass none, "
            f"or pick a pipeline that reads one"
        )
    halo = row.halo_source(trainer, cluster, prefetch_config, cache_config)
    store = FeatureStore(
        partition=trainer.partition,
        local_source=LocalKVStoreSource(trainer.rpc),
        halo_source=halo,
    )
    return MiniBatchPipeline(trainer.dataloader, store, row.timing(), name)
