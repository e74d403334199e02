"""Per-trainer run artifacts: the engine/report data boundary.

Report assembly does not read live objects — trainer clocks, RPC channels,
pipeline feature stores — directly.  :func:`collect_trainer_artifacts` takes a
:class:`TrainerArtifacts` snapshot of each trainer at the end of a run:
everything :func:`~repro.training.engine.assemble_training_report` and
:func:`~repro.training.cluster_engine.collect_trainer_stats` need, as plain
data, so both read the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.metrics import HitRateTracker
from repro.distributed.cluster import SimCluster, TrainerContext
from repro.distributed.rpc import RPCStats
from repro.sampling.pipeline import MiniBatchPipeline
from repro.training.telemetry import ComponentAccumulator


@dataclass
class TrainerArtifacts:
    """One trainer's end-of-run telemetry as plain data."""

    global_rank: int
    machine: int
    local_rank: int
    clock_time: float
    clock_breakdown: Dict[str, float]
    rpc_stats: RPCStats
    accumulator: ComponentAccumulator
    overlaps_preparation: bool = False
    hit_rate: Optional[float] = None
    hit_tracker: Optional[HitRateTracker] = None
    # None when the trainer's pipeline has no prefetcher / feature store, so
    # report extras stay gated exactly as with live objects.
    prefetcher_buffer_nbytes: Optional[float] = None
    prefetcher_scoreboard_nbytes: Optional[float] = None
    prefetcher_remote_nodes_fetched: Optional[float] = None
    feature_store_nbytes: Optional[float] = None
    store_summary: Optional[Dict[str, float]] = None
    cache_summary: Dict[str, float] = field(default_factory=dict)


def trainer_artifacts(
    trainer: TrainerContext,
    pipeline: MiniBatchPipeline,
    accumulator: ComponentAccumulator,
) -> TrainerArtifacts:
    """Snapshot one trainer's live objects into a :class:`TrainerArtifacts`."""
    pl = pipeline
    prefetcher = pl.prefetcher
    store = pl.feature_store
    return TrainerArtifacts(
        global_rank=trainer.global_rank,
        machine=trainer.machine,
        local_rank=trainer.local_rank,
        clock_time=trainer.clock.time,
        clock_breakdown=trainer.clock.breakdown(),
        rpc_stats=trainer.rpc.stats,
        accumulator=accumulator,
        overlaps_preparation=(
            pl.timing is not None and getattr(pl.timing, "overlaps_preparation", False)
        ),
        hit_rate=pl.hit_rate,
        hit_tracker=pl.hit_tracker,
        prefetcher_buffer_nbytes=(
            float(prefetcher.buffer_nbytes()) if prefetcher is not None else None
        ),
        prefetcher_scoreboard_nbytes=(
            float(prefetcher.scoreboard_nbytes()) if prefetcher is not None else None
        ),
        prefetcher_remote_nodes_fetched=(
            float(prefetcher.counters.remote_nodes_fetched)
            if prefetcher is not None
            else None
        ),
        feature_store_nbytes=float(store.nbytes()) if store is not None else None,
        store_summary=store.summary() if store is not None else None,
        cache_summary=(
            store.cache_summary()
            if store is not None and hasattr(store, "cache_summary")
            else {}
        ),
    )


def collect_trainer_artifacts(
    cluster: SimCluster,
    pipelines: List[MiniBatchPipeline],
    accumulators: List[ComponentAccumulator],
) -> List[TrainerArtifacts]:
    """Snapshot every trainer of *cluster*, in global-rank order."""
    return [
        trainer_artifacts(trainer, pl, acc)
        for trainer, pl, acc in zip(cluster.trainers, pipelines, accumulators)
    ]
