"""The one in-process run state under both cluster drivers.

The lockstep :class:`~repro.training.cluster_engine.ClusterEngine` and the
event-driven :class:`~repro.training.async_engine.AsyncClusterEngine` decide
*which* trainer steps *when*; everything else about a run lives here once, in
:class:`ClusterRun`: setup, per-rank epoch iterators and step counters, the
one call site of :func:`~repro.training.engine.train_step`, the
allreduce-barrier charge, the epoch tallies and the final report — one loop
body under two schedulers.  Everything runs serially in the calling process —
simulated seconds are the product, and a host-side worker pool cannot buy
one — so :meth:`ClusterRun.step` simply returns what the step produced.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import SimCluster
from repro.features.store import merge_store_summaries
from repro.training.cluster_engine import (
    ClusterReport,
    collect_trainer_stats,
    prepare_cluster_run,
)
from repro.training.config import TrainConfig
from repro.training.engine import (
    PipelineBuilder,
    apply_averaged_gradients,
    assemble_training_report,
    train_step,
)
from repro.training.telemetry import EpochRecord


class ClusterRun:
    """Setup, step execution and bookkeeping of one cluster training run."""

    def __init__(
        self,
        cluster: SimCluster,
        train_config: TrainConfig,
        pipeline: Union[str, PipelineBuilder],
        prefetch_config: Optional[PrefetchConfig],
        cache_config: Optional[CacheConfig],
    ):
        self.cluster = cluster
        self.config = train_config
        self.prefetch_config = prefetch_config
        self.setup = prepare_cluster_run(
            cluster, train_config, pipeline, prefetch_config, cache_config
        )
        world = len(cluster.trainers)
        # Lifetime steps per trainer: drives Δ / Eq. 4 inside the timing
        # policies and indexes the async engine's failure schedule.
        self.trainer_steps = [0] * world
        self.barrier_waits = [0.0] * world
        self.total_minibatches = 0
        self.epoch_records: List[EpochRecord] = []
        self._epoch_start = self.now()

    def now(self) -> float:
        """Cluster-wide simulated time: the furthest-ahead trainer clock."""
        return max((t.clock.time for t in self.cluster.trainers), default=0.0)

    def begin_epoch(self) -> None:
        """Open fresh epoch iterators on every pipeline and reset the tallies."""
        self._iterators = [iter(pl.epoch()) for pl in self.setup.pipelines]
        self._losses: List[float] = []
        self._correct = 0
        self._seen = 0

    def step(
        self, rank: int, round_id: int, before_compute: Optional[Callable[[int], None]] = None
    ) -> Optional[tuple]:
        """Run *rank*'s next minibatch step; ``None`` once its epoch is exhausted.

        Returns ``train_step``'s ``(timing, loss, n_correct, n_seen, grads)``.
        The trainer's RPC coalescing window is opened for *round_id* before
        the pipeline generator advances — the halo fetch runs inside
        ``next()``; same-machine trainers in the same round share the window
        (``begin_step`` with an unchanged id is idempotent).  ``before_compute``
        fires between the fetch and the forward pass, which is where a
        replica-owning sync policy loads the trainer's own parameters.
        """
        trainer = self.cluster.trainers[rank]
        trainer.rpc.begin_step(round_id)
        try:
            batch = next(self._iterators[rank])
        except StopIteration:
            return None
        if before_compute is not None:
            before_compute(rank)
        setup = self.setup
        result = train_step(
            setup.cost_models[rank],
            trainer,
            batch,
            setup.model,
            setup.pipelines[rank].timing,
            self.trainer_steps[rank],
        )
        self.trainer_steps[rank] += 1
        self.total_minibatches += 1
        setup.accumulators[rank].add(result[0])
        return result

    def record(self, loss: float, n_correct: int, n_seen: int) -> None:
        """Count one finished step towards the epoch's loss/accuracy tallies."""
        self._losses.append(loss)
        self._correct += n_correct
        self._seen += n_seen

    def allreduce_barrier(self, participated: List[int]) -> None:
        """Charge one allreduce, then hold every trainer at the barrier.

        The participants pay the collective; then *every* trainer (active or
        not) is advanced to the global max.  The wait each trainer spends for
        the round's straggler is measured before its clock moves, so barrier
        wait stays separable from the pipeline's own stalls.
        """
        trainers = self.cluster.trainers
        allreduce_t = self.cluster.cost_model.time_allreduce(self.setup.num_params, len(trainers))
        for i in participated:
            trainers[i].clock.advance(allreduce_t, "allreduce")
            self.setup.accumulators[i].totals["allreduce"] += allreduce_t
        latest = max(t.clock.time for t in trainers)
        for i, trainer in enumerate(trainers):
            wait = latest - trainer.clock.time
            if wait > 0:
                self.barrier_waits[i] += wait
                trainer.clock.advance(wait, "stall")

    def apply_update(self, averaged: Dict[str, np.ndarray]) -> bool:
        """Apply one averaged gradient to the shared model replica."""
        return apply_averaged_gradients(self.setup.optimizer, self.setup.model, averaged)

    def finish_epoch(self) -> None:
        """Close the epoch: append its :class:`EpochRecord`, roll the stores over."""
        pipelines = self.setup.pipelines
        epoch_end = self.now()
        hit_rates = [pl.hit_rate for pl in pipelines]
        hit_rates = [h for h in hit_rates if h is not None]
        self.epoch_records.append(
            EpochRecord(
                epoch=len(self.epoch_records),
                simulated_time_s=epoch_end - self._epoch_start,
                loss=float(np.mean(self._losses)) if self._losses else 0.0,
                train_accuracy=self._correct / self._seen if self._seen else 0.0,
                hit_rate=float(np.mean(hit_rates)) if hit_rates else None,
            )
        )
        self._epoch_start = epoch_end
        for pl in pipelines:
            pl.feature_store.end_epoch()

    def finish(
        self,
        scenario: Optional[str],
        sync_extras: Optional[List[Dict[str, float]]] = None,
        engine: Optional[str] = None,
        sync: Optional[str] = None,
    ) -> ClusterReport:
        """Assemble the run's report and per-trainer telemetry roll-up.

        ``sync_extras``/``engine``/``sync`` are the event-driven engine's
        provenance; lockstep reports leave them unset.
        """
        setup = self.setup
        report = assemble_training_report(
            mode=setup.mode,
            cluster=self.cluster,
            train_config=self.config,
            pipelines=setup.pipelines,
            accumulators=setup.accumulators,
            epoch_records=self.epoch_records,
            init_reports=setup.init_reports,
            total_minibatches=self.total_minibatches,
            wall_clock_s=time.perf_counter() - setup.wall_start,
            model=setup.model,
            prefetch_config=self.prefetch_config,
        )
        trainer_stats = collect_trainer_stats(
            self.cluster, setup.pipelines, self.trainer_steps, self.barrier_waits, sync_extras
        )
        return ClusterReport(
            report=report,
            trainer_stats=trainer_stats,
            scenario=scenario,
            store_summary=merge_store_summaries(t.store_summary for t in trainer_stats),
            engine=engine,
            sync=sync,
        )
