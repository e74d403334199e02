"""Cluster-scale pipeline execution: every trainer runs its own pipeline.

:class:`ClusterEngine` instantiates one registered
:class:`~repro.sampling.pipeline.MiniBatchPipeline` per
:class:`~repro.distributed.cluster.TrainerContext` — each trainer with its own
:class:`~repro.features.store.FeatureStore`, RNG streams, and
:class:`~repro.distributed.clock.SimClock` — and steps them epoch-by-epoch
with synchronous :func:`~repro.distributed.ddp.allreduce_gradients` barriers.
Allreduce cost and straggler wait both go through the cost model, so
per-trainer and critical-path simulated times come out of the Eq. 2 /
Eqs. 3–5 timing policies of the pipelines.  ``ClusterEngine(cluster,
config).run(...).report`` is the plain :class:`TrainingReport` of a run.

What a :class:`ClusterReport` carries beyond that report:

* **heterogeneity** — each machine charges compute through its own cost model
  (:meth:`SimCluster.cost_model_for_machine`), so ``compute_multipliers`` in
  the :class:`~repro.distributed.cluster.ClusterConfig` simulate straggler
  machines;
* **barrier telemetry** — the wait each trainer spends at every allreduce
  barrier is measured separately from pipeline stalls, giving per-trainer
  straggler-wait totals and cluster load imbalance;
* **cluster-level aggregation** — per-trainer ``FetchStats``/buffer/RPC
  telemetry is rolled up into a :class:`ClusterReport` (critical path, hit
  rates, RPC bytes) consumed by ``bench_cluster_scaling`` and the CLI's
  ``run`` command.

The run state itself (setup, step, barrier charge, report assembly) is
:class:`~repro.training.backends.ClusterRun`, shared with the event-driven
:class:`~repro.training.async_engine.AsyncClusterEngine`; this module holds
the lockstep driver, the report types and the setup/roll-up helpers.  Engines
are built by :meth:`~repro.scenarios.ClusterScenario.materialize` (through
:func:`~repro.training.engines.build_engine`); the Fig. 6 comparison is two
``run`` calls on one materialized workload — ``run("baseline")`` and
``run("prefetch", ...)`` — which is what ``repro run --mode both`` does.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import SimCluster
from repro.distributed.ddp import allreduce_gradients
from repro.features.store import merge_store_summaries
from repro.nn import build_model, build_optimizer
from repro.sampling.pipeline import MiniBatchPipeline
from repro.training.config import TrainConfig
from repro.training.engine import PipelineBuilder
from repro.training.pipelines import PIPELINES, build_pipeline
from repro.training.telemetry import (
    ComponentAccumulator,
    TrainingReport,
    percentile_summary,
)
from repro.utils.rng import derive_seed


@dataclass
class TrainerRunStats:
    """One trainer's cluster-run summary (telemetry, not numerics)."""

    global_rank: int
    machine: int
    local_rank: int
    simulated_time_s: float
    barrier_wait_s: float
    num_steps: int
    compute_multiplier: float = 1.0
    hit_rate: Optional[float] = None
    rpc_stats: Dict[str, float] = field(default_factory=dict)
    components: Dict[str, float] = field(default_factory=dict)
    store_summary: Dict[str, float] = field(default_factory=dict)
    # Per-tier cache counters ("{role}.tier.{tier}.{counter}"); empty for
    # tier-less runs, and then omitted from as_dict so the golden fixture
    # schema is untouched unless cache tiers are actually in play.
    cache_stats: Dict[str, float] = field(default_factory=dict)
    # Async-engine extras (hidden sync time, staleness waits, failure
    # downtime, model averages); empty — and omitted from as_dict — on
    # lockstep runs, same golden-schema discipline as cache_stats.
    sync_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def busy_time_s(self) -> float:
        """Simulated time spent off the barrier (pipeline + compute + stalls)."""
        return self.simulated_time_s - self.barrier_wait_s

    def as_dict(self) -> Dict[str, object]:
        out = {
            "global_rank": self.global_rank,
            "machine": self.machine,
            "local_rank": self.local_rank,
            "simulated_time_s": self.simulated_time_s,
            "barrier_wait_s": self.barrier_wait_s,
            "busy_time_s": self.busy_time_s,
            "num_steps": self.num_steps,
            "compute_multiplier": self.compute_multiplier,
            "hit_rate": self.hit_rate,
            "rpc_stats": dict(self.rpc_stats),
            "components": dict(self.components),
            "store_summary": dict(self.store_summary),
        }
        if self.cache_stats:
            out["cache_stats"] = dict(self.cache_stats)
        if self.sync_stats:
            out["sync_stats"] = dict(self.sync_stats)
        return out


@dataclass
class ClusterReport:
    """A :class:`TrainingReport` plus the cluster-level telemetry roll-up."""

    report: TrainingReport
    trainer_stats: List[TrainerRunStats] = field(default_factory=list)
    scenario: Optional[str] = None
    store_summary: Dict[str, float] = field(default_factory=dict)
    # Execution-backend provenance: set by the async engine ("async" plus the
    # sync-policy description); None on lockstep runs, and then omitted from
    # as_dict/summary so the golden fixture schema is untouched.
    engine: Optional[str] = None
    sync: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Cluster aggregates
    # ------------------------------------------------------------------ #
    @property
    def critical_path_time_s(self) -> float:
        """The cluster finishes when its slowest trainer does."""
        if not self.trainer_stats:
            return self.report.total_simulated_time_s
        return max(t.simulated_time_s for t in self.trainer_stats)

    @property
    def critical_trainer_rank(self) -> int:
        """Global rank of the trainer defining the critical path."""
        if not self.trainer_stats:
            return 0
        return max(self.trainer_stats, key=lambda t: t.simulated_time_s).global_rank

    @property
    def total_barrier_wait_s(self) -> float:
        return float(sum(t.barrier_wait_s for t in self.trainer_stats))

    @property
    def load_imbalance(self) -> float:
        """Max over mean per-trainer busy time (1.0 = perfectly balanced)."""
        busy = [t.busy_time_s for t in self.trainer_stats]
        mean = float(np.mean(busy)) if busy else 0.0
        return float(max(busy) / mean) if mean > 0 else 1.0

    @property
    def mean_hit_rate(self) -> Optional[float]:
        rates = [t.hit_rate for t in self.trainer_stats if t.hit_rate is not None]
        return float(np.mean(rates)) if rates else None

    def mean_tier_hit_rates(self) -> Dict[str, float]:
        """Mean per-tier hit rate across trainers that report the tier.

        Keys are the ``{role}.tier.{tier}`` prefixes of the trainers'
        ``cache_stats``; empty for tier-less runs.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for t in self.trainer_stats:
            for key, value in t.cache_stats.items():
                if key.endswith(".hit_rate"):
                    prefix = key[: -len(".hit_rate")]
                    sums[prefix] = sums.get(prefix, 0.0) + float(value)
                    counts[prefix] = counts.get(prefix, 0) + 1
        return {k: sums[k] / counts[k] for k in sums}

    @property
    def total_tier_evictions(self) -> int:
        """Cluster-wide tier evictions.

        Per-trainer tiers sum across trainers; the machine-shared tier is one
        object reported identically by every trainer on the machine, so its
        cumulative counter is counted once per machine, not once per trainer.
        """
        total = 0.0
        shared: Dict[tuple, float] = {}
        for t in self.trainer_stats:
            for key, value in t.cache_stats.items():
                if not key.endswith(".evictions"):
                    continue
                if ".tier.shared." in key:
                    shared[(t.machine, key)] = float(value)
                else:
                    total += float(value)
        return int(total + sum(shared.values()))

    @property
    def total_rpc_bytes(self) -> int:
        return int(sum(t.rpc_stats.get("bytes_fetched", 0.0) for t in self.trainer_stats))

    @property
    def total_rpc_requests(self) -> int:
        return int(sum(t.rpc_stats.get("requests", 0.0) for t in self.trainer_stats))

    def machine_times(self) -> Dict[int, float]:
        """Per-machine simulated time (max over the machine's trainers)."""
        out: Dict[int, float] = {}
        for t in self.trainer_stats:
            out[t.machine] = max(out.get(t.machine, 0.0), t.simulated_time_s)
        return out

    def busy_time_percentiles(self) -> Dict[str, float]:
        """Spread of per-trainer busy time (p50/p95/p99/mean/max seconds).

        Shares :func:`~repro.training.telemetry.percentile_summary` with the
        serving report, so training-side straggler spreads and serving-side
        latency tails are computed by the same quantile rule.
        """
        return percentile_summary(t.busy_time_s for t in self.trainer_stats)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """Flat cluster-level metrics (benchmarks and the CLI table).

        Values are floats except ``mode`` and ``scenario``, which are strings.
        """
        out = {
            "mode": self.report.mode,
            "scenario": self.scenario or "",
            "num_machines": float(self.report.num_machines),
            "world_size": float(self.report.world_size),
            "epochs": float(self.report.epochs),
            "critical_path_time_s": self.critical_path_time_s,
            "critical_trainer_rank": float(self.critical_trainer_rank),
            "total_barrier_wait_s": self.total_barrier_wait_s,
            "load_imbalance": self.load_imbalance,
            "total_rpc_bytes": float(self.total_rpc_bytes),
            "total_rpc_requests": float(self.total_rpc_requests),
            "final_train_accuracy": self.report.final_train_accuracy,
            "num_minibatches": float(self.report.num_minibatches),
        }
        for key, value in sorted(self.busy_time_percentiles().items()):
            out[f"busy_time.{key}"] = value
        if self.engine is not None:
            out["engine"] = self.engine
            out["sync"] = self.sync or ""
        if self.mean_hit_rate is not None:
            out["mean_hit_rate"] = self.mean_hit_rate
        tier_rates = self.mean_tier_hit_rates()
        if tier_rates:
            for prefix, rate in sorted(tier_rates.items()):
                out[f"cache.{prefix}.hit_rate"] = rate
            out["cache.total_tier_evictions"] = float(self.total_tier_evictions)
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable dump (golden-number fixtures, trace files)."""
        out = {
            "scenario": self.scenario,
            "mode": self.report.mode,
            "dataset": self.report.dataset,
            "num_machines": self.report.num_machines,
            "trainers_per_machine": self.report.trainers_per_machine,
            "epochs": self.report.epochs,
            "total_simulated_time_s": self.report.total_simulated_time_s,
            "critical_path_time_s": self.critical_path_time_s,
            "total_barrier_wait_s": self.total_barrier_wait_s,
            "load_imbalance": self.load_imbalance,
            "num_minibatches": self.report.num_minibatches,
            "losses": [r.loss for r in self.report.epoch_records],
            "epoch_times_s": [r.simulated_time_s for r in self.report.epoch_records],
            "train_accuracies": [r.train_accuracy for r in self.report.epoch_records],
            "hit_rate": self.report.hit_rate if self.report.hit_tracker else None,
            "total_rpc_bytes": self.total_rpc_bytes,
            "total_rpc_requests": self.total_rpc_requests,
            "trainers": [t.as_dict() for t in self.trainer_stats],
        }
        if self.engine is not None:
            out["engine"] = self.engine
            out["sync"] = self.sync
        return out


# --------------------------------------------------------------------------- #
# Setup and roll-up helpers of repro.training.backends.ClusterRun (the
# serving engine builds its model and pipelines through prepare_cluster_run
# too, so the three engines cannot seed or charge initialization differently).
# --------------------------------------------------------------------------- #
@dataclass
class ClusterRunSetup:
    """Everything an engine builds before its first step/event."""

    model: object
    optimizer: object
    num_params: int
    cost_models: List[object]
    pipelines: List[MiniBatchPipeline]
    mode: str
    init_reports: List[Dict[str, float]]
    accumulators: List[ComponentAccumulator]
    wall_start: float


def prepare_cluster_run(
    cluster: SimCluster,
    config: TrainConfig,
    pipeline: Union[str, PipelineBuilder],
    prefetch_config: Optional[PrefetchConfig],
    cache_config: Optional[CacheConfig],
) -> ClusterRunSetup:
    """Reset the cluster and build model/optimizer/pipelines for one run.

    ``pipeline`` is a :data:`~repro.training.pipelines.PIPELINES` name or a
    builder callable ``(trainer, cluster, prefetch_config, cache_config)``;
    sources that prefetch at init (the one-time RPC of Algorithm 1) charge
    that cost to the trainer clock before the first minibatch.
    """
    builder = (
        functools.partial(build_pipeline, PIPELINES.resolve(pipeline))
        if isinstance(pipeline, str) else pipeline
    )

    wall_start = time.perf_counter()
    cluster.reset()

    model = build_model(
        config.arch,
        in_dim=cluster.dataset.feature_dim,
        hidden_dim=config.hidden_dim,
        num_classes=cluster.dataset.num_classes,
        num_layers=config.num_layers,
        num_heads=config.num_heads,
        seed=derive_seed(config.seed, 401),
    )
    optimizer = build_optimizer(
        config.optimizer, lr=config.learning_rate, weight_decay=config.weight_decay
    )
    trainers = cluster.trainers
    # Heterogeneity: compute is charged through the owning machine's cost
    # model; with all multipliers at 1.0 these are value-identical to the
    # shared model.
    cost_models = [cluster.cost_model_for_machine(t.machine) for t in trainers]

    pipelines: List[MiniBatchPipeline] = [
        builder(trainer, cluster, prefetch_config, cache_config) for trainer in trainers
    ]
    init_reports: List[Dict[str, float]] = []
    for trainer, pl in zip(trainers, pipelines):
        if pl.init_report is not None:
            trainer.clock.advance(pl.init_time_s, "init")
            init_reports.append(dict(pl.init_report))

    return ClusterRunSetup(
        model=model,
        optimizer=optimizer,
        num_params=model.num_parameters(),
        cost_models=cost_models,
        pipelines=pipelines,
        mode=pipelines[0].name,
        init_reports=init_reports,
        accumulators=[ComponentAccumulator() for _ in trainers],
        wall_start=wall_start,
    )


def collect_trainer_stats(
    cluster: SimCluster,
    pipelines: List[MiniBatchPipeline],
    trainer_steps: List[int],
    barrier_waits: List[float],
    sync_extras: Optional[List[Dict[str, float]]] = None,
) -> List[TrainerRunStats]:
    """Per-trainer telemetry roll-up shared by both cluster engines."""
    stats: List[TrainerRunStats] = []
    for i, (trainer, pl) in enumerate(zip(cluster.trainers, pipelines)):
        stats.append(
            TrainerRunStats(
                global_rank=trainer.global_rank,
                machine=trainer.machine,
                local_rank=trainer.local_rank,
                simulated_time_s=trainer.clock.time,
                barrier_wait_s=barrier_waits[i],
                num_steps=trainer_steps[i],
                compute_multiplier=cluster.config.compute_multiplier(trainer.machine),
                hit_rate=pl.hit_rate,
                rpc_stats=trainer.rpc.stats.as_dict(),
                components=trainer.clock.breakdown(),
                store_summary=pl.feature_store.summary(),
                cache_stats=pl.feature_store.cache_summary(),
                sync_stats=(
                    dict(sync_extras[i]) if sync_extras is not None else {}
                ),
            )
        )
    return stats


def merged_store_summary(pipelines: List[MiniBatchPipeline]) -> Dict[str, float]:
    """Cluster-wide feature-store summary over every pipeline's store."""
    return merge_store_summaries(pl.feature_store.summary() for pl in pipelines)


class ClusterEngine:
    """Run one minibatch pipeline per trainer in lockstep allreduce rounds.

    The driver only decides the order of steps — every active trainer once
    per round, in rank order, then one barrier; setup, the step itself, the
    barrier charge and report assembly are
    :class:`~repro.training.backends.ClusterRun`'s.
    """

    def __init__(
        self,
        cluster: SimCluster,
        train_config: TrainConfig,
        scenario: Optional[str] = None,
    ):
        self.cluster = cluster
        self.config = train_config
        self.scenario = scenario
        cluster.validate_seed_coverage()

    # ------------------------------------------------------------------ #
    def run(
        self,
        pipeline: Union[str, PipelineBuilder] = "baseline",
        prefetch_config: Optional[PrefetchConfig] = None,
        cache_config: Optional[CacheConfig] = None,
    ) -> ClusterReport:
        """Train the cluster with one *pipeline* instance per trainer.

        ``pipeline`` is either a name registered in
        :data:`repro.training.pipelines.PIPELINES` or a builder callable with
        the same ``(trainer, cluster, prefetch_config, cache_config)``
        signature returning one :class:`MiniBatchPipeline` per trainer.
        The eviction policy of the prefetch buffer is
        ``prefetch_config.eviction_policy`` (a name: every trainer builds its
        own instance); ``cache_config`` parameterizes the cache tiers.
        """
        # Lazy: backends imports this module's report types and setup helpers.
        from repro.training.backends import ClusterRun

        config = self.config
        run = ClusterRun(self.cluster, config, pipeline, prefetch_config, cache_config)
        world = len(self.cluster.trainers)
        round_id = 0  # monotone across epochs; drives the RPC coalescing windows
        for _ in range(config.epochs):
            run.begin_epoch()
            active = [True] * world
            rounds = 0
            while any(active) and (
                config.max_steps_per_epoch is None or rounds < config.max_steps_per_epoch
            ):
                step_grads: List[Dict[str, np.ndarray]] = []
                participated: List[int] = []
                for rank in range(world):
                    if not active[rank]:
                        continue
                    result = run.step(rank, round_id)
                    if result is None:
                        active[rank] = False
                        continue
                    _, loss, n_correct, n_seen, grads = result
                    run.record(loss, n_correct, n_seen)
                    step_grads.append(grads)
                    participated.append(rank)
                round_id += 1
                if not step_grads:
                    break
                averaged = allreduce_gradients(step_grads)
                run.allreduce_barrier(participated)
                run.apply_update(averaged)
                rounds += 1
            run.finish_epoch()
        self._final_model = run.setup.model
        return run.finish(self.scenario)

    # ------------------------------------------------------------------ #
    @property
    def final_model(self):
        """The trained model from the most recent run."""
        model = getattr(self, "_final_model", None)
        if model is None:
            raise RuntimeError("no cluster run has completed yet")
        return model

