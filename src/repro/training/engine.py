"""The distributed training engine.

The engine runs *pipelines*: every trainer gets a
:class:`~repro.sampling.pipeline.MiniBatchPipeline` (seed → sample →
fetch-feature → batch) and one run state —
:class:`~repro.training.backends.ClusterRun`, under the lockstep or the
event-driven driver — consumes whatever the pipelines yield.  This module
holds what that run state calls per step and at the end of a run.
The two data paths the paper compares are just two named pipeline
configurations (see :mod:`repro.training.pipelines`):

* **baseline** — the DistDGL path: halo features pulled over RPC every
  minibatch, accounted serially (Eq. 2);
* **prefetch** — the MassiveGNN path (Algorithm 1): halo features served by a
  per-trainer scored prefetch buffer, with preparation of the next minibatch
  overlapping DDP training on the current one (Eqs. 3–5).

Numerically, training is identical across pipelines — the same minibatches,
the same feature values, the same gradient averaging — so model accuracy is
unaffected by the data path (the paper's claim in Section V).  What differs
is the *simulated time* each pipeline's timing policy puts on the trainer
clocks, which is what the benchmark harnesses report.

The engine keeps a single model replica shared by all simulated trainers.
Under synchronous DDP every replica receives the same averaged gradient and
applies the same deterministic update, so one shared replica is numerically
equivalent to ``world_size`` identical replicas (the property is asserted in
``tests/test_property_cluster.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import SimCluster, TrainerContext
from repro.distributed.rpc import merge_rpc_stats
from repro.nn import cross_entropy
from repro.sampling.pipeline import MiniBatchPipeline, PipelineBatch
from repro.training.config import TrainConfig
from repro.training.evaluate import evaluate_accuracy
from repro.training.telemetry import (
    ComponentAccumulator,
    EpochRecord,
    StepTiming,
    TrainingReport,
    merge_trainer_hit_trackers,
)
from repro.utils.rng import derive_seed

PipelineBuilder = Callable[..., MiniBatchPipeline]


# --------------------------------------------------------------------------- #
# Step / update / report machinery of repro.training.backends.ClusterRun
# --------------------------------------------------------------------------- #
def train_step(
    cost_model,
    trainer: TrainerContext,
    batch: PipelineBatch,
    model,
    timing_policy,
    trainer_step: int,
) -> Tuple[StepTiming, float, int, int, Dict[str, np.ndarray]]:
    """One trainer's minibatch step: compute, gradients, and time accounting.

    ``cost_model`` is passed explicitly so heterogeneous clusters can charge
    different machines at different rates (straggler simulation) while the
    numerics stay identical.
    """
    minibatch = batch.minibatch
    timing = StepTiming.charge(cost_model, minibatch, batch.fetch.merged)

    # ---------------- model compute ----------------
    logits = model.forward(minibatch.blocks, batch.features)
    loss, grad_logits = cross_entropy(logits, minibatch.labels)
    model.backward(grad_logits)
    grads = {name: grad.copy() for name, grad in model.gradients().items()}
    model.zero_grad()
    preds = np.argmax(logits, axis=1)
    n_correct = int(np.sum(preds == minibatch.labels))
    n_seen = int(len(minibatch.labels))
    timing.ddp = cost_model.time_compute(model.flops(minibatch))

    # ---------------- simulated time accounting ----------------
    # The pipeline's timing policy decides what is on the critical path
    # (Eq. 2 for the serial baseline; Eqs. 3–5 when preparation overlaps
    # training) — the engine itself has no notion of "modes".
    timing_policy.account(timing, trainer_step, trainer.clock)
    return timing, loss, n_correct, n_seen, grads


def apply_averaged_gradients(optimizer, model, averaged: Dict[str, np.ndarray]) -> bool:
    """Apply one synchronized DDP update; no-op when nobody contributed.

    When every trainer passed an empty gradient dict to
    :func:`~repro.distributed.ddp.allreduce_gradients` (all replicas joined
    with uneven inputs exhausted), the averaged dict is empty and the step
    must be skipped entirely — calling ``optimizer.step`` with it would raise
    a key-mismatch instead of honoring DDP's join semantics.
    """
    if not averaged:
        return False
    optimizer.step(model.parameters(), averaged)
    model.zero_grad()
    return True


def assemble_training_report(
    *,
    mode: str,
    cluster: SimCluster,
    train_config: TrainConfig,
    pipelines: List[MiniBatchPipeline],
    accumulators: List[ComponentAccumulator],
    epoch_records: List[EpochRecord],
    init_reports: List[Dict[str, float]],
    total_minibatches: int,
    wall_clock_s: float,
    model,
    prefetch_config: Optional[PrefetchConfig],
) -> TrainingReport:
    """Assemble the :class:`TrainingReport` for one completed run.

    ``pipelines`` and ``accumulators`` are per trainer, in the global-rank
    order of ``cluster.trainers``.
    """
    config = train_config
    cost_model = cluster.cost_model
    dataset = cluster.dataset
    trainers = cluster.trainers
    num_params = model.num_parameters()
    total_time = max((t.clock.time for t in trainers), default=0.0)
    breakdown_means = [acc.mean() for acc in accumulators]
    mean_breakdown: Dict[str, float] = {}
    for key in ComponentAccumulator.FIELDS:
        totals = [acc.totals[key] for acc in accumulators]
        mean_breakdown[key] = float(np.mean(totals)) if totals else 0.0
    overlapped = any(
        getattr(pl.timing, "overlaps_preparation", False) for pl in pipelines
    )
    overlap = (
        float(np.mean([acc.overlap_efficiency() for acc in accumulators]))
        if overlapped and accumulators
        else 1.0
    )
    trackers = [pl.hit_tracker for pl in pipelines if pl.hit_tracker is not None]
    prefetchers = [pl.prefetcher for pl in pipelines if pl.prefetcher is not None]

    report = TrainingReport(
        mode=mode,
        backend=cost_model.backend,
        dataset=dataset.name,
        arch=config.arch,
        num_machines=cluster.config.num_machines,
        trainers_per_machine=cluster.config.trainers_per_machine,
        epochs=config.epochs,
        total_simulated_time_s=total_time,
        wall_clock_s=wall_clock_s,
        epoch_records=epoch_records,
        component_breakdown=mean_breakdown,
        per_trainer_breakdown=breakdown_means,
        rpc_stats=merge_rpc_stats([t.rpc.stats for t in trainers]),
        hit_tracker=merge_trainer_hit_trackers(trackers) if trackers else None,
        per_trainer_hit_trackers=trackers,
        prefetch_init=init_reports,
        overlap_efficiency=overlap,
        final_train_accuracy=epoch_records[-1].train_accuracy if epoch_records else 0.0,
        num_minibatches=total_minibatches,
        config_description=prefetch_config.describe() if prefetch_config else mode,
    )
    if prefetchers:
        report.extras["mean_buffer_nbytes"] = float(
            np.mean([p.buffer_nbytes() for p in prefetchers])
        )
        report.extras["mean_scoreboard_nbytes"] = float(
            np.mean([p.scoreboard_nbytes() for p in prefetchers])
        )
        report.extras["remote_nodes_fetched_prefetch"] = float(
            np.sum([p.counters.remote_nodes_fetched for p in prefetchers])
        )
    report.extras["mean_feature_store_nbytes"] = float(
        np.mean([pl.feature_store.nbytes() for pl in pipelines])
    )

    if config.evaluate:
        report.val_accuracy = evaluate_accuracy(
            model,
            dataset,
            dataset.val_nids(),
            fanouts=cluster.config.fanouts,
            batch_size=config.eval_batch_size,
            seed=derive_seed(config.seed, 997),
        )
        report.test_accuracy = evaluate_accuracy(
            model,
            dataset,
            dataset.test_nids(),
            fanouts=cluster.config.fanouts,
            batch_size=config.eval_batch_size,
            seed=derive_seed(config.seed, 998),
        )
    report.extras["model_num_parameters"] = float(num_params)
    return report
