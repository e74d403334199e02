"""Hand-built cluster construction: the twin of the ``uniform`` scenario path.

The paper-figure benches, the parameter sweep and the memory profile used to
build their cluster by hand: a :class:`ClusterConfig` with the bench topology,
``SimCluster(dataset, config, cost_model=CostModel.preset(backend))`` and a
:class:`ClusterEngine`.  They now materialize
``SCENARIOS["uniform"].with_overrides(...)`` instead; this module keeps the
hand-built path so ``tests/test_cluster_construction_differential.py`` can
hold the two equal on every field the paper tables print.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.graph.datasets import GraphDataset
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.training.telemetry import TrainingReport

TRAINERS_PER_MACHINE = 2
FANOUTS = (5, 10)
BATCH = 64


def build_cluster(
    dataset: GraphDataset,
    num_machines: int = 2,
    backend: str = "cpu",
    batch_size: int = BATCH,
    partition_method: str = "metis",
    seed: int = 0,
) -> SimCluster:
    """The bench topology, built by hand."""
    config = ClusterConfig(
        num_machines=num_machines,
        trainers_per_machine=TRAINERS_PER_MACHINE,
        batch_size=batch_size,
        fanouts=FANOUTS,
        partition_method=partition_method,
        backend=backend,
        seed=seed,
    )
    return SimCluster(dataset, config, cost_model=CostModel.preset(backend))


def run_legs(
    dataset: GraphDataset,
    train_config: TrainConfig,
    prefetch_config: PrefetchConfig,
    **cluster_kwargs,
) -> Dict[str, TrainingReport]:
    """Baseline, prefetch-no-evict and prefetch on one hand-built cluster."""
    engine = ClusterEngine(build_cluster(dataset, **cluster_kwargs), train_config)
    return {
        "baseline": engine.run("baseline").report,
        "prefetch_no_evict": engine.run(
            "prefetch", prefetch_config=prefetch_config.without_eviction()
        ).report,
        "prefetch": engine.run("prefetch", prefetch_config=prefetch_config).report,
    }


def report_fields(report: TrainingReport) -> Dict[str, object]:
    """Every :class:`TrainingReport` value a paper table reads (host time excluded)."""
    tracker = report.hit_tracker
    hits: List[float] = [] if tracker is None else tracker.running_hit_rate().tolist()
    return {
        "mode": report.mode,
        "backend": report.backend,
        "arch": report.arch,
        "num_machines": report.num_machines,
        "trainers_per_machine": report.trainers_per_machine,
        "epochs": report.epochs,
        "total_simulated_time_s": report.total_simulated_time_s,
        "epoch_records": [
            (r.simulated_time_s, r.loss, r.train_accuracy, r.hit_rate)
            for r in report.epoch_records
        ],
        "component_breakdown": dict(report.component_breakdown),
        "per_trainer_breakdown": [dict(b) for b in report.per_trainer_breakdown],
        "rpc_stats": None if report.rpc_stats is None else report.rpc_stats.as_dict(),
        "hit_rate": report.hit_rate,
        "running_hit_rate": hits,
        "eviction_steps": [] if tracker is None else list(tracker.eviction_steps),
        "prefetch_init": [dict(d) for d in report.prefetch_init],
        "overlap_efficiency": report.overlap_efficiency,
        "final_train_accuracy": report.final_train_accuracy,
        "num_minibatches": report.num_minibatches,
        "remote_nodes_fetched": report.remote_nodes_fetched(),
        "config_description": report.config_description,
        "extras": dict(report.extras),
    }
