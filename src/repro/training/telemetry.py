"""Training telemetry: per-step timings, per-epoch records, and run reports.

Two ledgers are kept for every trainer:

* the **critical-path clock** (:class:`~repro.distributed.clock.SimClock`)
  advances only by time that is actually on the simulated critical path — with
  prefetching, the preparation of the next minibatch is charged only for the
  part that fails to hide behind DDP training;
* the **raw component accumulator** (:class:`ComponentAccumulator`) sums every
  component's cost regardless of overlap, which is what the Fig. 9 component
  breakdowns and the overlap-efficiency metric are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from repro.core.metrics import HitRateTracker, merge_hit_trackers
from repro.distributed.rpc import RPCStats


def percentile_summary(
    values, percentiles=(50.0, 95.0, 99.0)
) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ..., "mean": ..., "max": ...}`` of *values*.

    The one quantile implementation shared by every report class —
    :class:`~repro.training.cluster_engine.ClusterReport` per-trainer spreads
    and the serving engine's :class:`~repro.serving.report.ServingReport`
    latency ledger — so the interpolation rule (numpy's default linear) can
    never drift between the training and serving halves of a benchmark.
    Empty input yields all zeros, keeping report schemas stable.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    keys = [f"p{p:g}" for p in percentiles]
    if arr.size == 0:
        out = {k: 0.0 for k in keys}
        out["mean"] = 0.0
        out["max"] = 0.0
        return out
    quantiles = np.percentile(arr, list(percentiles))
    out = {k: float(q) for k, q in zip(keys, quantiles)}
    out["mean"] = float(arr.mean())
    out["max"] = float(arr.max())
    return out


@dataclass
class StepTiming:
    """Component times (seconds) of one minibatch step for one trainer."""

    sampling: float = 0.0
    lookup: float = 0.0
    scoring: float = 0.0
    eviction: float = 0.0
    rpc: float = 0.0
    copy: float = 0.0
    ddp: float = 0.0
    allreduce: float = 0.0
    prepare: float = 0.0          # Eq. 3 preparation time (prefetch pipeline only)
    critical_path: float = 0.0    # what this step added to the trainer's clock
    hidden: float = 0.0           # preparation time hidden behind DDP training

    @classmethod
    def charge(cls, cost, minibatch, fetch) -> "StepTiming":
        """Price sampling *minibatch* and *fetch*'s lookup/scoring/eviction with *cost*."""
        return cls(
            sampling=cost.time_sampling(minibatch.total_edges()),
            copy=fetch.copy_time_s,
            rpc=fetch.rpc_time_s,
            lookup=cost.time_lookup(fetch.lookup_nodes),
            scoring=cost.time_scoring(fetch.scoring_nodes),
            eviction=(
                cost.time_eviction(fetch.buffer_capacity, fetch.nodes_replaced)
                if fetch.eviction_round
                else 0.0
            ),
        )

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


class ComponentAccumulator:
    """Sums raw component times across steps for one trainer."""

    FIELDS = tuple(f.name for f in fields(StepTiming))

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {f: 0.0 for f in self.FIELDS}
        self.num_steps = 0

    def add(self, timing: StepTiming) -> None:
        for f in self.FIELDS:
            self.totals[f] += getattr(timing, f)
        self.num_steps += 1

    def mean(self) -> Dict[str, float]:
        if self.num_steps == 0:
            return {f: 0.0 for f in self.FIELDS}
        return {f: v / self.num_steps for f, v in self.totals.items()}

    def overlap_efficiency(self) -> float:
        """Fraction of preparation time hidden behind training (Section V-B2)."""
        prepare = self.totals["prepare"]
        if prepare <= 0:
            return 1.0
        return min(1.0, self.totals["hidden"] / prepare)


@dataclass
class EpochRecord:
    """Summary of one training epoch (cluster-wide)."""

    epoch: int
    simulated_time_s: float
    loss: float
    train_accuracy: float
    hit_rate: Optional[float] = None


@dataclass
class TrainingReport:
    """Everything a training run produces (consumed by benchmarks and tests)."""

    mode: str                                   # "baseline" or "prefetch"
    backend: str
    dataset: str
    arch: str
    num_machines: int
    trainers_per_machine: int
    epochs: int
    total_simulated_time_s: float = 0.0
    wall_clock_s: float = 0.0
    epoch_records: List[EpochRecord] = field(default_factory=list)
    component_breakdown: Dict[str, float] = field(default_factory=dict)
    per_trainer_breakdown: List[Dict[str, float]] = field(default_factory=list)
    rpc_stats: Optional[RPCStats] = None
    hit_tracker: Optional[HitRateTracker] = None
    per_trainer_hit_trackers: List[HitRateTracker] = field(default_factory=list)
    prefetch_init: List[Dict[str, float]] = field(default_factory=list)
    overlap_efficiency: float = 1.0
    final_train_accuracy: float = 0.0
    val_accuracy: Optional[float] = None
    test_accuracy: Optional[float] = None
    num_minibatches: int = 0
    config_description: str = ""
    extras: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def world_size(self) -> int:
        return self.num_machines * self.trainers_per_machine

    @property
    def hit_rate(self) -> float:
        if self.hit_tracker is None:
            return 0.0
        return self.hit_tracker.cumulative_hit_rate

    @property
    def loss_history(self) -> List[float]:
        return [r.loss for r in self.epoch_records]

    def epoch_times(self) -> np.ndarray:
        return np.array([r.simulated_time_s for r in self.epoch_records], dtype=np.float64)

    def speedup_vs(self, baseline: "TrainingReport") -> float:
        """``T_baseline / T_this`` (greater than 1 means this run is faster)."""
        if self.total_simulated_time_s <= 0:
            return float("inf")
        return baseline.total_simulated_time_s / self.total_simulated_time_s

    def improvement_percent_vs(self, baseline: "TrainingReport") -> float:
        """Percent reduction in end-to-end time relative to *baseline* (paper's Fig. 6 annotation)."""
        if baseline.total_simulated_time_s <= 0:
            return 0.0
        return 100.0 * (
            (baseline.total_simulated_time_s - self.total_simulated_time_s)
            / baseline.total_simulated_time_s
        )

    def remote_nodes_fetched(self) -> int:
        return int(self.rpc_stats.nodes_fetched) if self.rpc_stats else 0

    def summary(self) -> Dict[str, float]:
        return {
            "mode": self.mode,
            "backend": self.backend,
            "dataset": self.dataset,
            "arch": self.arch,
            "world_size": float(self.world_size),
            "epochs": float(self.epochs),
            "total_simulated_time_s": self.total_simulated_time_s,
            "final_train_accuracy": self.final_train_accuracy,
            "val_accuracy": self.val_accuracy if self.val_accuracy is not None else float("nan"),
            "hit_rate": self.hit_rate,
            "overlap_efficiency": self.overlap_efficiency,
            "remote_nodes_fetched": float(self.remote_nodes_fetched()),
            "num_minibatches": float(self.num_minibatches),
        }


def merge_trainer_hit_trackers(trackers: List[HitRateTracker]) -> HitRateTracker:
    """Aggregate per-trainer trackers into a single run-level trajectory."""
    return merge_hit_trackers(trackers)
