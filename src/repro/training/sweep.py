"""Parameter sweeps over (f_h, γ, Δ) — the machinery behind Table IV and Figs. 12–13.

The paper tests f_h ∈ {15, 25, 35, 50}%, Δ ∈ {16 … 1024}, γ ∈ {0.95, 0.995,
0.9995} per dataset/backend and reports the combination that minimizes
end-to-end training time (time is prioritized over hit rate when they
disagree, Section V-A4).  :func:`run_parameter_sweep` executes an arbitrary
grid on one materialized :class:`~repro.scenarios.ClusterScenario` and
:func:`find_optimal` reproduces that selection rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.config import PrefetchConfig
from repro.graph.datasets import GraphDataset
from repro.training.config import TrainConfig
from repro.training.telemetry import TrainingReport

if TYPE_CHECKING:  # repro.scenarios imports this package
    from repro.scenarios.registry import ClusterScenario


@dataclass
class SweepPoint:
    """One evaluated configuration in a sweep.

    A point without eviction has no ``gamma`` or ``delta``: both are ``None``.
    """

    halo_fraction: float
    gamma: Optional[float]
    delta: Optional[int]
    eviction_enabled: bool
    total_time_s: float
    hit_rate: float
    improvement_percent: float
    report: Optional[TrainingReport] = field(default=None, repr=False)


@dataclass
class SweepResult:
    """All points of a sweep plus the shared baseline run."""

    baseline: TrainingReport
    points: List[SweepPoint]

    def best(self, by: str = "time") -> SweepPoint:
        """Best point: minimum time (default) or maximum hit rate."""
        if not self.points:
            raise ValueError("sweep produced no points")
        if by == "time":
            return min(self.points, key=lambda p: p.total_time_s)
        if by == "hit_rate":
            return max(self.points, key=lambda p: p.hit_rate)
        raise ValueError(f"unknown criterion {by!r}")

    def as_rows(self) -> List[List[object]]:
        """Rows for the benchmark tables: (f_h, γ, Δ, time, hit rate, improvement %)."""
        return [
            [p.halo_fraction, p.gamma, p.delta, p.total_time_s, p.hit_rate, p.improvement_percent]
            for p in self.points
        ]


def run_parameter_sweep(
    scenario: "ClusterScenario",
    seed: int = 0,
    dataset: Optional[GraphDataset] = None,
    train_config: Optional[TrainConfig] = None,
    halo_fractions: Sequence[float] = (0.25,),
    gammas: Sequence[float] = (0.995,),
    deltas: Sequence[int] = (64,),
    include_no_eviction: bool = False,
    keep_reports: bool = False,
) -> SweepResult:
    """Run the baseline once plus one prefetch run per grid point on one workload.

    *scenario* is materialized once at *seed* (see
    :meth:`~repro.scenarios.ClusterScenario.materialize` for ``dataset`` and
    ``train_config``), so every point sees the same partitions and seeds.
    """
    workload = scenario.materialize(seed, train_config=train_config, dataset=dataset)
    baseline = workload.run("baseline").report

    points: List[SweepPoint] = []
    for f_h in halo_fractions:
        configs: List[PrefetchConfig] = []
        if include_no_eviction:
            configs.append(PrefetchConfig(halo_fraction=f_h, eviction_enabled=False))
        for gamma in gammas:
            for delta in deltas:
                configs.append(PrefetchConfig(halo_fraction=f_h, gamma=gamma, delta=delta))
        for config in configs:
            report = workload.run("prefetch", prefetch_config=config).report
            evicts = config.eviction_enabled
            points.append(
                SweepPoint(
                    halo_fraction=config.halo_fraction,
                    gamma=config.gamma if evicts else None,
                    delta=config.delta if evicts else None,
                    eviction_enabled=evicts,
                    total_time_s=report.total_simulated_time_s,
                    hit_rate=report.hit_rate,
                    improvement_percent=report.improvement_percent_vs(baseline),
                    report=report if keep_reports else None,
                )
            )
    return SweepResult(baseline=baseline, points=points)


def find_optimal(
    sweep: SweepResult, prioritize: str = "time"
) -> Dict[str, object]:
    """Table IV selection rule: the (f_h, γ, Δ) minimizing end-to-end time.

    ``gamma`` and ``delta`` are ``None`` when the optimum never evicts.
    """
    best = sweep.best(by=prioritize)
    return {
        "halo_fraction": best.halo_fraction,
        "eviction_enabled": best.eviction_enabled,
        "gamma": best.gamma,
        "delta": best.delta,
        "total_time_s": best.total_time_s,
        "hit_rate": best.hit_rate,
        "improvement_percent": best.improvement_percent,
    }


def delta_sweep(
    scenario: "ClusterScenario",
    gamma_values: Iterable[float],
    delta_values: Iterable[int],
    halo_fraction: float = 0.25,
    seed: int = 0,
    dataset: Optional[GraphDataset] = None,
    train_config: Optional[TrainConfig] = None,
) -> Dict[float, List[SweepPoint]]:
    """Fig. 12 data: for each γ, sweep the eviction interval Δ on a fresh workload."""
    deltas = tuple(delta_values)
    return {
        float(gamma): run_parameter_sweep(
            scenario,
            seed=seed,
            dataset=dataset,
            train_config=train_config,
            halo_fractions=(halo_fraction,),
            gammas=(gamma,),
            deltas=deltas,
        ).points
        for gamma in gamma_values
    }


def gamma_sweep(
    scenario: "ClusterScenario",
    gamma_values: Iterable[float],
    delta_values: Iterable[int],
    halo_fraction: float = 0.25,
    seed: int = 0,
    dataset: Optional[GraphDataset] = None,
    train_config: Optional[TrainConfig] = None,
) -> Dict[float, Dict[str, float]]:
    """Fig. 13 data: per γ, the mean/min/max time and hit rate across Δ values."""
    results: Dict[float, Dict[str, float]] = {}
    per_gamma = delta_sweep(
        scenario, gamma_values, delta_values, halo_fraction,
        seed=seed, dataset=dataset, train_config=train_config,
    )
    for gamma, points in per_gamma.items():
        times = np.array([p.total_time_s for p in points])
        hits = np.array([p.hit_rate for p in points])
        results[gamma] = {
            "mean_time_s": float(times.mean()),
            "min_time_s": float(times.min()),
            "max_time_s": float(times.max()),
            "mean_hit_rate": float(hits.mean()),
            "min_hit_rate": float(hits.min()),
            "max_hit_rate": float(hits.max()),
        }
    return results
