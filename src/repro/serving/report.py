"""Per-request ledgers and the run-level :class:`ServingReport`.

The serving engine books every request's life as four component times —
queue wait, ego-net sampling, feature fetch, forward compute — and the
report rolls those ledgers up into the tail metrics a serving system is
judged by: p50/p95/p99 latency, sustained throughput, SLO-violation rate,
and the per-tier cache hit rates that explain *why* the tail looks the way
it does.  Quantiles come from the shared
:func:`~repro.training.telemetry.percentile_summary`, the same rule the
training-side :class:`~repro.training.cluster_engine.ClusterReport` uses.

``as_dict()`` deliberately excludes wall-clock time and follows the repo's
conditional-key schema discipline (phase splits appear only when a second
phase exists), so canonical-JSON comparison of two same-seed reports is the
determinism test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.training.telemetry import mean_hit_rate, mean_tier_hit_rates, percentile_summary

#: latency components, in request-lifecycle order.
COMPONENTS = ("queue_wait", "sample", "fetch", "compute")


@dataclass
class RequestRecord:
    """One served request's ledger (all times simulated seconds)."""

    request: int
    user: int                 # global node id of the requesting user
    global_rank: int          # worker that served it
    machine: int
    phase: int                # 0 steady, 1 peak/burst (ARRIVALS phases)
    arrival_s: float
    start_s: float
    done_s: float
    sample_s: float
    fetch_s: float
    compute_s: float

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        return self.done_s - self.arrival_s

    def component_times_s(self) -> Dict[str, float]:
        return {
            "queue_wait": self.queue_wait_s,
            "sample": self.sample_s,
            "fetch": self.fetch_s,
            "compute": self.compute_s,
        }


@dataclass
class WorkerServeStats:
    """One worker's (trainer context repurposed as a server) run summary."""

    global_rank: int
    machine: int
    local_rank: int
    requests: int
    busy_time_s: float
    hit_rate: Optional[float] = None
    rpc_stats: Dict[str, float] = field(default_factory=dict)
    components: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out = {
            "global_rank": self.global_rank,
            "machine": self.machine,
            "local_rank": self.local_rank,
            "requests": self.requests,
            "busy_time_s": self.busy_time_s,
            "hit_rate": self.hit_rate,
            "rpc_stats": dict(self.rpc_stats),
            "components": dict(self.components),
        }
        if self.cache_stats:
            out["cache_stats"] = dict(self.cache_stats)
        return out


@dataclass
class ServingReport:
    """Everything one serving run produces (benchmarks, CLI, replay tests)."""

    scenario: Optional[str]
    dataset: str
    arrival: str                       # ServingSpec.describe() of the stream
    num_machines: int
    trainers_per_machine: int
    num_requests: int
    completed: int
    offered_rate_rps: float
    slo_ms: float
    warmup_time_s: float               # cache-warm/init cost, off the timeline
    duration_s: float                  # first arrival -> last completion
    requests: List[RequestRecord] = field(default_factory=list)
    worker_stats: List[WorkerServeStats] = field(default_factory=list)
    store_summary: Dict[str, float] = field(default_factory=dict)
    wall_clock_s: float = 0.0          # excluded from as_dict (not replayable)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def latency_ms(self) -> Dict[str, float]:
        """p50/p95/p99/mean/max end-to-end latency, milliseconds."""
        return percentile_summary(r.latency_s * 1e3 for r in self.requests)

    def component_ms(self) -> Dict[str, Dict[str, float]]:
        """Per-component latency summaries, milliseconds, lifecycle order."""
        out: Dict[str, Dict[str, float]] = {}
        for name in COMPONENTS:
            out[name] = percentile_summary(
                r.component_times_s()[name] * 1e3 for r in self.requests
            )
        return out

    @property
    def slo_violations(self) -> int:
        slo_s = self.slo_ms / 1e3
        return sum(1 for r in self.requests if r.latency_s > slo_s)

    @property
    def slo_violation_rate(self) -> float:
        return self.slo_violations / len(self.requests) if self.requests else 0.0

    def phase_latency_ms(self) -> Dict[str, Dict[str, float]]:
        """Latency summaries split by arrival phase (steady vs peak/burst).

        Empty when the stream is single-phase, so single-phase report schemas
        stay flat (the conditional-key discipline the golden fixtures follow).
        """
        phases = sorted({r.phase for r in self.requests})
        if len(phases) < 2:
            return {}
        from repro.serving.arrivals import PHASE_LABELS

        return {
            PHASE_LABELS.get(p, str(p)): percentile_summary(
                r.latency_s * 1e3 for r in self.requests if r.phase == p
            )
            for p in phases
        }

    @property
    def mean_hit_rate(self) -> Optional[float]:
        return mean_hit_rate(self.worker_stats)

    def mean_tier_hit_rates(self) -> Dict[str, float]:
        """Mean per-tier hit rate across workers (same keys as ClusterReport)."""
        return mean_tier_hit_rates(self.worker_stats)

    @property
    def mean_utilization(self) -> float:
        """Mean fraction of the serving window workers spent busy."""
        if not self.worker_stats or self.duration_s <= 0:
            return 0.0
        busy = [w.busy_time_s for w in self.worker_stats]
        return float(np.mean(busy) / self.duration_s)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """Flat serving metrics (benchmark tables and the CLI)."""
        latency = self.latency_ms()
        out: Dict[str, object] = {
            "scenario": self.scenario or "",
            "arrival": self.arrival,
            "dataset": self.dataset,
            "num_machines": float(self.num_machines),
            "world_size": float(self.num_machines * self.trainers_per_machine),
            "num_requests": float(self.num_requests),
            "completed": float(self.completed),
            "offered_rate_rps": self.offered_rate_rps,
            "throughput_rps": self.throughput_rps,
            "duration_s": self.duration_s,
            "warmup_time_s": self.warmup_time_s,
            "mean_utilization": self.mean_utilization,
            "slo_ms": self.slo_ms,
            "slo_violations": float(self.slo_violations),
            "slo_violation_rate": self.slo_violation_rate,
        }
        for key in ("p50", "p95", "p99", "mean", "max"):
            out[f"latency_ms.{key}"] = latency[key]
        if self.mean_hit_rate is not None:
            out["mean_hit_rate"] = self.mean_hit_rate
        for prefix, rate in sorted(self.mean_tier_hit_rates().items()):
            out[f"cache.{prefix}.hit_rate"] = rate
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable dump (trace files, replay/determinism tests)."""
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "dataset": self.dataset,
            "arrival": self.arrival,
            "num_machines": self.num_machines,
            "trainers_per_machine": self.trainers_per_machine,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "offered_rate_rps": self.offered_rate_rps,
            "throughput_rps": self.throughput_rps,
            "duration_s": self.duration_s,
            "warmup_time_s": self.warmup_time_s,
            "slo_ms": self.slo_ms,
            "slo_violations": self.slo_violations,
            "slo_violation_rate": self.slo_violation_rate,
            "latency_ms": self.latency_ms(),
            "component_ms": self.component_ms(),
            "requests": [
                {
                    "request": r.request,
                    "user": r.user,
                    "global_rank": r.global_rank,
                    "machine": r.machine,
                    "phase": r.phase,
                    "arrival_s": r.arrival_s,
                    "start_s": r.start_s,
                    "done_s": r.done_s,
                    "queue_wait_s": r.queue_wait_s,
                    "sample_s": r.sample_s,
                    "fetch_s": r.fetch_s,
                    "compute_s": r.compute_s,
                }
                for r in self.requests
            ],
            "workers": [w.as_dict() for w in self.worker_stats],
            "store_summary": dict(self.store_summary),
        }
        phase_split = self.phase_latency_ms()
        if phase_split:
            out["phase_latency_ms"] = phase_split
        return out
