"""The four benchmark workloads, how one segment of each is run, and what is checked.

A **segment** is ``ClusterScenario.materialize(seed)`` (timed as set-up)
followed by one ``run()`` (timed as work).  An **op** is one minibatch step of
one simulated trainer, or one completed serving request.  Everything a
segment does is a function of ``(workload, seed)``, so every segment of a
process does bit-identical work and any difference between their times is
the machine's, not the program's.
"""

from __future__ import annotations

import gc
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.distributed.rpc import aggregate_rpc_stats
from repro.scenarios.registry import SCENARIOS, ClusterScenario, ClusterWorkload

# The vectorized sampler + batched RPC pair is the fast path ROADMAP item 2
# wants to make the only path; three of the four workloads already run it so
# that a sampler change shows on `train_prefetch` alone.
_FAST_PATH = {"sampler": "vectorized", "rpc": "batched"}


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: a shipped scenario plus fixed overrides."""

    name: str
    scenario: str
    why: str
    overrides: Dict[str, object] = field(default_factory=dict)
    requests: int = 0  # serving workloads only: requests per segment
    # Lowest final train accuracy over seeds 0-19 at the commit that defined
    # the benchmark; a run must stay above 0.9x this (0 = forward-only, no check).
    accuracy_floor: float = 0.0

    @property
    def serving(self) -> bool:
        return self.requests > 0

    def smoke(self) -> "Workload":
        """The same path at a size that runs in a fraction of a second.

        A plumbing check, not a measurement: one epoch on a tiny graph learns
        nothing, so the accuracy floor does not apply.
        """
        return replace(self, overrides={**self.overrides, "scale": 0.05, "epochs": 1},
                       requests=min(self.requests, 40), accuracy_floor=0.0)

    def build(self) -> ClusterScenario:
        """The scenario recipe this workload runs."""
        scenario: ClusterScenario = SCENARIOS.build(self.scenario).with_overrides(
            **self.overrides)
        if self.serving:
            scenario = scenario.with_overrides(
                serving=replace(scenario.serving, num_requests=self.requests))
        return scenario


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="train_prefetch",
        scenario="uniform",
        why="repro run --cluster as shipped: legacy sampler, per-call RPC, Algorithms 1-2 "
            "on the path, no cache tiers",
        overrides={"scale": 0.3, "epochs": 2},
        accuracy_floor=0.72,
    ),
    Workload(
        name="train_hub_bulk",
        scenario="hot-halo",
        why="hub-heavy RMAT graph, wide fanouts, big batches: aggregation and RPC volume "
            "dominate, the sampler is off the profile",
        overrides={"scale": 0.3, "epochs": 2, "fanouts": (10, 25), "batch_size": 128,
                   **_FAST_PATH},
        accuracy_floor=0.41,
    ),
    Workload(
        name="train_churn_async",
        scenario="cache-churn",
        why="undersized two-tier CLOCK cache used for writes (hit rate ~0.2) under the "
            "event-driven engine with bounded staleness; prefetcher idle",
        overrides={"scale": 0.3, "epochs": 2, "engine": "async",
                   "sync": "bounded-staleness", "staleness": 2, **_FAST_PATH},
        accuracy_floor=0.63,
    ),
    Workload(
        name="serve_steady",
        scenario="steady-poisson",
        why="open-loop Poisson serving, one seed per request: the same cache used for "
            "reads (hit rate ~0.95), per-call overhead dominates",
        overrides={"scale": 0.3},
        requests=800,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


# --------------------------------------------------------------------------- #
# Running one segment
# --------------------------------------------------------------------------- #
_RNG = np.random.default_rng(0)
_ROWS = _RNG.standard_normal((10000, 100), dtype=np.float32)
_GATHER = _RNG.integers(0, 10000, 10000)
_SCATTER = np.sort(_RNG.integers(0, 1000, 10000))
_WEIGHT = _RNG.standard_normal((100, 32)).astype(np.float32)
_IDS = np.arange(0, 60000, 2)
# The canary's fastest time on the machine that defined the benchmark, idle.
CANARY_REF_S = 0.0125
CANARY_REPS = 3


def canary_s() -> float:
    """A fixed kernel shaped like the run path: how loaded the machine is right now.

    Gather + ``np.add.at`` scatter + small matmul (the ``nn`` layer), sorted-array
    insert/delete (the cache tiers), a pure-Python loop and many tiny NumPy
    calls (sampler and per-call overhead).  It lives in the benchmark, so no
    change to ``src/`` can make it faster.
    """
    start = time.perf_counter()
    out = np.zeros((1000, 100), dtype=np.float32)
    np.add.at(out, _SCATTER, _ROWS[_GATHER])
    out @ _WEIGHT
    ids = _IDS
    for k in range(15):
        ids = np.delete(np.insert(ids, 1000 + k, 2 * k + 1), 5)
    acc = 0
    for i in range(8000):
        acc += i * i
    small = np.arange(64)
    for _ in range(500):
        np.unique(small)
    return time.perf_counter() - start


def load_s() -> float:
    """How slow the machine is right now: the fastest of ``CANARY_REPS`` canaries.

    A 5 ms blip barely moves a 1 s segment but adds 40% to one 13 ms canary,
    so a single canary would feed its own noise into every sample; the
    fastest of a few only follows slowness that lasts.
    """
    return min(canary_s() for _ in range(CANARY_REPS))


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """``(result, wall seconds)`` of ``fn()``, collector run before and off inside."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Segment:
    """What one materialize + run produced."""

    built: ClusterWorkload
    report: object                 # ClusterReport | ServingReport | None if run() raised
    setup_s: float                 # wall seconds of materialize()
    run_s: float                   # wall seconds of run()
    setup_load: float              # mean of load_s() before and after each
    run_load: float
    ops_expected: int
    ops_done: int
    violations: List[str]

    @property
    def ops_failed(self) -> int:
        """Ops that did not happen, or all of them when any output check failed."""
        if self.violations:
            return max(self.ops_expected, 1)
        return max(self.ops_expected - self.ops_done, 0)


def run_segment(
    workload: Workload,
    scenario: ClusterScenario,
    seed: int,
    pipeline: Optional[str] = None,
    between: Optional[Callable[[], None]] = None,
    around_run: Optional[Callable[[Callable[[], object]], object]] = None,
) -> Segment:
    """Materialize and run *scenario* once; ``between`` fires after set-up.

    ``around_run`` lets the traced pass run ``run()`` under the profile hook.
    A ``run()`` that raises is a failed segment, not a crashed benchmark.
    """
    load_before = load_s()
    built, setup_s = timed(lambda: scenario.materialize(seed))
    load_between = load_s()
    setup_load = (load_before + load_between) / 2
    if between is not None:
        between()
    expected = ops_expected(built)

    def call():
        return built.run(pipeline=pipeline)

    try:
        report, run_s = timed(call if around_run is None else lambda: around_run(call))
    except Exception:  # noqa: BLE001 - the boundary that must keep counting
        traceback.print_exc()
        return Segment(built, None, setup_s, 0.0, setup_load, 1.0, expected, 0,
                       ["run() raised"])
    run_load = (load_between + load_s()) / 2
    return Segment(
        built, report, setup_s, run_s, setup_load, run_load, expected, ops_done(report),
        violations(workload, built, report, expected),
    )


def ops_expected(built: ClusterWorkload) -> int:
    """Requests offered, or every trainer's batches per epoch times epochs."""
    scenario = built.scenario
    if scenario.serving is not None:
        return int(scenario.serving.num_requests)
    return int(sum(t.num_batches_per_epoch for t in built.cluster.trainers) * scenario.epochs)


def ops_done(report) -> int:
    if hasattr(report, "completed"):
        return int(report.completed)
    return int(report.report.num_minibatches)


def members(report) -> list:
    """Per-trainer (training) or per-worker (serving) stats of a report."""
    return report.worker_stats if hasattr(report, "worker_stats") else report.trainer_stats


def violations(workload: Workload, built: ClusterWorkload, report, expected: int) -> List[str]:
    """Conservation laws every run must satisfy; empty when the output is correct."""
    out: List[str] = []
    done = ops_done(report)
    if done != expected:
        out.append(f"ops done {done} != expected {expected}")
    if workload.serving:
        if len(report.requests) != report.num_requests:
            out.append("a request has no ledger")
    else:
        # Batches partition each trainer's shuffled seeds (no drop_last), so
        # the step count per trainer is what "every seed once per epoch" means.
        for trainer, stats in zip(built.cluster.trainers, report.trainer_stats):
            want = trainer.num_batches_per_epoch * built.scenario.epochs
            if stats.num_steps != want:
                out.append(f"trainer {stats.global_rank}: {stats.num_steps} steps != {want}")
        losses = [r.loss for r in report.report.epoch_records]
        if not losses or not all(math.isfinite(x) for x in losses):
            out.append(f"non-finite loss {losses}")
        accuracy = report.report.final_train_accuracy
        if accuracy < 0.9 * workload.accuracy_floor:
            out.append(f"final accuracy {accuracy:.4f} < 0.9 x {workload.accuracy_floor}")
    rpc = aggregate_rpc_stats([t.rpc for t in built.cluster.trainers])
    if rpc.nodes_fetched > rpc.nodes_requested:
        out.append(f"RPC wire rows {rpc.nodes_fetched} > logical {rpc.nodes_requested}")
    for member in members(report):
        for key, resident in member.cache_stats.items():
            if key.endswith(".resident"):
                capacity = member.cache_stats[key[: -len("resident")] + "capacity"]
                if resident > capacity:
                    out.append(f"{key} {resident} > capacity {capacity}")
    return out


# --------------------------------------------------------------------------- #
# Simulated end-to-end metrics (deterministic given workload and seed)
# --------------------------------------------------------------------------- #
def sim_metrics(built: ClusterWorkload, report, ops: int) -> Dict[str, float]:
    """The simulated end-to-end metrics one report yields (speed-up aside)."""
    rpc = aggregate_rpc_stats([t.rpc for t in built.cluster.trainers])
    if hasattr(report, "worker_stats"):
        critical = max(w.busy_time_s for w in report.worker_stats)
        p99_ms = report.latency_ms()["p99"]
    else:
        critical = report.critical_path_time_s
        # Time off the barrier per step: the straggler's own step time, which
        # is what everyone else waits for.  (Clock time per step would make
        # the trainers that idle at the barrier look like the slow ones.)
        step_s = [t.busy_time_s / t.num_steps for t in report.trainer_stats if t.num_steps]
        p99_ms = float(np.percentile(step_s, 99.0)) * 1e3
    return {
        "sim_critical_path_s": float(critical),
        "halo_hit_rate": float(report.mean_hit_rate or 0.0),
        "sim_rpc_mb_per_op": rpc.bytes_fetched / max(ops, 1) / 1e6,
        "sim_p99_ms": float(p99_ms),
    }


def sim_cost(report) -> float:
    """What the baseline comparison divides: critical path, or mean latency."""
    if hasattr(report, "worker_stats"):
        return float(report.latency_ms()["mean"])
    return float(report.critical_path_time_s)
