"""Event-driven online inference over a simulated cluster.

:class:`InferenceClusterEngine` is the serving counterpart of the training
engines: the same :class:`~repro.distributed.cluster.SimCluster`, pipelines,
and cost models, but driven by an open-loop request stream instead of epochs.
Each request is one user's ego-net inference:

1. an :data:`~repro.serving.arrivals.ARRIVALS` generator emits seeded
   ``(arrival_time, phase)`` pairs and a popularity-skewed user draw routes
   every request to the worker that **owns** the user's node (partition
   ownership, not load balancing — the same locality the training side
   exploits);
2. the worker's :class:`~repro.sampling.dataloader.DistDataLoader` samples
   the user's ego-net, the
   :class:`~repro.features.store.FeatureStore` fetches features through the
   tiered cache / batched-RPC path, and the model runs a forward-only pass;
3. every component is charged to the worker's
   :class:`~repro.distributed.clock.SimClock` and booked on the request's
   :class:`~repro.serving.report.RequestRecord` — queue wait falls out of
   FIFO service on the shared :class:`~repro.events.loop.EventLoop`.

Cache warm-up (the pipelines' init cost) happens *before* the serving
timeline starts and is reported as ``warmup_time_s``, so latency percentiles
measure steady-state serving, not one-time population.

Determinism is the async engine's contract: the loop breaks ties by
``(timestamp, rank, seq)`` and every stochastic choice derives from the
cluster seed, so the same seed replays the identical event history and the
identical :class:`~repro.serving.report.ServingReport` (pinned by
``tests/test_serving.py``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, List, Optional, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import SimCluster
from repro.events.loop import Event, EventLoop
from repro.serving.arrivals import ServingSpec, build_arrivals
from repro.serving.report import RequestRecord, ServingReport, WorkerServeStats
from repro.training.cluster_engine import merged_store_summary, prepare_cluster_run
from repro.training.config import TrainConfig
from repro.training.engine import PipelineBuilder
from repro.training.telemetry import StepTiming
from repro.utils.rng import derive_seed, ensure_rng

# Forward-only inference: train_step charges model.flops() for the full
# forward+backward+update of a step; a serving request runs just the forward
# pass, roughly one third of that FLOP count on the MLP-style layers here.
FORWARD_FRACTION = 1.0 / 3.0

# derive_seed salts of the serving engine's RNG streams (disjoint from the
# cluster's 101/211/307 spawn salts and the failure schedule's 761).
_ARRIVAL_SALT = 977
_USER_SALT = 983


class InferenceClusterEngine:
    """Serve an open-loop request stream with one worker per trainer context.

    Parameters
    ----------
    cluster, train_config, scenario:
        As for :class:`~repro.training.cluster_engine.ClusterEngine`; the
        train config supplies the model architecture/seed (a serving fleet
        loads the model training produced).
    serving:
        The :class:`~repro.serving.arrivals.ServingSpec` describing the
        arrival process, SLO, and user-popularity skew.
    record_events:
        Keep the popped-event history on :attr:`event_history` after a run
        (the determinism tests compare histories across runs).
    """

    def __init__(
        self,
        cluster: SimCluster,
        train_config: TrainConfig,
        scenario: Optional[str] = None,
        serving: Optional[ServingSpec] = None,
        record_events: bool = False,
    ):
        if serving is None:
            raise ValueError(
                "InferenceClusterEngine needs a ServingSpec (scenario field "
                "'serving'); training scenarios have none"
            )
        self.cluster = cluster
        self.config = train_config
        self.dataset = cluster.dataset
        self.scenario = scenario
        self.serving = serving
        self.record_events = record_events
        #: ``(kind, time, rank, seq)`` tuples of the last run (record_events).
        self.event_history: List[tuple] = []
        #: per-request ledgers of the last run (tests introspect these).
        self.request_records: List[RequestRecord] = []
        cluster.validate_seed_coverage()

    # ------------------------------------------------------------------ #
    def run(
        self,
        pipeline: Union[str, PipelineBuilder] = "tiered-cache",
        prefetch_config: Optional[PrefetchConfig] = None,
        cache_config: Optional[CacheConfig] = None,
    ) -> ServingReport:
        """Serve ``serving.num_requests`` requests; returns the run's report."""
        cluster, spec = self.cluster, self.serving
        setup = prepare_cluster_run(cluster, self.config, pipeline, prefetch_config, cache_config)
        trainers = cluster.trainers
        world = len(trainers)
        model = setup.model
        pipelines = setup.pipelines

        # Cache warm-up (init cost) stays off the serving timeline: record it,
        # then restart every clock at t=0 where the arrival process begins.
        warmup_time_s = max((t.clock.time for t in trainers), default=0.0)
        for trainer in trainers:
            trainer.clock.reset()

        # ---------------- the request stream ----------------
        seed = cluster.config.seed
        process = build_arrivals(spec)
        times, phases = process.generate(
            spec.num_requests, derive_seed(seed, _ARRIVAL_SALT)
        )
        users_global, users_local, users_rank = self._draw_users(
            phases, derive_seed(seed, _USER_SALT)
        )

        loop = EventLoop(record=self.record_events)
        n = spec.num_requests
        for i in range(n):
            loop.push(float(times[i]), "request", int(users_rank[i]), request=i)

        # ---------------- FIFO service per worker ----------------
        queues: List[Deque[int]] = [deque() for _ in range(world)]
        busy = [False] * world
        records: List[Optional[RequestRecord]] = [None] * n
        worker_requests = [0] * world
        worker_hits = [0] * world
        worker_misses = [0] * world

        def start_service(rank: int, now: float) -> None:
            i = queues[rank].popleft()
            trainer = trainers[rank]
            clock = trainer.clock
            clock.advance_to(now, "idle")
            start_s = clock.time
            # One coalescing window per request: the halo pulls of a single
            # ego-net batch share an RPC round, but requests never batch with
            # each other — latency is per-request, not per-convoy.
            trainer.rpc.begin_step(i)
            minibatch = trainer.dataloader.sample(
                np.asarray([users_local[i]], dtype=np.int64)
            )
            features, fetch_result = pipelines[rank].feature_store.fetch_minibatch(
                minibatch
            )
            fetch = fetch_result.merged
            cost = setup.cost_models[rank]
            timing = StepTiming.charge(cost, minibatch, fetch)
            fetch_s = timing.rpc + timing.copy + timing.lookup + timing.scoring + timing.eviction
            model.forward(minibatch.blocks, features)
            compute_s = cost.time_compute(model.flops(minibatch) * FORWARD_FRACTION)

            clock.advance(timing.sampling, "sampling")
            clock.advance(timing.rpc, "rpc")
            clock.advance(timing.copy, "copy")
            clock.advance(timing.lookup, "lookup")
            clock.advance(timing.scoring, "scoring")
            clock.advance(timing.eviction, "eviction")
            clock.advance(compute_s, "compute")

            worker_requests[rank] += 1
            worker_hits[rank] += fetch.num_hits
            worker_misses[rank] += fetch.num_misses
            records[i] = RequestRecord(
                request=i,
                user=int(users_global[i]),
                global_rank=rank,
                machine=trainer.machine,
                phase=int(phases[i]),
                arrival_s=float(times[i]),
                start_s=start_s,
                done_s=clock.time,
                sample_s=timing.sampling,
                fetch_s=fetch_s,
                compute_s=compute_s,
            )
            loop.push(clock.time, "done", rank, request=i)

        def on_request(ev: Event) -> None:
            rank = ev.rank
            queues[rank].append(ev.payload["request"])
            if not busy[rank]:
                busy[rank] = True
                start_service(rank, ev.time)

        def on_done(ev: Event) -> None:
            rank = ev.rank
            if queues[rank]:
                start_service(rank, ev.time)
            else:
                busy[rank] = False

        handlers = {"request": on_request, "done": on_done}
        while True:
            ev = loop.pop()
            if ev is None:
                break
            handlers[ev.kind](ev)

        stranded = [i for i in range(n) if records[i] is None]
        if stranded:
            raise RuntimeError(
                f"event loop drained with requests {stranded[:5]} unserved: "
                "the FIFO release chain broke"
            )
        if self.record_events:
            self.event_history = list(loop.history)
        self.request_records = [r for r in records if r is not None]

        # ---------------- roll-up ----------------
        worker_stats = []
        for rank, (trainer, pl) in enumerate(zip(trainers, pipelines)):
            total = worker_hits[rank] + worker_misses[rank]
            worker_stats.append(
                WorkerServeStats(
                    global_rank=trainer.global_rank,
                    machine=trainer.machine,
                    local_rank=trainer.local_rank,
                    requests=worker_requests[rank],
                    busy_time_s=trainer.clock.time
                    - trainer.clock.component_time("idle"),
                    hit_rate=worker_hits[rank] / total if total else None,
                    rpc_stats=trainer.rpc.stats.as_dict(),
                    components=trainer.clock.breakdown(),
                    cache_stats=pl.feature_store.cache_summary(),
                )
            )

        done_times = [r.done_s for r in self.request_records]
        first_arrival = float(times.min()) if n else 0.0
        duration_s = (max(done_times) - first_arrival) if done_times else 0.0
        return ServingReport(
            scenario=self.scenario,
            dataset=cluster.dataset.name,
            arrival=spec.describe(),
            num_machines=cluster.config.num_machines,
            trainers_per_machine=cluster.config.trainers_per_machine,
            num_requests=n,
            completed=len(self.request_records),
            offered_rate_rps=spec.rate_rps,
            slo_ms=spec.slo_ms,
            warmup_time_s=warmup_time_s,
            duration_s=duration_s,
            requests=self.request_records,
            worker_stats=worker_stats,
            store_summary=merged_store_summary(pipelines),
            wall_clock_s=time.perf_counter() - setup.wall_start,
        )

    # ------------------------------------------------------------------ #
    def _draw_users(self, phases: np.ndarray, seed: int):
        """Popularity-skewed user draw, routed by partition ownership.

        The candidate pool is the union of every worker's training seeds, so
        the requesting "users" are nodes the owning worker can both sample
        and label.  A seeded permutation defines the popularity order and a
        power-law (``zipf_alpha``) weights it; with ``phase_drift`` the
        peak-phase popularity order is the permutation rotated by half the
        pool — the working set moves between phases, which is what drags the
        cache hit rate in ``diurnal-cache-drift``.
        """
        trainers = self.cluster.trainers
        pools_local = [np.asarray(t.seeds_local, dtype=np.int64) for t in trainers]
        pool_local = np.concatenate(pools_local)
        pool_global = np.concatenate(
            [t.partition.owned_global[p] for t, p in zip(trainers, pools_local)]
        )
        pool_rank = np.concatenate(
            [np.full(len(p), r, dtype=np.int64) for r, p in enumerate(pools_local)]
        )
        size = len(pool_local)
        if size == 0:
            raise RuntimeError("no training seeds to serve requests for")

        rng = ensure_rng(seed)
        perm = rng.permutation(size)
        weights = (np.arange(size, dtype=np.float64) + 1.0) ** (
            -self.serving.zipf_alpha
        )
        weights /= weights.sum()
        draws = rng.choice(size, size=len(phases), p=weights)

        positions = perm[draws]
        if self.serving.phase_drift:
            shifted = np.roll(perm, size // 2)
            peak = np.asarray(phases) == 1
            positions = np.where(peak, shifted[draws], positions)
        return pool_global[positions], pool_local[positions], pool_rank[positions]
