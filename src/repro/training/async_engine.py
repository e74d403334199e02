"""Event-driven cluster execution: trainers post events instead of lockstepping.

:class:`AsyncClusterEngine` is the discrete-event counterpart of the lockstep
:class:`~repro.training.cluster_engine.ClusterEngine`.  Instead of marching
every trainer to a shared allreduce barrier each step, trainers post
**step-completion events** onto a deterministic
:class:`~repro.events.loop.EventLoop` (ties broken by ``(timestamp, rank,
seq)``), and a pluggable :class:`~repro.events.sync.SyncPolicy` from
:data:`~repro.events.sync.SYNC_POLICIES` decides when gradients meet the
model:

* ``allreduce-barrier`` reproduces the lockstep engine **bit-identically** —
  same losses, clocks, barrier waits, and RPC wire counters on the golden
  2x2 workload (pinned by ``tests/test_async_engine.py``);
* ``bounded-staleness`` lets trainers run up to K rounds ahead, applying
  stale averaged gradients — stragglers stop dragging the whole cluster;
* ``local-sgd`` gives every trainer its own parameter replica and averages
  them every H steps.

The event loop is also where behaviours a barrier cannot express live:

* **transient failures** (``trainer-flaky`` scenario) — a seeded
  :class:`~repro.events.schedule.FailureSchedule` takes a trainer down after
  selected steps; the outage is booked as ``downtime`` on its clock, a
  ``fail``/``recover`` event pair lands in the loop, and peers feel the gap
  through whichever sync policy is active.  Same seed ⇒ bit-identical replay.
* **time-varying congestion** (``congested-link`` scenario) — handled below
  the engine by :class:`~repro.distributed.cost_model.CongestedCostModel`,
  which the event-driven clocks make meaningful (different trainers hit
  different bursts).
* **elastic membership** (``scale-out-burst``/``cascading-failure``/
  ``rolling-upgrade`` scenarios) — a seeded
  :class:`~repro.events.schedule.ElasticSpec` holds ranks out, joins them, or
  removes them mid-run.  Every membership change lands a ``rebalance`` event
  that re-splits the machine's seed ownership (and adopts a fully drained
  machine's partition onto a survivor); the data movement is charged through
  :meth:`~repro.distributed.cost_model.CostModel.time_migration` as the
  ``migration`` clock component.  Joins take effect on scheduling at the next
  epoch boundary; leaves drain immediately (after the in-flight step, whose
  gradient still counts).
* **checkpoint/restore** (:mod:`repro.training.checkpoint`) — whenever
  failures or elasticity are in play, the engine captures the consensus
  model/optimizer state after every applied sync round; a trainer recovering
  from an outage restores from the last checkpoint (resuming from its step,
  not step 0) and pays the restore transfer as ``migration`` time.

All stress inputs arrive through one seam: each spec implements
:class:`~repro.events.schedule.ScheduleSpec` and the engine calls
``spec.materialize(world_size, seed)`` to obtain the runtime schedule.

Everything around the event core — run setup, per-step compute, the barrier
charge, telemetry roll-up — is :class:`~repro.training.backends.ClusterRun`,
the run state shared with the lockstep engine, so the two cannot drift.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import SimCluster
from repro.distributed.cost_model import BYTES_PER_FEATURE
from repro.events.loop import Event, EventLoop
from repro.events.schedule import ElasticSpec, FailureSpec
from repro.events.sync import SYNC_POLICIES, StepContribution, SyncContext, SyncPolicy
from repro.training.backends import ClusterRun
from repro.training.checkpoint import CheckpointStore
from repro.training.cluster_engine import ClusterReport
from repro.training.config import TrainConfig
from repro.training.engine import PipelineBuilder


class AsyncClusterEngine:
    """Run one pipeline per trainer, scheduled by a discrete-event loop.

    Parameters
    ----------
    cluster, train_config, scenario:
        As for :class:`~repro.training.cluster_engine.ClusterEngine`.
    sync:
        Name of the gradient synchronization policy
        (:data:`~repro.events.sync.SYNC_POLICIES`).
    sync_options:
        Keyword arguments for the policy factory (e.g. ``staleness=2`` for
        ``bounded-staleness``, ``sync_period=4`` for ``local-sgd``).
    failures:
        Optional :class:`~repro.events.schedule.FailureSpec`; when set, a
        seeded schedule injects transient trainer outages.
    elastic:
        Optional :class:`~repro.events.schedule.ElasticSpec`; when set (and
        non-empty), a seeded membership timeline holds ranks out, joins them,
        or removes them mid-run, with seed ownership re-split and migration
        charged on every change.  Requires a sync policy without per-trainer
        replicas.
    record_events:
        Keep the popped-event history on :attr:`event_history` after a run
        (the determinism tests compare histories across runs).
    """

    def __init__(
        self,
        cluster: SimCluster,
        train_config: TrainConfig,
        scenario: Optional[str] = None,
        sync: str = "allreduce-barrier",
        sync_options: Optional[Dict[str, object]] = None,
        failures: Optional[FailureSpec] = None,
        elastic: Optional[ElasticSpec] = None,
        record_events: bool = False,
    ):
        self.cluster = cluster
        self.config = train_config
        self.scenario = scenario
        self.sync = SYNC_POLICIES.resolve(sync)
        self.sync_options = dict(sync_options or {})
        self.failures = failures
        self.elastic = elastic
        self.record_events = record_events
        #: ``(kind, time, rank, seq)`` tuples of the last run (record_events).
        self.event_history: List[tuple] = []
        cluster.validate_seed_coverage()

    # ------------------------------------------------------------------ #
    def run(
        self,
        pipeline: Union[str, PipelineBuilder] = "baseline",
        prefetch_config: Optional[PrefetchConfig] = None,
        cache_config: Optional[CacheConfig] = None,
    ) -> ClusterReport:
        """Train the cluster event-driven; same contract as the lockstep engine."""
        policy = SYNC_POLICIES.build(self.sync, **self.sync_options)
        elastic = self.elastic if self.elastic is not None and not self.elastic.is_empty else None
        if elastic is not None and policy.owns_replicas:
            raise ValueError(
                f"elastic membership is incompatible with sync policy "
                f"{policy.name!r}: replica averaging over dynamic "
                f"membership is undefined"
            )
        run = ClusterRun(self.cluster, self.config, pipeline, prefetch_config, cache_config)
        driver = _EventDrivenRun(
            run, policy, self.failures, elastic, EventLoop(record=self.record_events)
        )
        self.checkpoint_store = driver.checkpoint_store
        driver.execute()
        if self.record_events:
            self.event_history = list(driver.loop.history)
        self._final_model = run.setup.model
        return run.finish(
            self.scenario, driver.sync_extras, engine="async", sync=policy.describe()
        )

    # ------------------------------------------------------------------ #
    @property
    def final_model(self):
        """The trained model from the most recent run."""
        model = getattr(self, "_final_model", None)
        if model is None:
            raise RuntimeError("no cluster run has completed yet")
        return model


class _EventDrivenRun:
    """One event-driven run: the scheduling state and its event handlers.

    :class:`~repro.training.backends.ClusterRun` owns what a step *is*; this
    object owns *when* steps happen — the event loop, the sync policy, the
    failure and membership schedules — as named handlers over plain
    attributes (``active``/``epoch_done``/``epoch_steps`` are per-epoch and
    rebound by :meth:`_begin_epoch`; everything else lives for the run).
    """

    def __init__(
        self,
        run: ClusterRun,
        policy: SyncPolicy,
        failures: Optional[FailureSpec],
        elastic: Optional[ElasticSpec],
        loop: EventLoop,
    ):
        self.run = run
        self.policy = policy
        self.loop = loop
        self.cluster = cluster = run.cluster
        self.trainers = cluster.trainers
        self.tpm = cluster.config.trainers_per_machine
        world = self.world = len(self.trainers)
        # Stress schedules materialize through the one ScheduleSpec seam.
        self.failures = (
            failures.materialize(world, cluster.config.seed) if failures is not None else None
        )
        self.elastic = elastic
        self.elastic_schedule = (
            elastic.materialize(world, cluster.config.seed) if elastic is not None else None
        )

        self.sync_extras: List[Dict[str, float]] = [{} for _ in range(world)]
        self.down = [False] * world
        self.pending_release = [False] * world
        # Elastic membership state.  member_active is the authoritative
        # roster; it changes mid-run only under an elastic schedule, and the
        # per-epoch scheduling state is derived from it at epoch start.
        self.member_active = [True] * world
        self.inflight = [False] * world      # a step-done event is in the loop
        # Membership events landing mid-step defer past the in-flight step and
        # replay in arrival order at its step-done ("leave"/"join" strings), so
        # a leave→rejoin pair spanning one long step still detaches *and*
        # reactivates instead of the rejoin being dropped as a no-op.
        self.deferred: List[List[str]] = [[] for _ in range(world)]
        self.rebalance_salts: Dict[int, int] = {}
        if self.elastic_schedule is not None:
            for held_rank in self.elastic_schedule.initially_inactive:
                self.member_active[held_rank] = False

        # Consensus checkpointing: captured after every applied sync round
        # whenever a recovery (failures) or membership change (elastic) could
        # need it; None keeps the plain apply path.
        self.checkpoint_store = (
            CheckpointStore()
            if self.failures is not None or self.elastic_schedule is not None
            else None
        )
        self.applied_rounds = 0

        self.handlers = {
            "step-ready": self.on_step_ready,
            "step-done": self.on_step_done,
            "recover": self.on_recover,
            "fail": self.on_fail,
            "join": self.on_join,
            "leave": self.on_leave,
            "rebalance": self.on_rebalance,
        }
        self.ctx = self._sync_context()
        policy.bind(self.ctx)

    def _sync_context(self) -> SyncContext:
        """What the sync policy sees of the run: its ledgers and these callbacks."""
        run, setup = self.run, self.run.setup
        return SyncContext(
            trainers=self.trainers,
            model=setup.model,
            cost_model=self.cluster.cost_model,
            num_params=setup.num_params,
            accumulators=setup.accumulators,
            barrier_waits=run.barrier_waits,
            sync_extras=self.sync_extras,
            train_config=run.config,
            schedule_ready=self.schedule_ready,
            record_round=self.record_round,
            record_step=self.record_step,
            start_step=self.start_step,
            allreduce_barrier=run.allreduce_barrier,
            apply_update=self.apply_update,
        )

    # ---------------- epoch loop ----------------
    def execute(self) -> None:
        """Drain the event loop once per epoch until the run is complete."""
        if self.elastic_schedule is not None:
            self._deploy_membership_schedule()
        for epoch in range(self.run.config.epochs):
            self._begin_epoch()
            while True:
                ev = self.loop.pop()
                if ev is None:
                    break
                self.handlers[ev.kind](ev)
            stranded = [r for r in range(self.world) if not self.epoch_done[r]]
            if stranded:
                raise RuntimeError(
                    f"event loop drained with trainers {stranded} stranded in epoch "
                    f"{epoch}: sync policy {self.policy.name!r} failed to release them"
                )
            self.policy.on_epoch_end()
            self.run.finish_epoch()
        self.policy.on_run_end()

    def _begin_epoch(self) -> None:
        self.run.begin_epoch()
        self.active = list(self.member_active)
        self.epoch_done = [not active for active in self.member_active]
        self.epoch_steps = [0] * self.world
        self.policy.on_epoch_start(
            [rank for rank in range(self.world) if self.member_active[rank]]
        )
        for rank in range(self.world):
            self.schedule_ready(rank)

    def _deploy_membership_schedule(self) -> None:
        """Apply the initial holdout and queue the whole membership timeline."""
        # Initial holdout: strip the held-out ranks' seeds and hand them to
        # the active trainers (uncharged — this is the starting deployment,
        # not a mid-run migration), adopting any fully drained machine's
        # partition onto a survivor.
        for machine in range(self.cluster.config.num_machines):
            if any(not self.member_active[r] for r in self._machine_ranks(machine)):
                self.rebalance_machine(machine, charge=False)
        # The whole membership timeline lands in the loop up front; the heap
        # interleaves it with step events by simulated time.
        for event_time, kind, rank in self.elastic_schedule.events:
            self.loop.push(event_time, kind, rank)

    # ---------------- policy callbacks ----------------
    def schedule_ready(self, rank: int) -> None:
        """Policy callback: the trainer may begin its next step.

        Routed through the engine so epoch caps, exhausted iterators, and
        failure outages are honoured before an event lands in the loop.
        """
        if not self.active[rank]:
            return
        cap = self.run.config.max_steps_per_epoch
        if cap is not None and self.epoch_steps[rank] >= cap:
            self.mark_exhausted(rank)
            return
        if self.down[rank]:
            self.pending_release[rank] = True
            return
        self.loop.push(self.trainers[rank].clock.time, "step-ready", rank)

    def mark_exhausted(self, rank: int) -> None:
        self.active[rank] = False
        self.epoch_done[rank] = True
        self.policy.on_trainer_exhausted(rank, self.trainers[rank].clock.time)

    def record_round(self, contributions: List[StepContribution]) -> None:
        for c in contributions:
            self.record_step(c)

    def record_step(self, c: StepContribution) -> None:
        self.run.record(c.loss, c.n_correct, c.n_seen)

    def apply_update(self, averaged: Dict[str, np.ndarray]) -> bool:
        changed = self.run.apply_update(averaged)
        if self.checkpoint_store is not None:
            self.applied_rounds += 1
            setup = self.run.setup
            self.checkpoint_store.update(
                setup.model, setup.optimizer, self.applied_rounds, self.run.now()
            )
        return changed

    def start_step(self, rank: int) -> None:
        """Run *rank*'s next step host-side and post its completion event.

        Event timestamps only order execution: the step's cost lands on the
        trainer's own clock inside :meth:`ClusterRun.step`, and the
        ``step-done`` event is stamped with where that clock ended up.
        """
        policy = self.policy
        result = self.run.step(
            rank, policy.coalescing_round(rank), before_compute=policy.before_step
        )
        if result is None:
            self.mark_exhausted(rank)
            return
        timing, loss, n_correct, n_seen, grads = result
        self.epoch_steps[rank] += 1
        self.inflight[rank] = True
        grads = policy.process_step(rank, grads)
        self.loop.push(
            self.trainers[rank].clock.time,
            "step-done",
            rank,
            contribution=StepContribution(rank, loss, n_correct, n_seen, grads),
            step_critical=timing.critical_path,
        )

    # ---------------- step / failure handlers ----------------
    def on_step_ready(self, ev: Event) -> None:
        rank = ev.rank
        if not self.active[rank]:
            # The rank detached (elastic leave) after this ready event was
            # queued; never hand it to the policy.
            return
        if self.down[rank]:
            # Unreachable under the shipped policies (a trainer can only fail
            # during its own step-done, before any release), but a future
            # policy releasing early must not start a downed trainer.
            self.pending_release[rank] = True
            return
        if self.policy.can_start(rank):
            self.start_step(rank)
        # Otherwise the policy holds the trainer (and starts it itself).

    def on_step_done(self, ev: Event) -> None:
        rank, now = ev.rank, ev.time
        self.inflight[rank] = False
        # Failure (if scheduled for the step that just finished) lands
        # *before* the policy reacts: the gradient still counts — the
        # compute completed — but the trainer goes dark before it can be
        # released, so peers meet the outage at their next sync point.
        if self.failures is not None:
            factor = self.failures.downtime_factor(rank, self.run.trainer_steps[rank] - 1)
            if factor is not None:
                self.fail(rank, now, factor * max(ev.payload["step_critical"], 1e-12))
        self.policy.on_step_done(ev.payload["contribution"], now)
        if self.deferred[rank]:
            # Elastic membership events that landed mid-step replay now, in
            # arrival order: the contribution above still counted.
            ops, self.deferred[rank] = self.deferred[rank], []
            for op in ops:
                if op == "leave":
                    self.detach(rank, now)
                else:
                    self.activate(rank, now)

    def fail(self, rank: int, now: float, downtime: float) -> None:
        self.down[rank] = True
        self.loop.push(now, "fail", rank)  # observational marker in the history
        clock = self.trainers[rank].clock
        clock.advance(downtime, "downtime")
        self.ctx.add_extra(rank, "failures", 1.0)
        self.ctx.add_extra(rank, "downtime_s", downtime)
        store = self.checkpoint_store
        if store is not None and store.latest is not None:
            # Recover from the last consensus state: numerically a no-op
            # between sync rounds (the shared replica *is* consensus), but
            # the provenance and the costed restore transfer are real.
            setup = self.run.setup
            ckpt = store.restore(setup.model, setup.optimizer)
            restore_s = self.cluster.cost_model_for_machine(
                self.trainers[rank].machine
            ).time_migration(ckpt.nbytes())
            clock.advance(restore_s, "migration")
            self.ctx.add_extra(rank, "restores", 1.0)
            self.sync_extras[rank]["restored_from_step"] = float(ckpt.step)
            self.ctx.add_extra(rank, "restore_s", restore_s)
        self.loop.push(clock.time, "recover", rank)

    def on_fail(self, ev: Event) -> None:
        """``fail`` events only mark the outage in the recorded history."""

    def on_recover(self, ev: Event) -> None:
        rank = ev.rank
        self.down[rank] = False
        if self.pending_release[rank]:
            self.pending_release[rank] = False
            self.schedule_ready(rank)

    # ---------------- elastic membership handlers ----------------
    def on_join(self, ev: Event) -> None:
        rank = ev.rank
        if self.member_active[rank]:
            if self.deferred[rank]:
                # A leave is deferred past the in-flight step; the rejoin
                # queues behind it and replays at the same step-done.
                self.deferred[rank].append("join")
            return
        self.activate(rank, ev.time)

    def on_leave(self, ev: Event) -> None:
        rank = ev.rank
        if not self.member_active[rank]:
            return
        if self.inflight[rank]:
            self.deferred[rank].append("leave")
        else:
            self.detach(rank, ev.time)

    def on_rebalance(self, ev: Event) -> None:
        self.rebalance_machine(ev.payload["machine"])

    def detach(self, rank: int, now: float) -> None:
        self.member_active[rank] = False
        self.ctx.add_extra(rank, "leaves", 1.0)
        if not self.epoch_done[rank]:
            self.mark_exhausted(rank)
        else:
            self.active[rank] = False
        self.loop.push(now, "rebalance", rank, machine=self.trainers[rank].machine)

    def activate(self, rank: int, now: float) -> None:
        self.member_active[rank] = True
        self.trainers[rank].clock.advance_to(now, "idle")
        self.ctx.add_extra(rank, "joins", 1.0)
        # Scheduling picks the rank up at the next epoch start; the seed
        # re-split happens now so the next epoch's shuffle sees it.
        self.loop.push(now, "rebalance", rank, machine=self.trainers[rank].machine)

    def _machine_ranks(self, machine: int) -> range:
        return range(machine * self.tpm, (machine + 1) * self.tpm)

    def rebalance_machine(self, machine: int, charge: bool = True) -> None:
        """Re-split *machine*'s seed ownership across its active trainers.

        With survivors on the machine the seeds are re-split among them; with
        the machine fully drained its partition is adopted by the
        lowest-indexed machine that still has an active trainer.  ``charge``
        is off only for the initial deployment.
        """
        survivors = [r for r in self._machine_ranks(machine) if self.member_active[r]]
        if survivors:
            self._rebalance_survivors(machine, survivors, charge)
        else:
            self._rebalance_drained(machine, charge)

    def _rebalance_survivors(self, machine: int, survivors: List[int], charge: bool) -> None:
        """Bring the partition home and re-split its seeds across *survivors*.

        The partition is first brought home (if a drain had moved it
        elsewhere) and the training seeds re-split across the active local
        ranks; each receiving trainer pays for its newly assigned seed rows
        through the cost model, the first one also for the homecoming.
        """
        cluster = self.cluster
        home_bytes = cluster.migrate_partition(machine, machine, self.elastic.cache_policy)
        salt = self.rebalance_salts[machine] = self.rebalance_salts.get(machine, 0) + 1
        moved = cluster.rebalance_seeds(
            machine, [rank - machine * self.tpm for rank in survivors], salt=salt
        )
        cost = cluster.cost_model_for_machine(machine)
        feature_dim = cluster.dataset.feature_dim
        for i, rank in enumerate(survivors):
            self.ctx.add_extra(rank, "rebalances", 1.0)
            if not charge:
                continue
            nbytes = moved.get(rank, 0) * feature_dim * BYTES_PER_FEATURE
            if i == 0:
                nbytes += home_bytes
            if nbytes <= 0:
                continue
            migration_s = cost.time_migration(nbytes)
            self.trainers[rank].clock.advance(migration_s, "migration")
            self.ctx.add_extra(rank, "migration_bytes", float(nbytes))
            self.ctx.add_extra(rank, "migration_s", migration_s)

    def _rebalance_drained(self, machine: int, charge: bool) -> None:
        """Move a fully drained machine's partition onto a surviving host.

        The host's active trainers pay for the KVStore payload (plus the
        shared cache tier under the ``"warm"`` policy; ``"invalidate"`` drops
        it cold); the bytes are booked once, on the host's first trainer.
        """
        cluster = self.cluster
        host = next(
            (
                m
                for m in range(cluster.config.num_machines)
                if any(self.member_active[r] for r in self._machine_ranks(m))
            ),
            None,
        )
        if host is None:
            return  # every rank left; nothing can adopt the partition
        moved_bytes = cluster.migrate_partition(machine, host, self.elastic.cache_policy)
        if moved_bytes <= 0 or not charge:
            return
        host_actives = [r for r in self._machine_ranks(host) if self.member_active[r]]
        migration_s = cluster.cost_model_for_machine(host).time_migration(moved_bytes)
        for rank in host_actives:
            self.trainers[rank].clock.advance(migration_s, "migration")
            self.ctx.add_extra(rank, "migration_s", migration_s)
        self.ctx.add_extra(host_actives[0], "migration_bytes", float(moved_bytes))
