"""Pluggable gradient-synchronization policies for the event-driven engine.

The lockstep :class:`~repro.training.cluster_engine.ClusterEngine` hard-codes
one synchronization scheme: every trainer computes one minibatch, then all of
them meet at an allreduce barrier.  The event-driven
:class:`~repro.training.async_engine.AsyncClusterEngine` instead delegates
*when gradients meet the model* to a :class:`SyncPolicy` selected by name
from :data:`SYNC_POLICIES`:

* ``allreduce-barrier`` — bulk-synchronous rounds.  Reproduces the lockstep
  engine **bit-identically** (losses, clocks, barrier waits, RPC counters) on
  the same workload; the float operations happen in exactly the same order.
* ``bounded-staleness`` — stale-synchronous parallel (SSP): a trainer may run
  up to ``staleness`` rounds ahead of the slowest incomplete round.  Round
  gradients are averaged and applied when the round's last contributor
  finishes; trainers already ahead computed on staler parameters.  The
  gradient push/pull is modelled as asynchronous communication hidden behind
  the next step's compute (recorded per trainer as ``hidden_sync_time_s``),
  which is what takes the collective off the critical path.
* ``local-sgd`` — each trainer owns a full parameter replica and applies its
  *own* gradients locally; every ``sync_period`` steps all trainers meet at a
  barrier where replicas are averaged (one allreduce charged), then diverge
  again.

Policies are engine components, not arm's-length plugins: they are handed a
:class:`SyncContext` giving them the trainers' clocks, the shared model and
engine callbacks (``schedule_ready``, ``record_round``, ``record_step``,
``start_step``, ``allreduce_barrier``, ``apply_update``).  The contract is
documented on :class:`SyncPolicy`; new policies register with
``@SYNC_POLICIES.register("name")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.distributed.ddp import allreduce_gradients
from repro.utils.registry import Registry

SYNC_POLICIES = Registry("sync policy")


@dataclass
class StepContribution:
    """One trainer's finished minibatch, as handed to the sync policy."""

    rank: int
    loss: float
    n_correct: int
    n_seen: int
    grads: Optional[Dict[str, np.ndarray]] = None


@dataclass
class SyncContext:
    """Engine state and callbacks a :class:`SyncPolicy` operates on.

    ``barrier_waits`` accumulates each trainer's simulated seconds spent
    waiting on synchronization (barrier or staleness stall) — the same ledger
    the lockstep engine keeps.  ``sync_extras`` is a per-rank scratch dict the
    policy can drop counters into; non-empty dicts surface as
    ``TrainerRunStats.sync_stats``.
    """

    trainers: List[object]
    model: object
    cost_model: object
    num_params: int
    accumulators: List[object]
    barrier_waits: List[float]
    sync_extras: List[Dict[str, float]]
    train_config: object
    # Engine callbacks:
    schedule_ready: Callable[[int], None]
    record_round: Callable[[List[StepContribution]], None]
    record_step: Callable[[StepContribution], None]
    # Host-side immediate execution of one trainer's next step (used by
    # policies that must control the execution *order* of a round, e.g. the
    # barrier policy's rank-ordered rounds).  Only meaningful from within a
    # can_start/on_trainer_exhausted callback.
    start_step: Callable[[int], None]
    # The bulk-synchronous barrier charge, shared with the lockstep engine
    # (ClusterRun.allreduce_barrier): allreduce time to the given
    # participants, then every trainer held at the global max.
    allreduce_barrier: Callable[[List[int]], None]
    # Applies an averaged gradient to ctx.model; the engine also captures the
    # consensus checkpoint here when failures or elasticity are in play.
    apply_update: Callable[[Dict[str, np.ndarray]], bool]

    @property
    def world_size(self) -> int:
        return len(self.trainers)

    def add_extra(self, rank: int, key: str, value: float) -> None:
        extras = self.sync_extras[rank]
        extras[key] = extras.get(key, 0.0) + value

    def stall_until(self, rank: int, timestamp: float) -> None:
        """Advance *rank*'s clock to *timestamp*, booking the gap as sync wait."""
        clock = self.trainers[rank].clock
        wait = timestamp - clock.time
        if wait > 0:
            self.barrier_waits[rank] += wait
            clock.advance(wait, "stall")


class SyncPolicy:
    """Base class spelling out the engine/policy contract.

    Lifecycle per run: :meth:`bind` once, then per epoch :meth:`on_epoch_start`
    followed by event callbacks, then :meth:`on_run_end`.  The engine calls:

    * :meth:`can_start` when a trainer's ``step-ready`` event pops — return
      ``False`` to hold the trainer (the policy must remember it and later
      :meth:`SyncContext.stall_until` + ``schedule_ready`` it);
    * :meth:`before_step` / :meth:`process_step` around the host-side compute
      (replica-owning policies load/update their replica here);
    * :meth:`on_step_done` when the step's completion event pops;
    * :meth:`on_trainer_exhausted` when a trainer's epoch iterator ends (or
      the per-epoch step cap refuses to schedule it again, or an elastic
      leave detaches it mid-epoch).

    ``active_ranks`` at :meth:`on_epoch_start` is the epoch's membership
    roster — under elastic schedules it can be any subset of the world, and
    every policy must complete the epoch with contributions from exactly
    that roster (joined ranks appear in the next epoch's roster).

    Releasing a trainer is always the policy's job: every contribution must
    eventually be followed by a ``schedule_ready`` (or exhaustion), otherwise
    the event loop drains with trainers stranded and the engine raises.
    """

    name = "sync-policy"
    owns_replicas = False

    def bind(self, ctx: SyncContext) -> None:
        self.ctx = ctx

    def on_epoch_start(self, active_ranks: List[int]) -> None:  # pragma: no cover
        raise NotImplementedError

    def can_start(self, rank: int) -> bool:
        return True

    def coalescing_round(self, rank: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def before_step(self, rank: int) -> None:
        """Hook before the trainer's forward pass (replica policies load here)."""

    def process_step(self, rank: int, grads: Dict[str, np.ndarray]) -> Optional[dict]:
        """Hook right after gradients are computed; returns the grads to carry
        in the contribution (``None`` when the policy consumed them locally)."""
        return grads

    def on_step_done(self, contribution: StepContribution, now: float) -> None:
        raise NotImplementedError  # pragma: no cover

    def on_trainer_exhausted(self, rank: int, now: float) -> None:
        raise NotImplementedError  # pragma: no cover

    def on_epoch_end(self) -> None:
        """Hook after an epoch's event queue drains (round bookkeeping rollover)."""

    def on_run_end(self) -> None:
        """Final synchronization hook (replica policies average here)."""

    def describe(self) -> str:
        return self.name


# --------------------------------------------------------------------------- #
# allreduce-barrier: bulk-synchronous rounds, bit-identical to the lockstep
# engine's loop (same float operations in the same order).
# --------------------------------------------------------------------------- #
@SYNC_POLICIES.register("allreduce-barrier", aliases=("barrier", "bsp"))
class AllReduceBarrierPolicy(SyncPolicy):
    """Every round ends at a global allreduce barrier (the paper's DDP model).

    A round *begins* in rank order too: ready trainers are buffered until the
    whole round's cohort has arrived, then executed via
    :attr:`SyncContext.start_step` in ascending rank.  Event timestamps only
    order execution — every compute charge still lands on the owning
    trainer's own clock — so this changes no simulated time, but it pins the
    host-side execution order to the lockstep engine's, which is what keeps
    shared-state channels (the batched RPC coalescing window) bit-identical
    between the two engines, not just the default per-call channel.
    """

    name = "allreduce-barrier"

    def __init__(self) -> None:
        self._round = 0  # monotone across epochs, mirrors lockstep global_step
        self._expected: set = set()
        self._ready: set = set()
        self._contrib: Dict[int, StepContribution] = {}

    def on_epoch_start(self, active_ranks: List[int]) -> None:
        assert not self._contrib, "round in flight across an epoch boundary"
        self._expected = set(active_ranks)
        self._ready = set()

    def coalescing_round(self, rank: int) -> int:
        return self._round

    def can_start(self, rank: int) -> bool:
        # Buffer until the round's whole cohort is ready, then run it in rank
        # order ourselves; the engine must never start a step directly.
        self._ready.add(rank)
        self._maybe_release()
        return False

    def on_step_done(self, contribution: StepContribution, now: float) -> None:
        self._contrib[contribution.rank] = contribution
        self._maybe_complete()

    def on_trainer_exhausted(self, rank: int, now: float) -> None:
        self._expected.discard(rank)
        self._ready.discard(rank)
        self._maybe_release()
        self._maybe_complete()

    def _maybe_release(self) -> None:
        if not self._expected or not self._ready.issuperset(self._expected):
            return
        ranks = sorted(self._ready)
        self._ready = set()
        for rank in ranks:
            self.ctx.start_step(rank)

    # ------------------------------------------------------------------ #
    def _maybe_complete(self) -> None:
        if not self._contrib or not self._expected.issubset(self._contrib):
            return
        ctx = self.ctx
        ranks = sorted(self._contrib)
        contributions = [self._contrib[r] for r in ranks]
        ctx.record_round(contributions)
        # Same three calls in the same order as the lockstep round, which is
        # what keeps the two engines bit-identical on the golden workload.
        averaged = allreduce_gradients([c.grads for c in contributions])
        ctx.allreduce_barrier(ranks)
        ctx.apply_update(averaged)
        self._round += 1
        self._contrib = {}
        for r in sorted(self._expected):
            ctx.schedule_ready(r)


# --------------------------------------------------------------------------- #
# bounded-staleness: stale-synchronous parallel rounds
# --------------------------------------------------------------------------- #
@SYNC_POLICIES.register("bounded-staleness", aliases=("ssp", "stale"))
class BoundedStalenessPolicy(SyncPolicy):
    """Trainers run up to ``staleness`` rounds ahead of the oldest open round.

    A round's averaged gradient is applied the moment its last contributor
    finishes; faster trainers that already started later rounds computed on
    stale parameters — the SSP trade.  The gradient exchange itself is an
    asynchronous push/pull overlapped with the next step's compute, so no
    collective lands on any trainer's critical path; the would-be cost is
    recorded per trainer as ``hidden_sync_time_s``.
    """

    name = "bounded-staleness"

    def __init__(self, staleness: int = 1) -> None:
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self.staleness = int(staleness)
        self._round_offset = 0  # lifetime rounds completed before this epoch

    def on_epoch_start(self, active_ranks: List[int]) -> None:
        self._rr: Dict[int, int] = {r: 0 for r in active_ranks}
        self._exhausted_at: Dict[int, int] = {}
        self._received: Dict[int, Dict[int, StepContribution]] = {}
        self._oldest = 0
        self._waiting: set = set()

    def coalescing_round(self, rank: int) -> int:
        return self._round_offset + self._rr.get(rank, 0)

    def can_start(self, rank: int) -> bool:
        if self._rr[rank] - self._oldest > self.staleness:
            self._waiting.add(rank)
            return False
        return True

    def on_step_done(self, contribution: StepContribution, now: float) -> None:
        rank = contribution.rank
        r = self._rr[rank]
        self._received.setdefault(r, {})[rank] = contribution
        self._rr[rank] = r + 1
        self._advance_completion(now)
        # The trainer itself proceeds immediately; the staleness gate is
        # re-evaluated when its next step-ready pops.
        self.ctx.schedule_ready(rank)

    def on_trainer_exhausted(self, rank: int, now: float) -> None:
        self._exhausted_at[rank] = self._rr.get(rank, 0)
        self._waiting.discard(rank)
        self._advance_completion(now)

    # ------------------------------------------------------------------ #
    def _frontier(self) -> int:
        return max(self._rr.values(), default=0)

    def _round_complete(self, r: int) -> bool:
        for rank, rr in self._rr.items():
            if rr > r:
                continue
            if self._exhausted_at.get(rank, np.inf) <= r:
                continue
            return False
        return True

    def _advance_completion(self, now: float) -> None:
        ctx = self.ctx
        completed_any = False
        while self._oldest < self._frontier() and self._round_complete(self._oldest):
            contrib = self._received.pop(self._oldest, {})
            ranks = sorted(contrib)
            contributions = [contrib[r] for r in ranks]
            if contributions:
                ctx.record_round(contributions)
                averaged = allreduce_gradients([c.grads for c in contributions])
                ctx.apply_update(averaged)
                # Async push/pull: charged off the critical path.
                hidden = ctx.cost_model.time_allreduce(ctx.num_params, ctx.world_size)
                for r in ranks:
                    ctx.add_extra(r, "hidden_sync_time_s", hidden)
            self._oldest += 1
            completed_any = True
        if completed_any:
            for rank in sorted(self._waiting):
                if self._rr[rank] - self._oldest <= self.staleness:
                    self._waiting.discard(rank)
                    ctx.add_extra(rank, "staleness_wait_s",
                                  max(0.0, now - ctx.trainers[rank].clock.time))
                    ctx.stall_until(rank, now)
                    ctx.schedule_ready(rank)

    def on_epoch_end(self) -> None:
        self._round_offset += self._frontier()

    def describe(self) -> str:
        return f"{self.name}(K={self.staleness})"


# --------------------------------------------------------------------------- #
# local-sgd: per-trainer replicas, parameter averaging every H steps
# --------------------------------------------------------------------------- #
@SYNC_POLICIES.register("local-sgd", aliases=("localsgd", "periodic-averaging"))
class LocalSGDPolicy(SyncPolicy):
    """Each trainer trains its own replica; replicas average every ``sync_period`` steps.

    Between averaging points trainers never wait for each other (no gradient
    exchange at all); at a sync point every still-active trainer stops, one
    allreduce is charged, replicas (including those of already-exhausted
    trainers) are averaged, and everyone restarts from the consensus
    parameters.  :meth:`on_run_end` performs a final average so the engine's
    ``final_model`` is the consensus model.
    """

    name = "local-sgd"
    owns_replicas = True

    def __init__(self, sync_period: int = 4) -> None:
        if sync_period < 1:
            raise ValueError(f"sync_period must be >= 1, got {sync_period}")
        self.sync_period = int(sync_period)
        self._round_offset = 0
        self._replicas: Optional[Dict[int, Dict[str, np.ndarray]]] = None
        self._optimizers: Optional[Dict[int, object]] = None
        self._syncs = 0

    def bind(self, ctx: SyncContext) -> None:
        super().bind(ctx)
        from repro.nn import build_optimizer

        config = ctx.train_config
        self._replicas = {
            r: ctx.model.state_dict() for r in range(ctx.world_size)
        }
        self._optimizers = {
            r: build_optimizer(config.optimizer, lr=config.learning_rate,
                               weight_decay=config.weight_decay)
            for r in range(ctx.world_size)
        }

    def on_epoch_start(self, active_ranks: List[int]) -> None:
        self._rr = {r: 0 for r in active_ranks}
        self._exhausted: set = set()
        self._at_barrier: set = set()

    def coalescing_round(self, rank: int) -> int:
        return self._round_offset + self._rr.get(rank, 0)

    def before_step(self, rank: int) -> None:
        self.ctx.model.load_state_dict(self._replicas[rank])

    def process_step(self, rank: int, grads: Dict[str, np.ndarray]) -> None:
        # Local update: the trainer's own gradient applied to its own replica
        # (through its own optimizer state), no communication involved.
        self._optimizers[rank].step(self.ctx.model.parameters(), grads)
        self._replicas[rank] = self.ctx.model.state_dict()
        return None

    def on_step_done(self, contribution: StepContribution, now: float) -> None:
        ctx = self.ctx
        rank = contribution.rank
        ctx.record_step(contribution)
        self._rr[rank] += 1
        if self._rr[rank] % self.sync_period == 0:
            self._at_barrier.add(rank)
            self._maybe_sync()
        else:
            ctx.schedule_ready(rank)

    def on_trainer_exhausted(self, rank: int, now: float) -> None:
        self._exhausted.add(rank)
        self._at_barrier.discard(rank)
        self._maybe_sync()

    # ------------------------------------------------------------------ #
    def _active_ranks(self) -> List[int]:
        return [r for r in self._rr if r not in self._exhausted]

    def _maybe_sync(self) -> None:
        active = self._active_ranks()
        if not active or set(active) != self._at_barrier:
            return
        ctx = self.ctx
        participants = sorted(self._at_barrier)
        allreduce_t = ctx.cost_model.time_allreduce(ctx.num_params, ctx.world_size)
        for r in participants:
            ctx.trainers[r].clock.advance(allreduce_t, "allreduce")
            ctx.accumulators[r].totals["allreduce"] += allreduce_t
        latest = max(ctx.trainers[r].clock.time for r in participants)
        for r in participants:
            ctx.stall_until(r, latest)
        self._average_replicas()
        self._syncs += 1
        for r in participants:
            ctx.add_extra(r, "model_averages", 1.0)
        self._at_barrier = set()
        for r in participants:
            ctx.schedule_ready(r)

    def _average_replicas(self) -> None:
        """Average every replica (exhausted trainers included) in rank order."""
        ranks = sorted(self._replicas)
        averaged = {
            name: np.mean([self._replicas[r][name] for r in ranks], axis=0)
            for name in self._replicas[ranks[0]]
        }
        for r in ranks:
            self._replicas[r] = {k: v.copy() for k, v in averaged.items()}
        self.ctx.model.load_state_dict(averaged)

    def on_epoch_end(self) -> None:
        self._round_offset += max(self._rr.values(), default=0)

    def on_run_end(self) -> None:
        # The final consensus is a full barrier: everyone pays, everyone waits.
        self.ctx.allreduce_barrier(list(range(self.ctx.world_size)))
        self._average_replicas()

    def describe(self) -> str:
        return f"{self.name}(H={self.sync_period})"
