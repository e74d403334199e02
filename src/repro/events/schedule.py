"""Deterministic stress schedules for the event-driven engine.

Every stress input — trainer failures, RPC congestion, elastic membership —
is expressed as a frozen *spec* dataclass implementing the
:class:`ScheduleSpec` protocol, so the engine consumes them all through one
seam:

* ``describe()`` renders the short human label used by the scenario catalog
  (``repro scenarios --markdown``) and ``ClusterScenario.execution``;
* ``materialize(world_size, seed)`` expands the spec into the runtime object
  the engine actually consults — a per-rank plan, a time profile, or an event
  schedule.  Materialization is a pure function of ``(spec, world_size,
  seed)``, so the stress behaviour of a run replays **bit-identically**: the
  same seed produces the same fail/recover/join/leave sequence and the same
  latency multipliers at the same simulated instants (pinned by
  ``tests/test_async_engine.py`` and ``tests/test_elastic.py``).

The shipped specs (also listed in :data:`SCHEDULE_SPECS`):

* :class:`FailureSpec` / :class:`FailureSchedule` — transient trainer
  outages.  Failures are keyed by *lifetime step index* rather than absolute
  simulated time, so the same spec stresses a 2-epoch smoke run and a
  100-epoch workload alike; the downtime is expressed as a multiple of the
  failing step's critical-path duration, so it scales with the workload
  automatically.  A failed trainer finishes its in-flight step (and its
  gradient still counts), then goes dark for the downtime — peers feel it as
  barrier wait or a staleness stall, depending on the sync policy.
* :class:`CongestionSpec` — a periodic square-wave congestion profile for the
  RPC fabric: during a burst the per-request latency is multiplied and the
  effective bandwidth divided.  Fed through
  :class:`~repro.distributed.cost_model.CongestedCostModel`, which reads the
  trainer's simulated clock at fetch time.
* :class:`ElasticSpec` / :class:`ElasticSchedule` — dynamic cluster
  membership.  Ranks can start held out (``initially_inactive``), join at a
  simulated instant, or leave; each membership change triggers a rebalance
  event in the async engine that re-splits seed ownership on the affected
  machine and migrates partition rows through the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive


class ScheduleSpec:
    """Protocol base for seeded stress-schedule specs.

    Subclasses are frozen dataclasses with eager ``__post_init__`` validation;
    the base adds the uniform seam the engine and the catalog consume:
    ``kind`` (registry key), ``describe()``, and
    ``materialize(world_size, seed)``.
    """

    kind = "schedule"

    def describe(self) -> str:
        """Short human label for catalogs and ``ClusterScenario.execution``."""
        raise NotImplementedError

    def materialize(self, world_size: int, seed: int):
        """Expand into the runtime object the engine consults during a run."""
        raise NotImplementedError


#: Lifetime steps of failure plan drawn per trainer.
FAILURE_HORIZON_STEPS = 512


@dataclass(frozen=True)
class FailureSpec(ScheduleSpec):
    """Parameters of the seeded transient-failure process (per trainer).

    ``rate`` is the per-step failure probability; ``min_downtime_steps`` /
    ``max_downtime_steps`` bound the outage length in multiples of the failing
    step's critical-path time.  The schedule covers each trainer's first
    ``FAILURE_HORIZON_STEPS`` lifetime steps; later steps never fail.
    """

    kind = "failures"

    rate: float = 0.05
    min_downtime_steps: float = 3.0
    max_downtime_steps: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"failure rate must be in [0, 1], got {self.rate!r}")
        check_positive(self.min_downtime_steps, "min_downtime_steps")
        check_positive(self.max_downtime_steps, "max_downtime_steps")
        if self.max_downtime_steps < self.min_downtime_steps:
            raise ValueError("max_downtime_steps must be >= min_downtime_steps")

    def describe(self) -> str:
        return f"failures(rate={self.rate:g})"

    def materialize(self, world_size: int, seed: int) -> "FailureSchedule":
        return FailureSchedule(self, world_size, seed)


class FailureSchedule:
    """The materialized per-rank failure plan: ``{step_index: downtime_factor}``.

    Built once per run from ``(spec, world_size, seed)``; the draw uses one
    child RNG per rank (salted with the rank), so the schedule of rank *r*
    does not depend on the world size seen by other ranks.
    """

    def __init__(self, spec: FailureSpec, world_size: int, seed: int):
        self.spec = spec
        self.world_size = int(world_size)
        self.seed = int(seed)
        self._plan: Dict[int, Dict[int, float]] = {}
        for rank in range(self.world_size):
            rng = np.random.default_rng(derive_seed(seed, 761, rank))
            fails = rng.random(FAILURE_HORIZON_STEPS) < spec.rate
            factors = rng.uniform(
                spec.min_downtime_steps, spec.max_downtime_steps, FAILURE_HORIZON_STEPS
            )
            self._plan[rank] = {
                int(step): float(factors[step]) for step in np.nonzero(fails)[0]
            }

    def downtime_factor(self, rank: int, step: int) -> Optional[float]:
        """Downtime multiple if *rank* fails after lifetime *step*, else ``None``."""
        return self._plan.get(rank, {}).get(step)


@dataclass(frozen=True)
class CongestionSpec(ScheduleSpec):
    """A periodic square-wave congestion profile on the RPC fabric.

    For simulated time *t*, the link is congested when
    ``(t mod period_s) < duty * period_s``; while congested,
    RPC latency is multiplied by ``latency_multiplier`` and bandwidth divided
    by ``bandwidth_divisor``.  Defaults are sized for smoke-scale runs (step
    times in the 0.1–1 ms range), giving several bursts per epoch.
    """

    kind = "congestion"

    period_s: float = 2.0e-3
    duty: float = 0.5
    latency_multiplier: float = 10.0
    bandwidth_divisor: float = 4.0

    def __post_init__(self) -> None:
        check_positive(self.period_s, "period_s")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {self.duty!r}")
        if self.latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")
        if self.bandwidth_divisor < 1.0:
            raise ValueError("bandwidth_divisor must be >= 1")

    def congested_at(self, time_s: float) -> bool:
        return (time_s % self.period_s) < self.duty * self.period_s

    def factors_at(self, time_s: float) -> Tuple[float, float]:
        """``(latency_multiplier, bandwidth_divisor)`` in effect at *time_s*."""
        if self.congested_at(time_s):
            return (self.latency_multiplier, self.bandwidth_divisor)
        return (1.0, 1.0)

    def describe(self) -> str:
        return f"congestion(x{self.latency_multiplier:g}, {self.duty:.0%} duty)"

    def materialize(self, world_size: int, seed: int) -> "CongestionSpec":
        """The spec is its own runtime profile (pure function of time)."""
        return self


@dataclass(frozen=True)
class ElasticSpec(ScheduleSpec):
    """A seeded join/leave schedule for elastic cluster membership.

    ``initially_inactive`` ranks exist in the cluster topology but hold no
    seeds and run no steps until they join.  ``joins`` / ``leaves`` are
    ``(rank, time_s)`` pairs in simulated seconds.

    Membership changes take effect on trainer scheduling at the next epoch
    boundary for joins (the joining rank participates from the following
    ``on_epoch_start``), and immediately for leaves (the leaving rank is
    drained after its in-flight step, if any).
    """

    kind = "elastic"

    initially_inactive: Tuple[int, ...] = ()
    joins: Tuple[Tuple[int, float], ...] = ()
    leaves: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        held = tuple(int(r) for r in self.initially_inactive)
        joins = tuple((int(r), float(t)) for r, t in self.joins)
        leaves = tuple((int(r), float(t)) for r, t in self.leaves)
        object.__setattr__(self, "initially_inactive", held)
        object.__setattr__(self, "joins", joins)
        object.__setattr__(self, "leaves", leaves)
        if len(set(held)) != len(held):
            raise ValueError(f"duplicate ranks in initially_inactive: {held!r}")
        for rank in held:
            if rank < 0:
                raise ValueError(f"initially_inactive ranks must be >= 0, got {rank}")
        for label, events in (("joins", joins), ("leaves", leaves)):
            for rank, time_s in events:
                if rank < 0:
                    raise ValueError(f"{label} ranks must be >= 0, got {rank}")
                if time_s < 0.0:
                    raise ValueError(f"{label} times must be >= 0, got {time_s!r}")

    @property
    def is_empty(self) -> bool:
        """True when the spec prescribes no membership change at all."""
        return not (self.initially_inactive or self.joins or self.leaves)

    def describe(self) -> str:
        return (
            f"elastic(hold {len(self.initially_inactive)}, "
            f"+{len(self.joins)}, -{len(self.leaves)})"
        )

    def materialize(self, world_size: int, seed: int) -> "ElasticSchedule":
        return ElasticSchedule(self, world_size)


class ElasticSchedule:
    """The materialized membership timeline: sorted and validated.

    ``events`` is a list of ``(time_s, kind, rank)`` with kind ``"join"`` or
    ``"leave"``, sorted by ``(time_s, rank, kind)``; ``initially_inactive``
    is the frozen set of ranks held out at construction.  The timeline is a
    pure function of the spec and the world size.
    """

    def __init__(self, spec: ElasticSpec, world_size: int):
        self.spec = spec
        self.world_size = int(world_size)
        for rank in spec.initially_inactive:
            if rank >= self.world_size:
                raise ValueError(
                    f"initially_inactive rank {rank} out of range for "
                    f"world size {self.world_size}"
                )
        if len(set(spec.initially_inactive)) >= self.world_size:
            raise ValueError("at least one rank must start active")
        events: List[Tuple[float, str, int]] = []
        for label, pairs in (("join", spec.joins), ("leave", spec.leaves)):
            for rank, time_s in pairs:
                if rank >= self.world_size:
                    raise ValueError(
                        f"{label} rank {rank} out of range for "
                        f"world size {self.world_size}"
                    )
                events.append((time_s, label, rank))
        events.sort(key=lambda ev: (ev[0], ev[2], ev[1]))
        self.initially_inactive = frozenset(spec.initially_inactive)
        self.events = events
        self._check_alternation()

    def _check_alternation(self) -> None:
        """Joins must hit inactive ranks and leaves active ones, in time order."""
        active = {
            rank
            for rank in range(self.world_size)
            if rank not in self.initially_inactive
        }
        for time_s, kind, rank in self.events:
            if kind == "join":
                if rank in active:
                    raise ValueError(
                        f"join at t={time_s:g} targets rank {rank}, "
                        "which is already active"
                    )
                active.add(rank)
            else:
                if rank not in active:
                    raise ValueError(
                        f"leave at t={time_s:g} targets rank {rank}, "
                        "which is already inactive"
                    )
                active.discard(rank)


#: Registry of schedule-spec kinds, in catalog display order.
SCHEDULE_SPECS: Dict[str, type] = {
    FailureSpec.kind: FailureSpec,
    CongestionSpec.kind: CongestionSpec,
    ElasticSpec.kind: ElasticSpec,
}
