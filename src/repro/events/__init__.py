"""Discrete-event simulation backend for the cluster engines.

This package is the asynchrony layer the lockstep engine cannot express:

* :mod:`repro.events.loop` — :class:`EventLoop`, a deterministic priority
  queue of timestamped events (ties broken by ``(timestamp, rank, seq)``);
* :mod:`repro.events.sync` — the :data:`SYNC_POLICIES` registry of gradient
  synchronization policies (``allreduce-barrier``, ``bounded-staleness``,
  ``local-sgd``) consumed by
  :class:`~repro.training.async_engine.AsyncClusterEngine`;
* :mod:`repro.events.schedule` — seeded, bit-replayable failure and
  congestion schedules (:class:`FailureSpec`, :class:`CongestionSpec`) behind
  the ``trainer-flaky`` and ``congested-link`` scenarios.
"""

from repro.events.loop import Event, EventLoop
from repro.events.schedule import CongestionSpec, FailureSchedule, FailureSpec
from repro.events.sync import (
    SYNC_POLICIES,
    StepContribution,
    SyncContext,
    SyncPolicy,
)

__all__ = [
    "Event",
    "EventLoop",
    "CongestionSpec",
    "FailureSchedule",
    "FailureSpec",
    "SYNC_POLICIES",
    "StepContribution",
    "SyncContext",
    "SyncPolicy",
]
