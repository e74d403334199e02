"""The discrete-event core: timestamped events popped in deterministic order.

:class:`EventLoop` is a priority queue of :class:`Event`\\ s ordered by
``(timestamp, rank, seq)``:

* **timestamp** — simulated seconds, the primary key;
* **rank** — the trainer the event belongs to (engine-level events use
  ``rank=-1`` so they sort before any trainer's event at the same instant);
* **seq** — monotone insertion counter, the final tie-break, so two events
  pushed for the same trainer at the same timestamp pop in push order.

That total order is what makes the async engine *deterministic*: two runs
with the same seed and schedule process the exact same event sequence, which
``tests/test_async_engine.py`` pins by comparing recorded histories.  With
``record=True`` every popped event is appended to :attr:`EventLoop.history`
as a ``(kind, timestamp, rank, seq)`` tuple for exactly that comparison.

Events are cancelled lazily (:meth:`EventLoop.cancel` marks them and
:meth:`EventLoop.pop` discards marked entries), the standard trick for
mutable schedules over :mod:`heapq`.

Event *kinds* are engine-defined strings.  The async training engine uses
``step-ready``/``step-done`` for scheduling, ``fail``/``recover`` for the
transient-failure machinery, and ``join``/``leave``/``rebalance`` for the
elastic-membership timeline (a materialized
:class:`~repro.events.schedule.ElasticSchedule` is pushed up front and
interleaves with step events by simulated time).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Event:
    """One scheduled occurrence in the simulated cluster."""

    time: float
    rank: int
    seq: int
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)
    cancelled: bool = False

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.rank, self.seq)


class EventLoop:
    """Deterministic discrete-event queue (ties broken by ``(time, rank, seq)``)."""

    def __init__(self, record: bool = False):
        self._heap: List[Tuple[Tuple[float, int, int], Event]] = []
        self._seq = 0
        self._live = 0
        self.record = record
        #: ``(kind, time, rank, seq)`` of every popped event, in pop order.
        self.history: List[Tuple[str, float, int, int]] = []

    # ------------------------------------------------------------------ #
    def push(self, time: float, kind: str, rank: int = -1, **payload: object) -> Event:
        """Schedule *kind* at simulated *time*; returns the (cancellable) event."""
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time}")
        event = Event(time=float(time), rank=int(rank), seq=self._seq, kind=kind,
                      payload=payload)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (event.sort_key, event))
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Mark *event* cancelled; it will be silently discarded on pop."""
        if event is not None and not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """The next live event in ``(time, rank, seq)`` order, or ``None``."""
        while self._heap:
            _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            if self.record:
                self.history.append((event.kind, event.time, event.rank, event.seq))
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without popping it."""
        while self._heap and self._heap[0][1].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][1].time if self._heap else None

    @property
    def empty(self) -> bool:
        return self._live == 0

    def __len__(self) -> int:
        return self._live
