"""Look-ahead minibatch queue (Algorithm 1's ``Q``) and its timing model.

The paper's training loop keeps a queue of prepared minibatches: while the
current minibatch trains, worker threads prepare the next one(s) and push them
into ``Q``; the trainer pops a ready minibatch at the start of every step and
only blocks when the queue is empty.  The shipped configuration uses a single
look-ahead minibatch (``ThreadPoolExecutor`` with one worker), but the paper's
summary explicitly calls deeper look-ahead a path toward a "sustainable
perfect overlap" on GPU systems.

This module provides that generalization as an analyzable component:

* :class:`LookaheadQueue` — a simulated-time queue of prepared minibatches:
  preparation work is submitted with a duration, and pops report how long the
  trainer stalls waiting for the head-of-queue preparation to finish;
* :func:`steady_state_step_time` — closed-form steady-state step time with
  ``k`` preparation workers (:mod:`repro.perf.model`'s Eq. 5 over
  ``t_prepare / k`` when preparations are independent and pipelined);
* :func:`simulate_lookahead` — discrete simulation over per-step preparation /
  training durations, used to validate the closed form and to explore deeper
  look-ahead in benchmarks and tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.perf.model import prefetch_steady_step_time
from repro.utils.validation import check_duration, check_positive


@dataclass
class PreparedMinibatch:
    """A queue entry: an opaque payload plus the simulated time it becomes ready."""

    payload: object
    ready_at: float
    prepare_time: float


@dataclass
class LookaheadStats:
    """Aggregate queue behaviour over a run."""

    pops: int = 0
    total_stall: float = 0.0
    max_queue_depth: int = 0

    @property
    def mean_stall(self) -> float:
        return self.total_stall / self.pops if self.pops else 0.0


class LookaheadQueue:
    """Simulated-time queue of prepared minibatches.

    Parameters
    ----------
    capacity:
        Maximum number of minibatches that may be prepared ahead (the paper's
        look-ahead count).  Submissions beyond the capacity are rejected until
        a pop frees a slot — this is the back-pressure that bounds memory.
    workers:
        Number of concurrent preparation workers.  With one worker,
        preparations are serialized (the shipped configuration); with more,
        preparation of consecutive minibatches overlaps.
    """

    def __init__(self, capacity: int = 1, workers: int = 1):
        check_positive(capacity, "capacity")
        check_positive(workers, "workers")
        self.capacity = int(capacity)
        self.workers = int(workers)
        self._queue: Deque[PreparedMinibatch] = deque()
        self._worker_free_at: List[float] = [0.0] * self.workers
        self.stats = LookaheadStats()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.capacity

    def submit(self, payload: object, prepare_time: float, now: float) -> PreparedMinibatch:
        """Schedule preparation of *payload* starting no earlier than *now*.

        The preparation runs on the earliest-free worker; the entry enters the
        queue immediately with its future ``ready_at`` timestamp.
        """
        check_duration(prepare_time, "prepare_time")
        if self.is_full:
            raise RuntimeError(
                f"look-ahead queue is full (capacity={self.capacity}); pop before submitting"
            )
        worker = min(range(self.workers), key=lambda i: self._worker_free_at[i])
        start = max(now, self._worker_free_at[worker])
        ready_at = start + prepare_time
        self._worker_free_at[worker] = ready_at
        entry = PreparedMinibatch(payload=payload, ready_at=ready_at, prepare_time=prepare_time)
        self._queue.append(entry)
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
        return entry

    def pop(self, now: float) -> Tuple[object, float]:
        """Pop the oldest prepared minibatch.

        Returns ``(payload, stall)`` where ``stall`` is how long the trainer
        must wait past *now* for the entry to become ready (0 when the
        preparation already finished — the overlap succeeded).
        """
        if not self._queue:
            raise RuntimeError("look-ahead queue is empty")
        entry = self._queue.popleft()
        stall = max(0.0, entry.ready_at - now)
        self.stats.pops += 1
        self.stats.total_stall += stall
        return entry.payload, stall


# --------------------------------------------------------------------------- #
# Analytical and simulated steady-state behaviour
# --------------------------------------------------------------------------- #
def steady_state_step_time(t_prepare: float, t_ddp: float, lookahead: int = 1) -> float:
    """Steady-state per-step time with *lookahead* independent preparation workers.

    With one worker this is exactly Eq. 5, ``max(t_prepare, t_DDP)``.  With
    ``k`` workers, ``k`` preparations proceed concurrently while one minibatch
    trains, so the pipeline's bottleneck is ``max(t_prepare / k, t_DDP)``.
    """
    check_positive(lookahead, "lookahead")
    check_duration(t_prepare, "t_prepare")
    check_duration(t_ddp, "t_ddp")
    return prefetch_steady_step_time(t_prepare / lookahead, t_ddp)


def simulate_lookahead(
    prepare_times: Sequence[float],
    train_times: Sequence[float],
    lookahead: int = 1,
    workers: Optional[int] = None,
) -> Tuple[float, LookaheadStats]:
    """Discrete simulation of the look-ahead pipeline.

    ``prepare_times[i]`` / ``train_times[i]`` are the preparation and DDP
    training durations of minibatch *i*.  Returns the total simulated time and
    the queue statistics.  The first minibatch cannot be overlapped (Eq. 4);
    afterwards the queue keeps up to *lookahead* minibatches in flight.
    """
    if len(prepare_times) != len(train_times):
        raise ValueError("prepare_times and train_times must align")
    for value in (*prepare_times, *train_times):
        check_duration(value, "prepare and train times")
    if len(prepare_times) == 0:
        return 0.0, LookaheadStats()
    queue = LookaheadQueue(capacity=lookahead, workers=lookahead if workers is None else workers)

    now = 0.0
    # Minibatch 0 must be prepared synchronously (nothing to overlap with).
    now += prepare_times[0]
    next_to_submit = 1
    # Fill the look-ahead window before training starts on minibatch 0.
    while next_to_submit < len(prepare_times) and not queue.is_full:
        queue.submit(next_to_submit, prepare_times[next_to_submit], now)
        next_to_submit += 1

    for step in range(len(train_times)):
        # Train the current minibatch.
        now += train_times[step]
        # The step after this one must be ready; pop it (possibly stalling).
        if step + 1 < len(train_times):
            payload, stall = queue.pop(now)
            now += stall
            # Refill the window with the next unprepared minibatch.
            if next_to_submit < len(prepare_times):
                queue.submit(next_to_submit, prepare_times[next_to_submit], now)
                next_to_submit += 1
    return now, queue.stats

