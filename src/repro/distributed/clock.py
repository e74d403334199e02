"""Simulated per-trainer clocks and component time accounting.

Every trainer in the simulated cluster owns a :class:`SimClock`.  Components
of a training step advance the clock and tag the time with a component label
(``sampling``, ``rpc``, ``copy``, ``ddp``, ``lookup``, ``scoring``,
``eviction``, ``allreduce``, ``stall``, ``downtime``) so that the Fig. 9
style breakdowns can be regenerated exactly from the recorded ledger
(``downtime`` is the transient-failure outage the event-driven engine's
``trainer-flaky`` scenario injects, and ``migration`` is the data-movement
cost of elastic rebalances — seed-ownership re-splits, partition adoption,
and checkpoint-restore transfers).  The serving engine adds two labels of
its own: ``compute`` (forward-only inference, distinct from training's
``ddp``) and ``idle`` (a worker waiting for the next request to arrive —
wall time on the serving timeline, but not work).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List


KNOWN_COMPONENTS = (
    "sampling",
    "lookup",
    "scoring",
    "eviction",
    "rpc",
    "copy",
    "ddp",
    "allreduce",
    "stall",
    "downtime",
    "migration",
    "init",
    "other",
    "compute",
    "idle",
)


@dataclass
class SimClock:
    """Accumulates simulated time, broken down by component."""

    time: float = 0.0
    components: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def advance(self, seconds: float, component: str = "other") -> float:
        """Advance the clock by *seconds*, attributing it to *component*."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self.time += seconds
        self.components[component] += seconds
        return self.time

    def advance_to(self, timestamp: float, component: str = "stall") -> float:
        """Advance the clock up to *timestamp* if it is in the future (barrier wait)."""
        if timestamp > self.time:
            self.advance(timestamp - self.time, component)
        return self.time

    def component_time(self, component: str) -> float:
        return float(self.components.get(component, 0.0))

    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-component ledger."""
        return dict(self.components)

    def snapshot(self) -> Dict[str, object]:
        """Checkpointable state: current time plus the component ledger."""
        return {"time": float(self.time), "components": dict(self.components)}

    def restore(self, state: Dict[str, object]) -> None:
        """Rewind the clock to a :meth:`snapshot` (bit-exact)."""
        self.time = float(state["time"])
        self.components = defaultdict(float)
        for component, seconds in state["components"].items():  # type: ignore[union-attr]
            self.components[component] = float(seconds)

    def reset(self) -> None:
        self.time = 0.0
        self.components = defaultdict(float)


def merge_breakdowns(clocks: Iterable[SimClock]) -> Dict[str, float]:
    """Sum component ledgers across trainers (for cluster-wide breakdowns)."""
    total: Dict[str, float] = defaultdict(float)
    for clock in clocks:
        for component, seconds in clock.components.items():
            total[component] += seconds
    return dict(total)


def mean_breakdown(clocks: List[SimClock]) -> Dict[str, float]:
    """Average per-trainer component ledger."""
    if not clocks:
        return {}
    merged = merge_breakdowns(clocks)
    return {k: v / len(clocks) for k, v in merged.items()}
