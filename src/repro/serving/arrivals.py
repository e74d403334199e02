"""Seeded open-loop arrival processes for the serving engine.

An arrival process turns ``(num_requests, seed)`` into the timestamps at
which requests hit the cluster — *open loop*: arrivals never wait for
completions, so queueing delay is visible instead of being absorbed by the
generator (the classic closed-loop measurement bug).  Three generators ship
in the :data:`ARRIVALS` registry:

* ``poisson`` — memoryless arrivals at a constant rate (exponential gaps);
* ``diurnal`` — a square-wave rate alternating between a peak and a trough,
  reusing the period/duty parameterization of
  :class:`~repro.events.schedule.CongestionSpec` (``peak`` iff
  ``(t % period_s) < duty * period_s``);
* ``flash-crowd`` — a Poisson baseline plus a burst of
  ``round(num_requests * burst_fraction)`` extra arrivals compressed into a
  short window, the serving analogue of the training side's transient
  failures: a stress input, not a steady state.

Every generator returns ``(times, phases)`` — ``phases[i]`` is ``1`` when
request ``i`` belongs to the peak/burst regime and ``0`` otherwise — so the
report can split latency tails by regime without re-deriving the schedule.
Generation is a pure function of ``(spec, num_requests, seed)``: same seed ⇒
bit-identical arrays, which is what pins the serving engine's replay tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro.utils.registry import Registry
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction

ARRIVALS = Registry("arrival process")

#: phases value -> human label (report keys, CLI tables).
PHASE_LABELS = {0: "steady", 1: "peak"}


@dataclass(frozen=True)
class ServingSpec:
    """Parameters of one serving workload (arrival process + SLO + popularity).

    ``arrival`` names an :data:`ARRIVALS` entry; the remaining knobs are
    grouped by the generator that reads them.  ``zipf_alpha`` skews the
    per-request user draw toward popular users (0 = uniform), and
    ``phase_drift`` rotates which users are popular between the steady and
    peak phases — the mechanism behind the ``diurnal-cache-drift`` scenario.
    Validated eagerly, same contract as :class:`~repro.cache.config.CacheConfig`.
    """

    arrival: str = "poisson"
    rate_rps: float = 2000.0
    num_requests: int = 256
    slo_ms: float = 5.0
    zipf_alpha: float = 0.8
    phase_drift: bool = False
    # diurnal knobs (CongestionSpec's square-wave parameterization)
    period_s: float = 0.05
    duty: float = 0.5
    trough_fraction: float = 0.25
    # flash-crowd knobs (burst window relative to the baseline horizon)
    burst_fraction: float = 0.3
    burst_start_fraction: float = 0.5
    burst_duration_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")
        if self.zipf_alpha < 0:
            raise ValueError(f"zipf_alpha must be >= 0, got {self.zipf_alpha}")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")
        if not 0 < self.duty < 1:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        check_fraction(self.trough_fraction, "trough_fraction")
        if not 0 < self.burst_fraction < 1:
            raise ValueError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )
        check_fraction(self.burst_start_fraction, "burst_start_fraction")
        if not 0 < self.burst_duration_fraction <= 1:
            raise ValueError(
                "burst_duration_fraction must be in (0, 1], "
                f"got {self.burst_duration_fraction}"
            )
        object.__setattr__(self, "arrival", ARRIVALS.resolve(self.arrival))

    # ------------------------------------------------------------------ #
    def with_overrides(self, **overrides) -> "ServingSpec":
        """A copy with selected fields replaced; ``None`` values are ignored."""
        filtered = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **filtered)

    def describe(self) -> str:
        """Compact arrival-process label for catalogs and CLI tables."""
        if self.arrival == "diurnal":
            trough = self.rate_rps * self.trough_fraction
            return (
                f"diurnal({self.rate_rps:g}↔{trough:g} rps, "
                f"period={self.period_s * 1e3:g} ms)"
            )
        if self.arrival == "flash-crowd":
            return (
                f"flash-crowd({self.rate_rps:g} rps, "
                f"burst={self.burst_fraction:.0%})"
            )
        return f"poisson({self.rate_rps:g} rps)"


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
@ARRIVALS.register("poisson", aliases=("steady",))
class PoissonArrivals:
    """Constant-rate memoryless arrivals: i.i.d. exponential inter-arrival gaps."""

    name = "poisson"

    def __init__(self, spec: ServingSpec):
        self.spec = spec

    def generate(self, num_requests: int, seed) -> Tuple[np.ndarray, np.ndarray]:
        rng = ensure_rng(seed)
        gaps = rng.exponential(1.0 / self.spec.rate_rps, size=num_requests)
        return np.cumsum(gaps), np.zeros(num_requests, dtype=np.int64)


@ARRIVALS.register("diurnal", aliases=("square-wave",))
class DiurnalArrivals:
    """Square-wave rate: ``rate_rps`` during the peak, ``rate_rps *
    trough_fraction`` during the trough.

    The wave is the :class:`~repro.events.schedule.CongestionSpec` predicate —
    peak iff ``(t % period_s) < duty * period_s`` — applied to an arrival rate
    instead of link latency.  Each segment draws a Poisson count at its rate
    and scatters the arrivals uniformly inside the segment, which is exactly a
    piecewise-constant inhomogeneous Poisson process.
    """

    name = "diurnal"

    def __init__(self, spec: ServingSpec):
        self.spec = spec

    def generate(self, num_requests: int, seed) -> Tuple[np.ndarray, np.ndarray]:
        rng = ensure_rng(seed)
        spec = self.spec
        peak_len = spec.duty * spec.period_s
        trough_len = spec.period_s - peak_len
        trough_rate = spec.rate_rps * spec.trough_fraction
        chunks, phase_chunks = [], []
        start, count, peak = 0.0, 0, True
        while count < num_requests:
            seg_len = peak_len if peak else trough_len
            rate = spec.rate_rps if peak else trough_rate
            k = int(rng.poisson(rate * seg_len)) if rate > 0 else 0
            if k:
                chunks.append(start + np.sort(rng.uniform(0.0, seg_len, size=k)))
                phase_chunks.append(np.full(k, int(peak), dtype=np.int64))
                count += k
            start += seg_len
            peak = not peak
        times = np.concatenate(chunks)[:num_requests]
        phases = np.concatenate(phase_chunks)[:num_requests]
        return times, phases


@ARRIVALS.register("flash-crowd", aliases=("burst", "flash"))
class FlashCrowdArrivals:
    """A Poisson baseline plus a uniform burst in a short window.

    Exactly ``round(num_requests * burst_fraction)`` arrivals are burst-phase
    (mass conservation is an equality the property tests assert, not a
    tolerance); the window starts at ``burst_start_fraction`` of the baseline
    horizon and spans ``burst_duration_fraction`` of it.
    """

    name = "flash-crowd"

    def __init__(self, spec: ServingSpec):
        self.spec = spec

    def generate(self, num_requests: int, seed) -> Tuple[np.ndarray, np.ndarray]:
        rng = ensure_rng(seed)
        spec = self.spec
        n_burst = min(int(round(num_requests * spec.burst_fraction)), num_requests - 1)
        n_burst = max(n_burst, 0)
        n_base = num_requests - n_burst
        base = np.cumsum(rng.exponential(1.0 / spec.rate_rps, size=n_base))
        horizon = float(base[-1]) if n_base else num_requests / spec.rate_rps
        window_start = spec.burst_start_fraction * horizon
        window_len = spec.burst_duration_fraction * horizon
        burst = window_start + np.sort(rng.uniform(0.0, window_len, size=n_burst))
        times = np.concatenate([base, burst])
        phases = np.concatenate(
            [np.zeros(n_base, dtype=np.int64), np.ones(n_burst, dtype=np.int64)]
        )
        order = np.argsort(times, kind="stable")
        return times[order], phases[order]


def build_arrivals(spec: ServingSpec):
    """The arrival process instance named by ``spec.arrival``."""
    return ARRIVALS.build(spec.arrival, spec)
