"""Analytical performance model (Section IV-C, Equations 2–6 and 9).

The paper derives when the prefetching scheme helps: per-minibatch baseline
time is sampling + feature movement + DDP training (Eq. 2); with prefetching
the next minibatch's preparation overlaps with the current minibatch's DDP
training (Eqs. 4–5), so steady-state time is ``max(t_prepare, t_DDP)`` and the
potential improvement factor is roughly ``t_RPC / t_DDP + 1`` (Eq. 6).  Eq. 7's
compounding cost of frequent scoreboard maintenance has no closed form here:
the timing policies charge each scoring round when it happens.

Eqs. 2–5 and 9 are written only here, as float functions: the timing
policies of :mod:`repro.training.pipelines` call them on every simulated step,
:mod:`repro.perf.lookahead` builds on Eq. 5, and :class:`StepComponents` feeds
per-step averages through them to predict speedups.  The oracle is
``tests/timing_oracle.py``: ``tests/test_timing_differential.py`` holds both
policies to it bit for bit, and ``tests/test_perf_model.py`` checks that every
trainer of a whole run is charged its summed critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.utils.validation import check_duration


@dataclass(frozen=True)
class StepComponents:
    """Per-minibatch component times (seconds) entering the model."""

    t_sampling: float = 0.0
    t_rpc: float = 0.0
    t_copy: float = 0.0
    t_ddp: float = 0.0
    t_lookup: float = 0.0
    t_scoring: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            check_duration(value, name)

    @property
    def t_prepare(self) -> float:
        """Eq. 3 over these components."""
        return prepare_time(self.t_sampling, self.t_lookup, self.t_scoring, self.t_rpc, self.t_copy)


def baseline_step_time(t_sampling: float, t_rpc: float, t_copy: float, t_ddp: float) -> float:
    """Eq. 2: ``T_baseline = t_sampling + max(t_RPC, t_copy) + t_DDP``."""
    return t_sampling + max(t_rpc, t_copy) + t_ddp


def prepare_time(
    t_sampling: float, t_lookup: float, t_scoring: float, t_rpc: float, t_copy: float
) -> float:
    """Eq. 3: next-minibatch preparation time with prefetching.

    ``t_prepare = t_sampling + t_lookup + max(t_scoring, max(t_RPC, t_copy))``
    — the scoreboard update is overlapped with the RPC fetch of missed nodes.
    """
    return t_sampling + t_lookup + max(t_scoring, max(t_rpc, t_copy))


def prefetch_first_step_time(t_prepare: float, t_ddp: float) -> float:
    """Eq. 4: the first minibatch pays its own preparation plus the overlap term."""
    return t_prepare + max(t_prepare, t_ddp)


def prefetch_steady_step_time(t_prepare: float, t_ddp: float) -> float:
    """Eq. 5: steady state is the max of preparation (next batch) and training (current)."""
    return max(t_prepare, t_ddp)


def total_time(c: StepComponents, num_steps: int, *, prefetch: bool) -> float:
    """Total time over *num_steps* minibatches for either pipeline."""
    if num_steps <= 0:
        return 0.0
    if not prefetch:
        return num_steps * baseline_step_time(c.t_sampling, c.t_rpc, c.t_copy, c.t_ddp)
    t_prep = c.t_prepare
    steady = (num_steps - 1) * prefetch_steady_step_time(t_prep, c.t_ddp)
    return prefetch_first_step_time(t_prep, c.t_ddp) + steady


def improvement_factor(c: StepComponents) -> float:
    """Eq. 6: approximate attainable speedup ``t_RPC / t_DDP + 1``.

    Valid in the regime the paper targets (communication on the critical
    path, perfect overlap); the exact ratio is :func:`predicted_speedup`.
    """
    if c.t_ddp <= 0:
        raise ValueError("t_ddp must be positive for the improvement factor")
    return c.t_rpc / c.t_ddp + 1.0


def predicted_speedup(c: StepComponents, num_steps: int = 1000) -> float:
    """Exact model-level speedup ``T_baseline / T_prefetch`` over many steps."""
    baseline = total_time(c, num_steps, prefetch=False)
    prefetched = total_time(c, num_steps, prefetch=True)
    if prefetched <= 0:
        return float("inf")
    return baseline / prefetched


def overlap_efficiency(c: StepComponents) -> float:
    """Fraction of preparation time hidden behind training (1.0 = perfect overlap).

    Matches the Section V-B2 definition: the complement of the share of the
    steady-state step spent stalled waiting for the next minibatch.
    """
    t_prep = c.t_prepare
    if t_prep <= 0:
        return 1.0
    hidden = min(t_prep, c.t_ddp)
    return hidden / t_prep


def communication_stall_time(t_rpc: float, t_copy: float) -> float:
    """Eq. 9: trainer stall attributable to communication, ``t_RPC − t_copy`` (≥ 0)."""
    return max(0.0, t_rpc - t_copy)


def components_from_breakdown(breakdown: Dict[str, float], num_steps: int) -> StepComponents:
    """Average per-step components from a simulated-clock breakdown ledger."""
    if num_steps <= 0:
        raise ValueError("num_steps must be positive")
    def get(key: str) -> float:
        return breakdown.get(key, 0.0) / num_steps
    return StepComponents(
        t_sampling=get("sampling"),
        t_rpc=get("rpc"),
        t_copy=get("copy"),
        t_ddp=get("ddp") + get("allreduce"),
        t_lookup=get("lookup"),
        t_scoring=get("scoring") + get("eviction"),
    )
