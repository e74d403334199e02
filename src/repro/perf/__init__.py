"""Analytical performance model, look-ahead model and parameter trade-off analysis."""

from repro.perf.lookahead import (
    LookaheadQueue,
    LookaheadStats,
    PreparedMinibatch,
    simulate_lookahead,
    steady_state_step_time,
)
from repro.perf.model import (
    StepComponents,
    baseline_step_time,
    communication_stall_time,
    components_from_breakdown,
    improvement_factor,
    overlap_efficiency,
    predicted_speedup,
    prefetch_first_step_time,
    prefetch_steady_step_time,
    prepare_time,
    total_time,
)
from repro.perf.tradeoffs import (
    QUADRANTS,
    QuadrantInfo,
    classify_quadrant,
    quadrant_configs,
)

__all__ = [
    "LookaheadQueue",
    "LookaheadStats",
    "PreparedMinibatch",
    "simulate_lookahead",
    "steady_state_step_time",
    "StepComponents",
    "baseline_step_time",
    "communication_stall_time",
    "components_from_breakdown",
    "improvement_factor",
    "overlap_efficiency",
    "predicted_speedup",
    "prefetch_first_step_time",
    "prefetch_steady_step_time",
    "prepare_time",
    "total_time",
    "QUADRANTS",
    "QuadrantInfo",
    "classify_quadrant",
    "quadrant_configs",
]
