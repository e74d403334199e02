"""Sweep-driven auto-configuration: search spaces, objectives, presets.

The knob surface of a :class:`~repro.scenarios.registry.ClusterScenario` —
RPC channel, cache tiers and their admission/eviction/scorer policies,
execution engine, sync policy and its staleness/period knobs, execution
backend, serving arrival parameters — is searched by a
:class:`~repro.tuning.runner.TuneRunner`: a
:class:`~repro.tuning.space.SearchSpace` names the axes (the knobs of
:data:`repro.scenarios.knobs.AXES`, the override language the CLI, presets
and ``ClusterScenario.with_overrides`` share, validated eagerly), a
:data:`~repro.tuning.space.SEARCH_STRATEGIES` entry orders the candidates
(exhaustive ``grid`` or seeded ``random``), and an
:data:`~repro.tuning.objectives.OBJECTIVES` entry scores each run's report
(critical path, cache hit rate, serving p99, SLO-violation rate).

The winning configuration is frozen as a :class:`~repro.tuning.presets.Preset`
(``presets/*.json`` with full provenance: seed, budget, spec hash, scores), so
``repro run --preset <name>`` pins a known-good bundle::

    repro tune --scenario straggler-machine --objective critical-path-s \
        --emit-preset throughput-straggler
    repro run --preset throughput-straggler

Determinism follows the repository's differential-test discipline: the same
(seed, budget, space) produces a byte-identical ranked report and preset file.
"""

from repro.scenarios.knobs import AXES, apply_axis_overrides
from repro.tuning.objectives import OBJECTIVES, default_objective
from repro.tuning.presets import (
    Preset,
    available_presets,
    default_presets_dir,
    load_preset,
)
from repro.tuning.runner import TuneReport, TuneRunner
from repro.tuning.space import SEARCH_STRATEGIES, SearchSpace, default_search_space

__all__ = [
    "AXES",
    "OBJECTIVES",
    "Preset",
    "SEARCH_STRATEGIES",
    "SearchSpace",
    "TuneReport",
    "TuneRunner",
    "apply_axis_overrides",
    "available_presets",
    "default_objective",
    "default_presets_dir",
    "default_search_space",
    "load_preset",
]
