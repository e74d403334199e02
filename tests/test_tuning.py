"""Tuning tests: space/strategy properties, objectives, runner determinism.

The differential discipline: same (seed, budget, space) => byte-identical
ranked reports; a different seed reorders the random strategy's candidates
but never the grid's.  Property tests pin the SearchSpace contract — exact
cartesian product, no duplicates, eager validation with the registry error
idiom — so strategies can rely on it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.scenarios.registry import SCENARIOS
from repro.tuning import (
    OBJECTIVES,
    SEARCH_STRATEGIES,
    SearchSpace,
    TuneRunner,
    apply_axis_overrides,
    default_objective,
    default_search_space,
)
from repro.scenarios.knobs import parse_axis_values

SCALE = 0.05


# --------------------------------------------------------------------------- #
# SearchSpace properties
# --------------------------------------------------------------------------- #
def test_grid_is_exact_cartesian_product():
    space = SearchSpace({
        "sync": ("allreduce-barrier", "bounded-staleness"),
        "staleness": (1, 2, 3),
        "rpc": ("per-call", "batched"),
    })
    grid = space.grid()
    assert space.size == 12
    assert len(grid) == 12
    expected = {
        ("allreduce-barrier", s, r)
        for s in (1, 2, 3) for r in ("per-call", "batched")
    } | {
        ("bounded-staleness", s, r)
        for s in (1, 2, 3) for r in ("per-call", "batched")
    }
    seen = {(g["sync"], g["staleness"], g["rpc"]) for g in grid}
    assert seen == expected
    # no duplicates
    keys = [tuple(sorted(g.items())) for g in grid]
    assert len(set(keys)) == len(keys)


def test_grid_order_matches_axis_declaration_order():
    space = SearchSpace({"staleness": (1, 2), "sync_period": (4, 8)})
    combos = [(g["staleness"], g["sync_period"]) for g in space.grid()]
    assert combos == list(itertools.product((1, 2), (4, 8)))


def test_unknown_axis_lists_valid_names():
    with pytest.raises(ValueError, match="unknown tuning axis"):
        SearchSpace({"syncc": ("allreduce-barrier",)})
    with pytest.raises(ValueError, match="cache.eviction"):
        # the error names the valid axes
        SearchSpace({"not-an-axis": (1,)})


def test_registry_axis_rejects_bad_value_listing_valid_names():
    with pytest.raises(ValueError, match="valid names"):
        SearchSpace({"sync": ("definitely-not-a-policy",)})
    with pytest.raises(ValueError, match="valid names"):
        SearchSpace({"cache.eviction": ("lru", "not-a-policy")})


def test_registry_axis_canonicalizes_aliases_and_rejects_duplicates():
    space = SearchSpace({"cache.eviction": ("second-chance",)})
    assert space.grid() == [{"cache.eviction": "clock"}]
    with pytest.raises(ValueError, match="duplicate"):
        SearchSpace({"cache.eviction": ("clock", "second-chance")})


def test_numeric_axis_type_checks():
    with pytest.raises(ValueError, match="integers"):
        SearchSpace({"staleness": ("two",)})
    with pytest.raises(ValueError, match="booleans"):
        SearchSpace({"cache.adaptive": (1,)})
    with pytest.raises(ValueError, match="no values"):
        SearchSpace({"staleness": ()})
    with pytest.raises(ValueError, match="at least one axis"):
        SearchSpace({})


def test_parse_axis_values_cli_form():
    name, values = parse_axis_values("staleness", "1,2")
    assert (name, values) == ("staleness", (1, 2))
    name, values = parse_axis_values("cache.eviction", "lru, second-chance")
    assert values == ("lru", "clock")
    name, values = parse_axis_values("cache.adaptive", "true")
    assert values == (True,)
    with pytest.raises(ValueError, match="unknown tuning axis"):
        parse_axis_values("nope", "1")
    with pytest.raises(ValueError, match="int values"):
        parse_axis_values("staleness", "fast")


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@pytest.fixture()
def small_space():
    return SearchSpace({
        "sync": ("allreduce-barrier", "bounded-staleness"),
        "staleness": (1, 2),
        "rpc": ("per-call", "batched"),
    })


def test_grid_strategy_is_seed_independent(small_space):
    grid = SEARCH_STRATEGIES.build("grid")
    assert grid.candidates(small_space, seed=0) == grid.candidates(small_space, seed=99)
    assert grid.candidates(small_space, seed=0) == small_space.grid()
    assert grid.candidates(small_space, budget=3, seed=0) == small_space.grid()[:3]


def test_random_strategy_covers_grid_when_budget_allows(small_space):
    random = SEARCH_STRATEGIES.build("random")
    picked = random.candidates(small_space, budget=small_space.size, seed=0)
    key = lambda d: tuple(sorted(d.items()))  # noqa: E731
    assert sorted(map(key, picked)) == sorted(map(key, small_space.grid()))


def test_random_strategy_order_depends_on_seed_only(small_space):
    random = SEARCH_STRATEGIES.build("random")
    a = random.candidates(small_space, seed=0)
    b = random.candidates(small_space, seed=0)
    c = random.candidates(small_space, seed=1)
    assert a == b
    assert a != c  # 8! orderings; a seed collision here means a broken salt


def test_strategy_registry_error_lists_valid_names():
    with pytest.raises(ValueError, match="valid names"):
        SEARCH_STRATEGIES.build("annealing")


# --------------------------------------------------------------------------- #
# apply_axis_overrides
# --------------------------------------------------------------------------- #
def test_apply_scenario_and_cache_axes():
    base = SCENARIOS.build("uniform")
    assert base.cache_config is None
    out = apply_axis_overrides(base, {
        "sync": "bounded-staleness", "staleness": 2,
        "cache.tiers": 2, "cache.eviction": "lru",
    })
    assert out.sync == "bounded-staleness"
    assert out.staleness == 2
    assert out.cache_config.tiers == 2
    assert out.cache_config.eviction == "lru"
    # cache axes on a cacheless scenario must put the tiers in the data path
    assert out.pipeline == "tiered-cache"
    # the base scenario is untouched
    assert base.cache_config is None and base.staleness == 1


def test_apply_preserves_existing_cache_fields():
    base = SCENARIOS.build("cache-churn")
    out = apply_axis_overrides(base, {"cache.eviction": "clock"})
    assert out.cache_config.eviction == "clock"
    assert out.cache_config.tiers == base.cache_config.tiers
    assert out.cache_config.admission == base.cache_config.admission
    assert out.pipeline == base.pipeline


def test_apply_serving_axes_require_serving_scenario():
    serving = SCENARIOS.build("steady-poisson")
    out = apply_axis_overrides(serving, {"serving.rate_rps": 99.0})
    assert out.serving.rate_rps == 99.0
    with pytest.raises(ValueError, match="serving"):
        apply_axis_overrides(SCENARIOS.build("uniform"), {"serving.rate_rps": 99.0})


def test_apply_rejects_unknown_axis():
    with pytest.raises(ValueError, match="unknown tuning axis"):
        apply_axis_overrides(SCENARIOS.build("uniform"), {"sylo": 1})


def test_default_spaces_match_execution_kind():
    training = default_search_space(SCENARIOS.build("uniform"))
    serving = default_search_space(SCENARIOS.build("steady-poisson"))
    assert "engine" in training.names()
    assert "trainers_per_machine" in serving.names()


# --------------------------------------------------------------------------- #
# Objectives
# --------------------------------------------------------------------------- #
def test_objective_registry_error_lists_valid_names():
    with pytest.raises(ValueError, match="valid names"):
        OBJECTIVES.build("latency")


def test_objective_direction_math():
    minimize = OBJECTIVES.build("critical-path-s")
    maximize = OBJECTIVES.build("cache-hit-rate")
    assert minimize.better(1.0, 2.0) and not minimize.better(2.0, 1.0)
    assert maximize.better(0.9, 0.5) and not maximize.better(0.5, 0.9)
    assert minimize.improvement_percent(0.9, 1.0) == pytest.approx(10.0)
    assert maximize.improvement_percent(1.1, 1.0) == pytest.approx(10.0)
    assert minimize.improvement_percent(5.0, 0.0) == 0.0


def test_objective_rejects_wrong_report_surface():
    serving_report = (
        SCENARIOS.build("steady-poisson").with_overrides(scale=SCALE)
        .materialize(seed=0).run()
    )
    assert OBJECTIVES.build("serving-p99-ms").score(serving_report) > 0
    with pytest.raises(ValueError, match="critical-path-s"):
        OBJECTIVES.build("critical-path-s").score(serving_report)


def test_default_objective_by_engine():
    assert default_objective(SCENARIOS.build("uniform")) == "critical-path-s"
    assert default_objective(SCENARIOS.build("steady-poisson")) == "serving-p99-ms"


# --------------------------------------------------------------------------- #
# TuneRunner: determinism, ranking, differential behavior
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def straggler_report():
    space = SearchSpace({
        "engine": ("async",),
        "sync": ("allreduce-barrier", "bounded-staleness"),
    })
    return TuneRunner("straggler-machine", space=space, scale=SCALE,
                      epochs=1).run()


def test_tune_report_ranked_best_first(straggler_report):
    report = straggler_report
    assert report.baseline_score is not None
    ranks = [c.rank for c in report.candidates if c.status == "ok"]
    assert ranks == list(range(1, len(ranks) + 1))
    scores = [c.score for c in report.candidates if c.status == "ok"]
    assert scores == sorted(scores)  # min objective: ascending is best-first
    assert report.best is report.candidates[0]
    # the sweep rediscovers the bounded-staleness win over the straggler
    assert dict(report.best.overrides)["sync"] == "bounded-staleness"
    assert report.best.improvement_percent > 0


def test_same_seed_reports_byte_identical(straggler_report):
    space = SearchSpace({
        "engine": ("async",),
        "sync": ("allreduce-barrier", "bounded-staleness"),
    })
    again = TuneRunner("straggler-machine", space=space, scale=SCALE,
                       epochs=1).run()
    assert again.canonical_json() == straggler_report.canonical_json()


def test_seed_reorders_random_but_not_grid_candidates():
    space = SearchSpace({
        "sync": ("allreduce-barrier", "bounded-staleness", "local-sgd"),
        "staleness": (1, 2),
        "sync_period": (2, 4),
    })
    grid = SEARCH_STRATEGIES.build("grid")
    random = SEARCH_STRATEGIES.build("random")
    assert grid.candidates(space, seed=0) == grid.candidates(space, seed=7)
    assert random.candidates(space, seed=0) != random.candidates(space, seed=7)


def test_budget_truncates_evaluations():
    space = SearchSpace({"staleness": (1, 2, 3, 4)})
    report = TuneRunner("straggler-machine", space=space, budget=2,
                        scale=SCALE, epochs=1,
                        objective="critical-path-s").run()
    assert len(report.evaluated) == 2
    with pytest.raises(ValueError, match="budget"):
        TuneRunner("straggler-machine", space=space, budget=0)


def test_invalid_candidates_recorded_not_ranked():
    # a serving objective on a training scenario: no candidate's ClusterReport
    # has a latency surface, so every row must come back invalid, not ranked.
    space = SearchSpace({"sync": ("allreduce-barrier",), "engine": ("async",)})
    report = TuneRunner("uniform", space=space, objective="serving-p99-ms",
                        scale=SCALE, epochs=1).run()
    assert report.baseline_score is None
    assert report.best is None
    assert all(c.status == "invalid" and c.rank == 0 and c.error
               for c in report.candidates)


def test_parallel_run_matches_serial():
    space = SearchSpace({
        "sync": ("allreduce-barrier", "bounded-staleness"),
        "engine": ("async",),
    })
    serial = TuneRunner("straggler-machine", space=space, scale=SCALE,
                        epochs=1, parallelism=1).run()
    parallel = TuneRunner("straggler-machine", space=space, scale=SCALE,
                          epochs=1, parallelism=2).run()
    assert parallel.canonical_json() == serial.canonical_json()


def test_runner_validates_names_eagerly():
    with pytest.raises(ValueError, match="valid names"):
        TuneRunner("no-such-scenario")
    with pytest.raises(ValueError, match="valid names"):
        TuneRunner("uniform", objective="speed")
    with pytest.raises(ValueError, match="valid names"):
        TuneRunner("uniform", strategy="bayes")
