"""Golden fixture for the simulated behaviour the bench scripts tabulate.

``tests/golden/behaviour.json`` pins what ``benchmarks/bench_hotpath.py``,
``bench_cache_tiers.py``, ``bench_async_sync.py``, ``bench_serving.py`` and
``bench_tune.py`` print at their default sizes (seed 0, scale 0.05): RPC wire
and logical counters, per-config and per-tier cache hit rates, critical paths,
serving percentiles, the elastic migration ledger, tune scores and best
overrides.  All of it is simulated, so at a fixed seed it repeats exactly:

* ``pinned`` holds the values the paper-facing claims are argued from, one
  dotted key each, so a failure says *which* number moved, old -> new.
  Counters, flags and names compare exactly, floats at the rel 1e-9
  ``cluster_2x2.json`` uses;
* ``rest`` holds one sha256 per section over every other leaf the section
  builders return (and the leaf count, so a builder that grows a key fails by
  name of section rather than as an anonymous digest change).

The only leaves left out are the eight host wall-clock fields in
``WALL_CLOCK``; host time is measured by ``benchmarks/e2e``.

The *inequalities* those numbers must satisfy are ordinary tests below, with
the thresholds as constants (the ones other test files already assert are not
repeated here).  If a change is *intended* to move the numbers, regenerate and
commit the fixture with it::

    PYTHONPATH=src python tests/test_golden_behaviour.py --regenerate

``--compare`` regenerates in memory and diffs against the committed file (the
CI golden-drift job runs it).
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # ``benchmarks`` is a package at the root

from benchmarks import (  # noqa: E402
    bench_async_sync,
    bench_cache_tiers,
    bench_hotpath,
    bench_serving,
    bench_tune,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "behaviour.json"
REL_TOL = 1e-9

# The fixed-size workloads the fixture pins (do not change casually): the
# section builders of the five scripts at the scripts' default sizes.
SECTIONS = {
    "rpc": lambda: bench_hotpath.bench_hot_halo_rpc(0.05, 1),
    "fetch": lambda: bench_hotpath.bench_fetch_throughput(0.05, 8),
    "elasticity": lambda: bench_hotpath.bench_elasticity(0.05),
    "cache_tiers": lambda: {
        "drift_stream": bench_cache_tiers.bench_drift_stream(20_000, 1_000, 150, 6, 0),
        "drift_scenario": bench_cache_tiers.bench_drift_scenario(0.05, 4, 0),
        "churn_scenario": bench_cache_tiers.bench_churn_scenario(0.05, 3, 0),
    },
    "async_sync": lambda: bench_async_sync.bench_sync_policies(
        "straggler-machine", 0.05, 2, 0),
    "serving": lambda: bench_serving.bench_serving_load("steady-poisson", 0.05, 256, 0),
    "tuning": lambda: bench_tune.bench_tune_legs(0.05, 1, 256, 0),
}

# Host time: dropped by name, never pinned (list indices are dotted too).
WALL_CLOCK = (
    "fetch.rows_per_s",
    "fetch.seconds_total",
    *(f"cache_tiers.drift_stream.per_policy.{policy}.seconds_total"
      for policy in bench_cache_tiers.DRIFT_POLICIES),
)

# Leaves stored readably (fnmatch patterns over dotted paths); every other
# leaf goes into its section's digest.
PINNED = (
    "rpc.wire_request_reduction_percent",
    "rpc.per_channel.*.requests",
    "rpc.per_channel.*.logical_requests",
    "fetch.steps",
    "fetch.rows_fetched",
    "elasticity.migration_bytes",
    "elasticity.post_join_improvement_percent",
    "elasticity.post_join_epoch_time_s",
    "elasticity.held_last_epoch_time_s",
    "cache_tiers.drift_stream.per_policy.*.mean_hit_rate",
    "cache_tiers.*_scenario.per_config.*.mean_hit_rate",
    "cache_tiers.*_scenario.per_config.*.tier_evictions",
    "cache_tiers.drift_scenario.per_config.*.rpc_bytes",
    "cache_tiers.churn_scenario.mean_hit_rate",
    "async_sync.async_barrier_matches_lockstep",
    "async_sync.lockstep.critical_path_time_s",
    "async_sync.best_bounded_staleness.*",
    "serving.latency_curve.*.p99_ms",
    "serving.flash_crowd.p99_ms",
    "serving.flash_crowd.p99_exceeds_steady",
    "serving.slo.violation_rate_at_base_load",
    "tuning.reports_bit_identical",
    "tuning.*.baseline_score",
    "tuning.*.best_score",
    "tuning.*.improvement_percent",
    "tuning.*.best_overrides.*",
)

# Thresholds of the inequality tests.
MIN_HIT_GAIN = 0.005  # absolute hit rate
MAX_SLO_RATE = 0.02  # steady stream at base load
MIN_TUNE_GAIN_PERCENT = 0.5


@functools.cache
def section(name: str) -> dict:
    """One section builder's output as plain JSON data (run once per process)."""
    return json.loads(json.dumps(SECTIONS[name]()))


def _flatten(node, prefix: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _flatten(value, f"{prefix}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _flatten(value, f"{prefix}.{i}")
    else:
        yield prefix, node


def snapshot(sections: dict) -> dict:
    """The fixture's view of ``{section name: builder output}``."""
    pinned, rest = {}, {}
    for name, data in sections.items():
        unpinned = {}
        for path, value in _flatten(data, name):
            if path in WALL_CLOCK:
                continue
            if any(fnmatchcase(path, pattern) for pattern in PINNED):
                pinned[path] = value
            else:
                unpinned[path] = value
        digest = hashlib.sha256(json.dumps(unpinned, sort_keys=True).encode()).hexdigest()
        rest[name] = {"leaves": len(unpinned), "sha256": digest}
    return {"pinned": pinned, "rest": rest}


def _same(actual, expected) -> bool:
    if isinstance(expected, float) and isinstance(actual, float):
        return abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))
    return type(actual) is type(expected) and actual == expected


def _moved(actual: dict, expected: dict) -> list:
    """``key: fixture -> now`` for every fixture leaf that differs."""
    now, then = dict(_flatten(actual, "")), dict(_flatten(expected, ""))
    return [f"{key[1:]}: {then.get(key)!r} -> {now.get(key)!r}"
            for key in sorted(set(now) | set(then))
            if key not in now or key not in then or not _same(now[key], then[key])]


def _load() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; regenerate with "
        f"PYTHONPATH=src python tests/test_golden_behaviour.py --regenerate"
    )
    return json.loads(GOLDEN_PATH.read_text())


# --------------------------------------------------------------------------- #
# The fixture
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", SECTIONS)
def test_section_matches_fixture(name):
    expected = _load()
    assert sorted(expected["rest"]) == sorted(SECTIONS)
    actual = snapshot({name: section(name)})
    assert not _moved(actual, {
        "pinned": {key: value for key, value in expected["pinned"].items()
                   if key.startswith(f"{name}.")},
        "rest": {name: expected["rest"][name]},
    })


def test_wall_clock_fields_are_dropped_by_name_and_nothing_else_is():
    produced = {path for name in ("fetch", "cache_tiers")
                for path, _ in _flatten(section(name), name)}
    assert set(WALL_CLOCK) <= produced  # the drop list names live fields only
    assert not set(WALL_CLOCK) & set(_load()["pinned"])
    # A leaf that is neither pinned nor dropped lands in the digest, so a
    # builder that grows a key (a new host-time field included) fails by name.
    grown = snapshot({"fetch": {**section("fetch"), "host_cpu_s": 0.25}})
    moved = _moved(grown, snapshot({"fetch": section("fetch")}))
    assert [line.split(":")[0] for line in moved] == ["rest.fetch.leaves", "rest.fetch.sha256"]


def test_every_pinned_pattern_matches_a_fixture_key():
    pinned = _load()["pinned"]
    assert [p for p in PINNED if not any(fnmatchcase(key, p) for key in pinned)] == []


# --------------------------------------------------------------------------- #
# The inequalities the numbers must satisfy
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("rival", bench_cache_tiers.SCORED_RIVALS)
@pytest.mark.parametrize("scenario", ["drift_scenario", "churn_scenario"])
def test_scored_beats_degree_heuristic(scenario, rival):
    per_config = section("cache_tiers")[scenario]["per_config"]
    gain = per_config["scored"]["mean_hit_rate"] - per_config[rival]["mean_hit_rate"]
    assert gain >= MIN_HIT_GAIN


def test_non_default_policy_beats_static_on_drift():
    per_config = section("cache_tiers")["drift_scenario"]["per_config"]
    best = max(row["mean_hit_rate"] for name, row in per_config.items()
               if name != "static-degree")
    assert best - per_config["static-degree"]["mean_hit_rate"] >= MIN_HIT_GAIN


def test_steady_stream_meets_slo_at_base_load():
    assert section("serving")["slo"]["violation_rate_at_base_load"] <= MAX_SLO_RATE


@pytest.mark.parametrize("leg", ["training", "serving"])
def test_tune_best_beats_scenario_default(leg):
    assert section("tuning")[leg]["improvement_percent"] >= MIN_TUNE_GAIN_PERCENT


# --------------------------------------------------------------------------- #
def _generate() -> dict:
    return snapshot({name: section(name) for name in SECTIONS})


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    data = _generate()
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(data['pinned'])} pinned values, "
          f"{sum(r['leaves'] for r in data['rest'].values())} digested)")


def compare() -> int:
    """Regenerate in memory and compare; returns a process exit code."""
    if not GOLDEN_PATH.exists():
        print(f"missing golden fixture {GOLDEN_PATH}", file=sys.stderr)
        return 1
    lines = _moved(_generate(), json.loads(GOLDEN_PATH.read_text()))
    if lines:
        print("golden fixture drift detected (fixture -> now):", file=sys.stderr)
        for line in lines:
            print(f"  {line}", file=sys.stderr)
        print(f"({len(lines)} values moved) if the change is intended, regenerate with "
              "PYTHONPATH=src python tests/test_golden_behaviour.py --regenerate "
              "and commit the fixture with it", file=sys.stderr)
        return 1
    print(f"regenerated behaviour matches {GOLDEN_PATH} (rel tol {REL_TOL})")
    return 0


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    elif "--compare" in sys.argv:
        sys.exit(compare())
    else:
        print(__doc__)
        sys.exit(2)
