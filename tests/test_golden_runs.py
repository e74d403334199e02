"""Golden fixtures for the lockstep engine's report and the event-driven engine.

Two fixtures, both generated by this file and committed beside it:

* ``tests/golden/single_run.json`` — ``ClusterEngine(...).run(...).report``
  for ``baseline`` and ``prefetch`` on a 2x2 GraphSAGE cluster plus one GAT
  run with evaluation: every :class:`TrainingReport` field except the
  host-side ``wall_clock_s``.  It was generated through the single-run
  wrapper PR 24 removed and has not been regenerated since, which is the
  proof that the wrapper was a pure delegate.
* ``tests/golden/async_runs.json`` — one sha256 per ``engine="async"`` run
  over seven scenarios x the three sync policies x seeds 0 and 1, taken over
  the report dump, the aggregated RPC counters *and* the recorded event
  history, so a restructuring of the event-driven engine that reorders a
  single event (or moves one float) fails here.  Elastic scenarios reject
  ``local-sgd``; those entries pin the rejection instead of a hash.

Comparisons are exact: same seed, same bytes.  If a change is *intended* to
move these numbers, regenerate and commit the fixtures together with it::

    PYTHONPATH=src python tests/test_golden_runs.py --regenerate

``--compare`` regenerates both in memory and compares them exactly with the
committed files (the CI golden-drift job runs it).  ``single_run.json`` holds
every per-epoch loss, so it is the fixture that shows an ``nn`` kernel change
moved no sum.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.rpc import aggregate_rpc_stats
from repro.graph.datasets import load_dataset
from repro.scenarios import SCENARIOS
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig

GOLDEN_DIR = Path(__file__).parent / "golden"
SINGLE_PATH = GOLDEN_DIR / "single_run.json"
ASYNC_PATH = GOLDEN_DIR / "async_runs.json"

PREFETCH = dict(halo_fraction=0.35, gamma=0.995, delta=8)
SINGLE_RUNS = {
    # name: (arch, pipeline, evaluate)
    "sage-baseline": ("sage", "baseline", False),
    "sage-prefetch": ("sage", "prefetch", False),
    "gat-prefetch-eval": ("gat", "prefetch", True),
}
ASYNC_SCENARIOS = (
    "async-staleness", "trainer-flaky", "congested-link", "scale-out-burst",
    "cascading-failure", "rolling-upgrade", "uniform",
)
SYNC_POLICIES = ("allreduce-barrier", "bounded-staleness", "local-sgd")
SEEDS = (0, 1)


def single_run(name: str) -> dict:
    """One fixed-seed 2x2 lockstep run's :class:`TrainingReport` as plain JSON data."""
    arch, pipeline, evaluate = SINGLE_RUNS[name]
    dataset = load_dataset("products", scale=0.05, seed=5)
    cluster = SimCluster(
        dataset,
        ClusterConfig(num_machines=2, trainers_per_machine=2, batch_size=64,
                      fanouts=(5, 10), seed=7),
    )
    config = TrainConfig(arch=arch, epochs=2, hidden_dim=32, seed=1, evaluate=evaluate)
    kwargs = {} if pipeline == "baseline" else {"prefetch_config": PrefetchConfig(**PREFETCH)}
    report = ClusterEngine(cluster, config).run(pipeline, **kwargs).report
    data = dataclasses.asdict(report)
    del data["wall_clock_s"]
    return json.loads(json.dumps(data, sort_keys=True))


def async_run(scenario: str, sync: str, seed: int) -> dict:
    """Digest of one event-driven run: report + RPC counters + event history."""
    recipe = SCENARIOS.build(scenario).with_overrides(
        engine="async", sync=sync, scale=0.05, epochs=2)
    try:
        workload = recipe.materialize(seed)
        workload.engine.record_events = True
        report = workload.run()
    except ValueError:
        return {"raises": "ValueError"}
    payload = {
        "report": report.as_dict(),
        "rpc": aggregate_rpc_stats(
            [t.rpc for t in workload.cluster.trainers]).as_extended_dict(),
        "events": workload.engine.event_history,
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    # The two readable numbers say *what* moved when the digest does.
    return {
        "sha256": digest,
        "events": len(workload.engine.event_history),
        "critical_path_time_s": report.critical_path_time_s,
    }


def async_key(scenario: str, sync: str, seed: int) -> str:
    return f"{scenario}/{sync}/seed{seed}"


ASYNC_CASES = [
    (scenario, sync, seed)
    for scenario in ASYNC_SCENARIOS for sync in SYNC_POLICIES for seed in SEEDS
]


def _load(path: Path) -> dict:
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        f"PYTHONPATH=src python tests/test_golden_runs.py --regenerate"
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(SINGLE_RUNS))
def test_run_pipeline_matches_fixture(name):
    expected = _load(SINGLE_PATH)
    assert sorted(expected) == sorted(SINGLE_RUNS)
    assert single_run(name) == expected[name]


@pytest.mark.parametrize("scenario", ASYNC_SCENARIOS)
def test_async_runs_match_fixture(scenario):
    expected = _load(ASYNC_PATH)
    assert sorted(expected) == sorted(async_key(*case) for case in ASYNC_CASES)
    for case in ASYNC_CASES:
        if case[0] == scenario:
            assert async_run(*case) == expected[async_key(*case)], async_key(*case)


def _generate() -> dict:
    """Both fixtures, freshly computed, keyed by the file that holds them."""
    return {
        SINGLE_PATH: {name: single_run(name) for name in SINGLE_RUNS},
        ASYNC_PATH: {async_key(*case): async_run(*case) for case in ASYNC_CASES},
    }


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    generated = _generate()
    for path, data in generated.items():
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SINGLE_PATH}")
    runs = generated[ASYNC_PATH]
    print(f"wrote {ASYNC_PATH} ({len(runs)} runs, "
          f"{sum('raises' in r for r in runs.values())} pinned rejections)")


def _moved(actual, expected, prefix: str = "") -> list:
    """Paths of the leaves that differ, with both values (fixture -> now)."""
    if isinstance(actual, dict) and isinstance(expected, dict):
        return [line for key in sorted(set(actual) | set(expected))
                for line in _moved(actual.get(key), expected.get(key), f"{prefix}/{key}")]
    if isinstance(actual, list) and isinstance(expected, list) and len(actual) == len(expected):
        return [line for i, (a, e) in enumerate(zip(actual, expected))
                for line in _moved(a, e, f"{prefix}[{i}]")]
    return [] if actual == expected else [f"{prefix}: {expected!r} -> {actual!r}"]


def compare() -> int:
    """Regenerate in memory and compare exactly; returns a process exit code."""
    missing = [path for path in (SINGLE_PATH, ASYNC_PATH) if not path.exists()]
    if missing:
        print(f"missing golden fixture(s) {missing}", file=sys.stderr)
        return 1
    lines = [f"{path.name}{line}" for path, data in _generate().items()
             for line in _moved(data, json.loads(path.read_text()))]
    if lines:
        print("golden fixture drift detected:", file=sys.stderr)
        for line in lines[:40]:
            print(f"  {line}", file=sys.stderr)
        print(f"({len(lines)} values moved) if the change is intended, regenerate with "
              "PYTHONPATH=src python tests/test_golden_runs.py --regenerate "
              "and commit the fixtures with it", file=sys.stderr)
        return 1
    print(f"regenerated runs match {SINGLE_PATH.name} and {ASYNC_PATH.name} exactly")
    return 0


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    elif "--compare" in sys.argv:
        sys.exit(compare())
    else:
        print(__doc__)
        sys.exit(2)
