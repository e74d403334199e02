"""Golden fixtures for the single-run engine and the event-driven engine.

Two fixtures, both generated by this file and committed beside it:

* ``tests/golden/single_run.json`` — ``TrainingEngine.run_pipeline`` for
  ``baseline`` and ``prefetch`` on a 2x2 GraphSAGE cluster plus one GAT run
  with evaluation: every :class:`TrainingReport` field except the host-side
  ``wall_clock_s``.  It pins ``run_pipeline``'s numbers independently of
  whichever loop produces them.
* ``tests/golden/async_runs.json`` — one sha256 per ``engine="async"`` run
  over seven scenarios x the three sync policies x seeds 0 and 1, taken over
  the report dump, the aggregated RPC counters *and* the recorded event
  history, so a restructuring of the event-driven engine that reorders a
  single event (or moves one float) fails here.  Elastic scenarios reject
  ``local-sgd``; those entries pin the rejection instead of a hash.

Comparisons are exact: same seed, same bytes.  If a change is *intended* to
move these numbers, regenerate and commit the fixtures together with it::

    PYTHONPATH=src python tests/test_golden_runs.py --regenerate
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
from repro.training.config import TrainConfig
from repro.training.engine import TrainingEngine

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
    """One fixed-seed 2x2 ``run_pipeline`` report as plain JSON data."""
    arch, pipeline, evaluate = SINGLE_RUNS[name]
    dataset = load_dataset("products", scale=0.05, seed=5)
    cluster = SimCluster(
        dataset,
        ClusterConfig(num_machines=2, trainers_per_machine=2, batch_size=64,
                      fanouts=(5, 10), seed=7),
    )
    config = TrainConfig(arch=arch, epochs=2, hidden_dim=32, seed=1, evaluate=evaluate)
    kwargs = {} if pipeline == "baseline" else {"prefetch_config": PrefetchConfig(**PREFETCH)}
    report = TrainingEngine(cluster, config).run_pipeline(pipeline, **kwargs)
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


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    single = {name: single_run(name) for name in SINGLE_RUNS}
    SINGLE_PATH.write_text(json.dumps(single, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SINGLE_PATH}")
    runs = {async_key(*case): async_run(*case) for case in ASYNC_CASES}
    ASYNC_PATH.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ASYNC_PATH} ({len(runs)} runs, "
          f"{sum('raises' in r for r in runs.values())} pinned rejections)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
