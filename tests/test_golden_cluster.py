"""Golden-number regression test for a fixed-seed 2x2 cluster run.

``tests/golden/cluster_2x2.json`` captures the losses and telemetry of a
small, fully deterministic 2-machine x 2-trainer prefetch run.  Any change to
partitioning, sampling, the prefetcher, the timing policies, or the cluster
engine's barrier accounting shows up here as a numeric diff — on purpose.

If a change is *intended* to move these numbers, regenerate the fixture and
commit it together with the change::

    PYTHONPATH=src python tests/test_golden_cluster.py --regenerate

Floats are compared at rel=1e-9: bit-exactness across numpy versions is not
guaranteed for reductions, but anything a code change does moves these numbers
by far more than that.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.graph.datasets import load_dataset
from repro.training.cluster_engine import ClusterEngine, ClusterReport
from repro.training.config import TrainConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "cluster_2x2.json"
REL_TOL = 1e-9


def golden_cluster_run(pipeline: str = "prefetch") -> ClusterReport:
    """The fixed-seed 2x2 workload the fixture pins (do not change casually).

    The fixture is the ``prefetch`` run; ``tests/test_perf_model.py`` also
    runs ``baseline`` on the same workload (without the PrefetchConfig,
    which that pipeline does not read).
    """
    dataset = load_dataset("products", scale=0.05, seed=5)
    cluster = SimCluster(
        dataset,
        ClusterConfig(
            num_machines=2, trainers_per_machine=2,
            batch_size=64, fanouts=(5, 10), seed=7,
        ),
    )
    engine = ClusterEngine(cluster, TrainConfig(epochs=2, hidden_dim=32, seed=1))
    config = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)
    return engine.run(pipeline, prefetch_config=None if pipeline == "baseline" else config)


def _assert_matches(actual, expected, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected dict, got {type(actual)}"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys differ: {sorted(actual)} vs {sorted(expected)}"
        )
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == expected or abs(actual - expected) <= REL_TOL * max(
            abs(actual), abs(expected)
        ), f"{path}: {actual} != {expected}"
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def test_golden_2x2_cluster_numbers():
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; regenerate with "
        f"PYTHONPATH=src python tests/test_golden_cluster.py --regenerate"
    )
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = json.loads(json.dumps(golden_cluster_run().as_dict()))
    _assert_matches(actual, expected)


def regenerate(out_path: Path = GOLDEN_PATH) -> None:
    """Write the fixture to *out_path* (default: the committed location).

    The CI golden-drift job regenerates into a temp file and diffs it against
    the committed fixture, so an uncommitted behavior change in any pinned
    layer fails the build instead of landing silently.
    """
    out_path.parent.mkdir(parents=True, exist_ok=True)
    report = golden_cluster_run()
    out_path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    print(f"  losses: {[round(r.loss, 6) for r in report.report.epoch_records]}")
    print(f"  critical path: {report.critical_path_time_s:.6f}s")


def compare() -> int:
    """Regenerate in memory and compare against the committed fixture.

    Uses the same rel=1e-9 tolerance as the test (bit-exactness across numpy
    versions is not guaranteed for reductions), so the CI golden-drift job
    fails on behavior changes without turning red on a numpy upgrade's
    last-ulp summation differences.  Returns a process exit code.
    """
    if not GOLDEN_PATH.exists():
        print(f"missing golden fixture {GOLDEN_PATH}", file=sys.stderr)
        return 1
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = json.loads(json.dumps(golden_cluster_run().as_dict()))
    try:
        _assert_matches(actual, expected)
    except AssertionError as exc:
        print(f"golden fixture drift detected: {exc}", file=sys.stderr)
        print("if the change is intended, regenerate with "
              "PYTHONPATH=src python tests/test_golden_cluster.py --regenerate "
              "and commit the fixture with it", file=sys.stderr)
        return 1
    print(f"regenerated run matches {GOLDEN_PATH} (rel tol {REL_TOL})")
    return 0


if __name__ == "__main__":
    if "--compare" in sys.argv:
        sys.exit(compare())
    elif "--regenerate" in sys.argv:
        out = GOLDEN_PATH
        if "--out" in sys.argv:
            out = Path(sys.argv[sys.argv.index("--out") + 1])
        regenerate(out)
    else:
        print(__doc__)
        sys.exit(2)
