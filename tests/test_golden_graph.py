"""Golden fixture for the set-up path: dataset analogs, partitions, halos.

``tests/golden/graph_setup.json`` pins everything ``ClusterScenario.materialize``
builds before a run starts, as sha256 digests of the raw arrays:

* the ``indptr`` / ``indices`` / ``labels`` of the products, papers and arxiv
  analogs at scales 0.05 and 0.3, seeds 0-3 (``CSRGraph.from_edges`` and the
  generators above it);
* ``metis_partition(...).parts`` for k in {2, 4, 8} on each of them, seeded the
  way ``SimCluster`` seeds it, plus ``random`` / ``hash`` / ``skewed`` once;
* every :class:`GraphPartition` ``build_partitions`` makes of those results
  (``local_graph.indptr/indices``, ``halo_global``, ``halo_owner``,
  ``local_to_global``).

Each entry also stores the edge cut and the halo count, so a moved digest says
*what* moved.  Comparisons are exact: a change to the partitioner or the CSR
build that moves one entry of ``parts`` shifts every simulated metric
downstream, and has to be claimed as such by regenerating and committing the
fixture with it::

    PYTHONPATH=src python tests/test_golden_graph.py --regenerate

``--compare`` regenerates in memory and diffs against the committed file (the
CI golden-drift job runs it).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.graph.halo import build_partitions
from repro.graph.partition import edge_cut, partition_graph
from repro.utils.rng import derive_seed

GOLDEN_PATH = Path(__file__).parent / "golden" / "graph_setup.json"

DATASETS = ("products", "papers", "arxiv")
SCALES = (0.05, 0.3)
SEEDS = (0, 1, 2, 3)
METIS_KS = (2, 4, 8)
BASELINE_METHODS = ("random", "hash", "skewed")  # once: products@0.05, seed 0, k=4


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def partition_entry(graph, method: str, num_parts: int, seed: int) -> dict:
    """Digest of one partition result and of the GraphPartitions built on it."""
    # The seed SimCluster hands the partitioner for ``materialize(seed)``.
    result = partition_graph(graph, num_parts, method=method, seed=derive_seed(seed, 101))
    partitions = build_partitions(graph, result)
    return {
        "parts": _sha(result.parts),
        "edge_cut": edge_cut(graph, result.parts),
        "halo_nodes": sum(p.num_halo for p in partitions),
        "partitions": [
            _sha(p.local_graph.indptr, p.local_graph.indices, p.halo_global,
                 p.halo_owner, p.local_to_global)
            for p in partitions
        ],
    }


def dataset_entries(name: str, scale: float, seed: int) -> dict:
    """All fixture entries that hang off one dataset analog."""
    dataset = load_dataset(name, scale=scale, seed=seed)
    graph = dataset.graph
    prefix = f"{name}@{scale}/seed{seed}"
    entries = {
        f"{prefix}/graph": {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "indptr": _sha(graph.indptr),
            "indices": _sha(graph.indices),
            "labels": _sha(dataset.labels),
        }
    }
    for k in METIS_KS:
        entries[f"{prefix}/metis/k{k}"] = partition_entry(graph, "metis", k, seed)
    if (name, scale, seed) == ("products", 0.05, 0):
        for method in BASELINE_METHODS:
            entries[f"{prefix}/{method}/k4"] = partition_entry(graph, method, 4, seed)
    return entries


def all_entries() -> dict:
    entries: dict = {}
    for name in DATASETS:
        for scale in SCALES:
            for seed in SEEDS:
                entries.update(dataset_entries(name, scale, seed))
    return entries


def _load() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; regenerate with "
        f"PYTHONPATH=src python tests/test_golden_graph.py --regenerate"
    )
    return json.loads(GOLDEN_PATH.read_text())


def _diff(actual: dict, expected: dict) -> list:
    """Human-readable list of the entries (and fields) that differ."""
    lines = []
    for key in sorted(set(actual) | set(expected)):
        a, e = actual.get(key), expected.get(key)
        if a is None or e is None:
            lines.append(f"{key}: {'missing from fixture' if e is None else 'not regenerated'}")
        elif a != e:
            fields = [f for f in sorted(set(a) | set(e)) if a.get(f) != e.get(f)]
            # Digests only say "moved"; the readable numbers say what did.
            moved = {f: (e.get(f), a.get(f)) for f in fields if isinstance(e.get(f), int)}
            lines.append(f"{key}: {fields} differ (fixture -> now: {moved})")
    return lines


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", DATASETS)
def test_graph_setup_matches_fixture(name, scale):
    fixture = _load()
    prefix = f"{name}@{scale}/"
    expected = {key: value for key, value in fixture.items() if key.startswith(prefix)}
    actual: dict = {}
    for seed in SEEDS:
        actual.update(dataset_entries(name, scale, seed))
    assert not _diff(actual, expected)


def test_fixture_has_no_stale_entries():
    prefixes = tuple(f"{name}@{scale}/seed{seed}/"
                     for name in DATASETS for scale in SCALES for seed in SEEDS)
    assert [key for key in _load() if not key.startswith(prefixes)] == []


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    entries = all_entries()
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(entries)} entries)")


def compare() -> int:
    """Regenerate in memory and compare exactly; returns a process exit code."""
    if not GOLDEN_PATH.exists():
        print(f"missing golden fixture {GOLDEN_PATH}", file=sys.stderr)
        return 1
    lines = _diff(all_entries(), json.loads(GOLDEN_PATH.read_text()))
    if lines:
        print("golden fixture drift detected:", file=sys.stderr)
        for line in lines:
            print(f"  {line}", file=sys.stderr)
        print("if the change is intended, regenerate with "
              "PYTHONPATH=src python tests/test_golden_graph.py --regenerate "
              "and commit the fixture with it", file=sys.stderr)
        return 1
    print(f"regenerated set-up path matches {GOLDEN_PATH} exactly")
    return 0


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    elif "--compare" in sys.argv:
        sys.exit(compare())
    else:
        print(__doc__)
        sys.exit(2)
