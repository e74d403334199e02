"""The ``uniform`` scenario path builds the paper benches' cluster bit for bit.

Every paper figure, sweep and memory profile materializes
``SCENARIOS["uniform"].with_overrides(...)``.  This differential holds that
path to the hand-built construction in ``tests/cluster_construction_oracle.py``
on every :class:`TrainingReport` field a paper table prints: both backends,
both architectures, all three legs (baseline, prefetch without eviction,
prefetch), random partitions as the ablation uses them, and Table III's
``cluster.summary()``.
"""

from __future__ import annotations

import pytest

from cluster_construction_oracle import build_cluster, report_fields, run_legs
from repro.core.config import PrefetchConfig
from repro.graph.datasets import load_dataset
from repro.scenarios import SCENARIOS
from repro.training.config import TrainConfig

PREFETCH = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=4)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("arxiv", scale=0.1, seed=2)


def scenario_legs(dataset, seed, train_config, **overrides):
    workload = SCENARIOS.build("uniform").with_overrides(**overrides).materialize(
        seed, train_config=train_config, dataset=dataset
    )
    return {
        "baseline": workload.run("baseline").report,
        "prefetch_no_evict": workload.run(
            "prefetch", prefetch_config=PREFETCH.without_eviction()
        ).report,
        "prefetch": workload.run("prefetch", prefetch_config=PREFETCH).report,
    }


@pytest.mark.parametrize("backend", ["cpu", "gpu"])
@pytest.mark.parametrize("arch", ["sage", "gat"])
def test_scenario_matches_hand_built_cluster(dataset, backend, arch):
    seed = {"sage": 2, "gat": 3}[arch]
    train_config = TrainConfig(epochs=1, arch=arch, hidden_dim=16, num_heads=2,
                               max_steps_per_epoch=3, seed=seed)
    expected = run_legs(dataset, train_config, PREFETCH, backend=backend, seed=seed)
    got = scenario_legs(dataset, seed, train_config, backend=backend)
    for leg in expected:
        assert report_fields(got[leg]) == report_fields(expected[leg]), leg


def test_random_partitions_match(dataset):
    train_config = TrainConfig(epochs=1, hidden_dim=16, max_steps_per_epoch=3, seed=16)
    expected = run_legs(dataset, train_config, PREFETCH, batch_size=128,
                        partition_method="random", seed=16)
    got = scenario_legs(dataset, 16, train_config, batch_size=128, partition_method="random")
    for leg in expected:
        assert report_fields(got[leg]) == report_fields(expected[leg]), leg


@pytest.mark.parametrize("machines", [2, 4])
def test_cluster_summary_matches(dataset, machines):
    expected = build_cluster(dataset, num_machines=machines, seed=1).summary()
    workload = SCENARIOS.build("uniform").with_overrides(num_machines=machines).materialize(
        1, dataset=dataset
    )
    assert workload.cluster.summary() == expected
