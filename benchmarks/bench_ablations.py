"""Ablation benchmarks for the design choices DESIGN.md calls out.

Two questions the paper motivates but does not ablate directly:

1. **Eviction policy** — does the scored (S_E/S_A) policy actually beat
   simpler LRU / random / no-eviction policies at equal buffer size?
2. **Partition quality** — how much of the prefetcher's benefit depends on
   METIS-quality partitions vs. random partitions (which create far more halo
   traffic)?
"""

from __future__ import annotations

import dataclasses

import pytest

from benchmarks.common import bench_dataset, bench_scenario, save_table
from repro.core.config import PrefetchConfig
from repro.training.config import TrainConfig


@pytest.mark.benchmark(group="ablation")
def test_ablation_eviction_policies(benchmark, bench_scale, bench_epochs):
    dataset = bench_dataset("products", scale=bench_scale, seed=15)
    config = PrefetchConfig(halo_fraction=0.25, gamma=0.95, delta=8)

    def run_policies():
        workload = bench_scenario(batch_size=128).materialize(
            15, train_config=TrainConfig(epochs=bench_epochs + 1, hidden_dim=32, seed=15),
            dataset=dataset,
        )
        out = {"__baseline__": workload.run("baseline").report}
        # A degree-ranked cache with the same capacity but no scoreboards: the
        # lower bar every eviction policy must clear.
        out["static-cache"] = workload.run("static-cache", prefetch_config=config).report
        out["no-eviction"] = workload.run(
            "prefetch", prefetch_config=config.without_eviction()
        ).report
        # By name: every trainer builds its own policy from the cluster seed,
        # so the random policy's RNG is not shared across trainers.
        for policy_name in ("score-threshold", "lru", "random"):
            out[policy_name] = workload.run(
                "prefetch",
                prefetch_config=dataclasses.replace(config, eviction_policy=policy_name),
            ).report
        return out

    results = benchmark.pedantic(run_policies, rounds=1, iterations=1)
    baseline = results.pop("__baseline__")

    rows = []
    for name, report in results.items():
        rows.append(
            [name, round(report.total_simulated_time_s, 4), round(report.hit_rate, 3),
             report.remote_nodes_fetched(), round(report.improvement_percent_vs(baseline), 1)]
        )
    save_table(
        "ablation_eviction_policies",
        ["policy", "time s", "hit rate", "remote nodes fetched", "improvement % vs baseline"],
        rows,
        notes=(
            "Ablation: eviction policy at fixed buffer size.\n"
            "Expected shape: the paper's score-threshold policy matches or beats LRU/random and\n"
            "no-eviction on hit rate."
        ),
    )

    by_name = {row[0]: row for row in rows}
    # The scored policy's hit rate should not be worse than random eviction.
    assert by_name["score-threshold"][2] >= by_name["random"][2] - 0.05


@pytest.mark.benchmark(group="ablation")
def test_ablation_partition_quality(benchmark, bench_scale, bench_epochs):
    dataset = bench_dataset("products", scale=bench_scale, seed=16)
    prefetch = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16)

    def run_partitioners():
        out = {}
        for method in ("metis", "random"):
            workload = bench_scenario(batch_size=128, partition_method=method).materialize(
                16, train_config=TrainConfig(epochs=bench_epochs, hidden_dim=32, seed=16),
                dataset=dataset,
            )
            baseline = workload.run("baseline").report
            prefetched = workload.run("prefetch", prefetch_config=prefetch).report
            out[method] = (workload.cluster, baseline, prefetched)
        return out

    results = benchmark.pedantic(run_partitioners, rounds=1, iterations=1)

    rows = []
    for method, (cluster, baseline, prefetched) in results.items():
        rows.append(
            [method,
             round(cluster.partition_result.stats["edge_cut_fraction"], 3),
             int(cluster.average_remote_nodes_per_trainer()),
             round(baseline.total_simulated_time_s, 4),
             round(prefetched.total_simulated_time_s, 4),
             round(prefetched.improvement_percent_vs(baseline), 1),
             round(prefetched.hit_rate, 3)]
        )
    save_table(
        "ablation_partition_quality",
        ["partitioner", "edge-cut frac", "avg halo/trainer", "baseline s", "prefetch s",
         "improvement %", "hit rate"],
        rows,
        notes=(
            "Ablation: METIS-like vs. random partitioning underneath the prefetcher.\n"
            "Expected shape: random partitions create more halo traffic (higher edge cut), making the\n"
            "baseline slower; prefetching helps in both cases."
        ),
    )

    by_method = {row[0]: row for row in rows}
    assert by_method["random"][1] >= by_method["metis"][1]
