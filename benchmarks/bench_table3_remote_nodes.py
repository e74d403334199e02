"""Table III: average remote (halo) nodes per trainer and minibatches per trainer.

The paper keeps the batch size constant (2000), so growing the trainer count
shrinks both the per-trainer partition and the number of minibatches each
trainer processes per epoch — the effect that later depresses hit rates at
high trainer counts (Section V-A3).  This benchmark reproduces both columns
for a sweep of simulated machine counts.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_dataset, bench_scenario, save_table

MACHINES = (2, 4, 8)


@pytest.mark.benchmark(group="table3")
def test_table3_remote_nodes_and_minibatches(benchmark, bench_scale):
    datasets = {
        name: bench_dataset(name, scale=bench_scale, seed=1)
        for name in ("arxiv", "products", "reddit", "papers")
    }

    def build_clusters():
        out = {}
        for name, ds in datasets.items():
            for machines in MACHINES:
                workload = bench_scenario(machines).materialize(1, dataset=ds)
                out[(name, machines)] = workload.cluster.summary()
        return out

    summaries = benchmark.pedantic(build_clusters, rounds=1, iterations=1)

    rows = []
    trainers_per_machine = bench_scenario().trainers_per_machine
    for machines in MACHINES:
        row = [machines * trainers_per_machine]
        for name in ("arxiv", "reddit", "products", "papers"):
            s = summaries[(name, machines)]
            row.append(f"{s['avg_remote_nodes_per_trainer']:.0f}/{s['minibatches_per_trainer']:.0f}")
        rows.append(row)
    save_table(
        "table3_remote_nodes",
        ["#trainers", "arxiv (halo/mb)", "reddit (halo/mb)", "products (halo/mb)", "papers (halo/mb)"],
        rows,
        notes=(
            "Table III analog: average remote nodes per trainer / minibatches per trainer per epoch.\n"
            "Expected shape: minibatches per trainer drop as trainers grow (constant batch size); "
            "larger datasets expose more remote nodes."
        ),
    )

    # Shape check: minibatches per trainer must not grow with trainer count.
    for name in datasets:
        mbs = [summaries[(name, m)]["minibatches_per_trainer"] for m in MACHINES]
        assert mbs[0] >= mbs[-1]
