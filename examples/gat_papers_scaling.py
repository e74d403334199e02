#!/usr/bin/env python
"""GAT on the papers analog: backend contrast and scaling (paper Fig. 7).

Trains a 2-head GAT on the largest dataset analog with the prefetcher enabled,
on both the CPU and GPU cost-model backends and for two cluster sizes, and
prints the per-component time breakdown that explains where the improvement
comes from (overlap on CPU, RPC reduction on both).

Run with:  python examples/gat_papers_scaling.py
"""

from __future__ import annotations

from repro import SCENARIOS, PrefetchConfig, TrainConfig, load_dataset
from repro.utils.logging_utils import format_table

COMPONENTS = ("sampling", "lookup", "scoring", "rpc", "copy", "ddp", "allreduce")


def main() -> None:
    dataset = load_dataset("papers", scale=0.1, seed=2)
    print(f"Dataset: papers analog ({dataset.num_nodes} nodes, {dataset.num_edges} edges)")
    prefetch_config = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16)

    rows = []
    for backend in ("cpu", "gpu"):
        for machines in (2, 4):
            scenario = SCENARIOS.build("uniform").with_overrides(
                num_machines=machines, backend=backend, prefetch_config=prefetch_config
            )
            workload = scenario.materialize(
                2,
                train_config=TrainConfig(epochs=2, arch="gat", hidden_dim=16, num_heads=2, seed=2),
                dataset=dataset,
            )
            baseline = workload.run("baseline").report
            prefetch = workload.run().report
            rows.append(
                [backend, machines * 2,
                 f"{baseline.total_simulated_time_s:.4f}",
                 f"{prefetch.total_simulated_time_s:.4f}",
                 f"{prefetch.improvement_percent_vs(baseline):.1f}",
                 f"{prefetch.hit_rate:.3f}",
                 f"{prefetch.overlap_efficiency:.2f}"]
            )
            breakdown = prefetch.component_breakdown
            total = sum(breakdown.get(c, 0.0) for c in COMPONENTS) or 1.0
            shares = ", ".join(f"{c}={100 * breakdown.get(c, 0.0) / total:.0f}%" for c in COMPONENTS)
            print(f"  [{backend}, {machines} machines] component shares: {shares}")

    print("\n" + format_table(
        ["backend", "#trainers", "baseline s", "MassiveGNN s", "improv %", "hit rate", "overlap"],
        rows,
    ))
    print(
        "\nThe GAT's heavier per-minibatch compute widens the DDP window on the CPU backend "
        "(perfect overlap), while the GPU backend benefits mainly from the reduced RPC volume."
    )


if __name__ == "__main__":
    main()
