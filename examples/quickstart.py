#!/usr/bin/env python
"""Quickstart: MassiveGNN prefetching vs. the DistDGL-style baseline.

Loads the products analog, builds a 2-machine x 2-trainer simulated cluster,
trains a 2-layer GraphSAGE with both data pipelines, and prints the end-to-end
comparison the paper's Fig. 6 is built from: simulated training time, percent
improvement, hit rate, and the reduction in remote feature fetches.

The cluster is the ``uniform`` scenario with a few overrides, materialized
once; ``run("baseline")`` and ``run()`` (the scenario's ``"prefetch"`` pipeline)
execute the registered minibatch pipelines on it — the same two runs
``repro run --mode both`` makes (see ``examples/feature_store_pipeline.py``
for the underlying FeatureStore / MiniBatchPipeline API).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import SCENARIOS, PrefetchConfig, TrainConfig, load_dataset
from repro.utils.logging_utils import format_table


def main() -> None:
    print("Loading the 'products' analog dataset ...")
    dataset = load_dataset("products", scale=0.25, seed=0)
    print(f"  {dataset.num_nodes} nodes, {dataset.num_edges} edges, "
          f"{dataset.feature_dim}-dim features, {dataset.num_classes} classes")

    scenario = SCENARIOS.build("uniform").with_overrides(
        batch_size=128,
        fanouts=(10, 25),     # the paper's GraphSAGE fan-out
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
    )
    train_config = TrainConfig(epochs=3, hidden_dim=64, evaluate=True, seed=0)
    workload = scenario.materialize(0, train_config=train_config, dataset=dataset)

    print("\nTraining baseline (DistDGL-style) and MassiveGNN (prefetch + eviction) ...")
    baseline = workload.run("baseline").report
    prefetch = workload.run().report

    rows = [
        ["simulated training time (s)",
         f"{baseline.total_simulated_time_s:.4f}", f"{prefetch.total_simulated_time_s:.4f}"],
        ["final train accuracy",
         f"{baseline.final_train_accuracy:.3f}", f"{prefetch.final_train_accuracy:.3f}"],
        ["validation accuracy",
         f"{baseline.val_accuracy:.3f}", f"{prefetch.val_accuracy:.3f}"],
        ["remote nodes fetched",
         str(baseline.remote_nodes_fetched()), str(prefetch.remote_nodes_fetched())],
        ["hit rate", "-", f"{prefetch.hit_rate:.3f}"],
        ["overlap efficiency", "-", f"{prefetch.overlap_efficiency:.3f}"],
    ]
    print("\n" + format_table(["metric", "baseline (DistDGL)", "MassiveGNN"], rows))
    print(
        f"\nEnd-to-end improvement: {prefetch.improvement_percent_vs(baseline):.1f}% "
        f"(speedup {prefetch.speedup_vs(baseline):.2f}x)"
    )
    print("Model accuracy is unchanged because prefetching only reorganizes the data pipeline.")


if __name__ == "__main__":
    main()
