#!/usr/bin/env python
"""Quickstart: MassiveGNN prefetching vs. the DistDGL-style baseline.

Loads the products analog, builds a 2-machine x 2-trainer simulated cluster,
trains a 2-layer GraphSAGE with both data pipelines, and prints the end-to-end
comparison the paper's Fig. 6 is built from: simulated training time, percent
improvement, hit rate, and the reduction in remote feature fetches.

Both pipelines run through the same engine loop: ``compare_baseline_and_prefetch``
builds one cluster and one ``ClusterEngine`` and calls ``run("baseline")`` and
``run("prefetch", prefetch_config=...)`` on it — the registered ``"baseline"`` and
``"prefetch"`` minibatch pipelines (see ``examples/feature_store_pipeline.py``
for the underlying FeatureStore / MiniBatchPipeline API).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ClusterConfig, PrefetchConfig, TrainConfig, load_dataset
from repro.training import compare_baseline_and_prefetch
from repro.utils.logging_utils import format_table


def main() -> None:
    print("Loading the 'products' analog dataset ...")
    dataset = load_dataset("products", scale=0.25, seed=0)
    print(f"  {dataset.num_nodes} nodes, {dataset.num_edges} edges, "
          f"{dataset.feature_dim}-dim features, {dataset.num_classes} classes")

    prefetch_config = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16)
    cluster_config = ClusterConfig(
        num_machines=2,
        trainers_per_machine=2,
        batch_size=128,
        fanouts=(10, 25),     # the paper's GraphSAGE fan-out
        backend="cpu",
        seed=0,
    )
    train_config = TrainConfig(epochs=3, hidden_dim=64, evaluate=True, seed=0)

    print("\nTraining baseline (DistDGL-style) and MassiveGNN (prefetch + eviction) ...")
    baseline, prefetch = compare_baseline_and_prefetch(
        dataset, prefetch_config, cluster_config, train_config
    )

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
