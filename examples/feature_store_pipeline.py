#!/usr/bin/env python
"""The FeatureStore / MiniBatchPipeline API, end to end.

Demonstrates the seams the API opens up:

1. build a pipeline by hand — a trainer's loader, a composed FeatureStore and
   a timing policy — and iterate one epoch (seed → sample → fetch → batch);
2. run every *registered* pipeline (baseline / prefetch / static-cache)
   through the same engine loop and compare them;
3. write a brand-new feature source, hand the object to a FeatureStore in a
   builder callable, and pass that callable as ``pipeline=`` — no registry,
   no engine change.  Here: a "halo mirror" that keeps every halo feature
   resident (an infinite-capacity upper bound on any caching strategy).

Run with:  python examples/feature_store_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    PIPELINES,
    BufferedSource,
    ClusterConfig,
    FeatureStore,
    FetchStats,
    LocalKVStoreSource,
    MiniBatchPipeline,
    PrefetchConfig,
    SimCluster,
    TrainConfig,
    load_dataset,
)
from repro.training import ClusterEngine
from repro.training.pipelines import OverlappedTimingPolicy
from repro.utils.logging_utils import format_table


# --------------------------------------------------------------------------- #
# 3a. A custom source: mirror the entire halo locally (infinite cache).
# --------------------------------------------------------------------------- #
class HaloMirrorSource:
    """Upper bound for any halo caching strategy: everything is resident."""

    name = "halo-mirror"

    def __init__(self, rpc, partition):
        self.rpc = rpc
        self.partition = partition
        self._rows = None

    def initialize(self):
        halo = self.partition.halo_global
        rpc_time = 0.0
        if len(halo):
            owners = self.partition.halo_owner
            self._rows, rpc_time, _ = self.rpc.remote_pull(halo, owners)
        else:
            dim = self.rpc.servers[self.rpc.local_part].feature_dim
            self._rows = np.zeros((0, dim), dtype=np.float32)
        return {"num_prefetched": float(len(halo)), "buffer_capacity": float(len(halo)),
                "rpc_time_s": rpc_time, "num_halo_nodes": float(len(halo)),
                "bytes_fetched": float(self._rows.nbytes), "buffer_nbytes": float(self.nbytes()),
                "scoreboard_nbytes": 0.0}

    def fetch(self, global_ids):
        idx = np.searchsorted(self.partition.halo_global, global_ids)
        rows = self._rows[idx] if len(global_ids) else self._rows[:0]
        return rows, FetchStats(
            source=self.name, num_requested=int(len(global_ids)),
            num_hits=int(len(global_ids)), lookup_nodes=int(len(global_ids)),
        )

    def nbytes(self):
        return int(self._rows.nbytes) if self._rows is not None else 0

    def summary(self):
        return {"buffer_nbytes": float(self.nbytes())}


# --------------------------------------------------------------------------- #
# 3b. A builder callable: the custom source as the halo half of a FeatureStore.
# --------------------------------------------------------------------------- #
def build_halo_mirror_pipeline(trainer, cluster, prefetch_config, cache_config):
    store = FeatureStore(
        partition=trainer.partition,
        local_source=LocalKVStoreSource(trainer.rpc),
        halo_source=HaloMirrorSource(trainer.rpc, trainer.partition),
    )
    return MiniBatchPipeline(trainer.dataloader, store, OverlappedTimingPolicy(), "halo-mirror")


def main() -> None:
    dataset = load_dataset("arxiv", scale=0.5, seed=0)
    cluster = SimCluster(
        dataset,
        ClusterConfig(num_machines=2, trainers_per_machine=2, batch_size=128,
                      fanouts=(5, 10), seed=0),
    )

    # ---- 1. a hand-assembled pipeline for one trainer ---------------------- #
    trainer = cluster.trainers[0]
    store = FeatureStore(
        partition=trainer.partition,
        local_source=LocalKVStoreSource(trainer.rpc),
        halo_source=BufferedSource(
            trainer.rpc, trainer.partition,
            PrefetchConfig(halo_fraction=0.25, delta=16),
            num_global_nodes=dataset.num_nodes,
        ),
    )
    # The constructor populates the buffer (the one-time RPC of Algorithm 1).
    pipeline = MiniBatchPipeline(trainer.dataloader, store, OverlappedTimingPolicy(), "by-hand")
    print(f"pipeline {pipeline.name!r}: {pipeline.init_report['num_prefetched']:.0f} "
          f"halo rows prefetched in {pipeline.init_time_s * 1e3:.3f} ms")
    batch = next(pipeline.epoch())
    halo_stats = batch.fetch.source("halo")
    print(f"first batch: {batch.minibatch.num_input_nodes} input nodes, "
          f"halo hit rate {halo_stats.hit_rate:.3f}, "
          f"rpc {halo_stats.rpc_time_s * 1e3:.3f} ms\n")

    # ---- 2 + 3. registered names and a builder callable, one engine -------- #
    engine = ClusterEngine(cluster, TrainConfig(epochs=2, hidden_dim=32, seed=0))
    prefetch_config = PrefetchConfig(halo_fraction=0.25, gamma=0.995, delta=16)
    rows = []
    for pipeline in ("baseline", "prefetch", "static-cache", build_halo_mirror_pipeline):
        # A registered row refuses a PrefetchConfig it would not read.
        reads_config = callable(pipeline) or PIPELINES.get(pipeline).reads_prefetch_config
        report = engine.run(pipeline, prefetch_config=prefetch_config if reads_config else None)
        report = report.report
        rows.append([
            report.mode,
            f"{report.total_simulated_time_s:.4f}",
            f"{report.final_train_accuracy:.3f}",
            f"{report.hit_rate:.3f}" if report.hit_tracker is not None else "-",
            str(report.remote_nodes_fetched()),
        ])
    print(format_table(
        ["pipeline", "simulated time (s)", "train acc", "hit rate", "remote nodes"], rows
    ))
    print("\nThe halo-mirror bound shows what a perfect (infinite) cache would buy;")
    print("the scored prefetch buffer approaches it at a fraction of the memory.")


if __name__ == "__main__":
    main()
