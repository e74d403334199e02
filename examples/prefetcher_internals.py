#!/usr/bin/env python
"""Low-level walk-through of the prefetcher on a custom graph.

The other examples drive the high-level training API.  This one uses the
building blocks directly — generate a graph, partition it, build the per-
partition servers, run the neighbor sampler, and step the Prefetcher by hand —
to show exactly what happens inside one trainer: which sampled nodes are halo
nodes, which hit the buffer, what an eviction round replaces, and how the hit
rate evolves.

Run with:  python examples/prefetcher_internals.py
"""

from __future__ import annotations

import numpy as np

from repro.core import PrefetchConfig, Prefetcher
from repro.distributed import CostModel, RPCChannel
from repro.distributed.server import PartitionServer
from repro.graph import build_partitions, make_custom_dataset, metis_partition
from repro.sampling import NeighborSampler, sample_for_partition, split_local_halo


def main() -> None:
    # 1. A custom dataset: 2,000 nodes, 12 communities, 16-dim features.
    dataset = make_custom_dataset(
        num_nodes=2000, avg_degree=20, feature_dim=16, num_classes=12, seed=7, name="demo"
    )
    print(f"Graph: {dataset.num_nodes} nodes, {dataset.num_edges} edges")

    # 2. Partition into 2 machines (METIS-like) and build the halo-aware views.
    result = metis_partition(dataset.graph, 2, seed=7)
    partitions = build_partitions(dataset.graph, result)
    part = partitions[0]
    print(f"Partition 0: {part.num_owned} owned nodes, {part.num_halo} halo nodes "
          f"(edge-cut fraction {result.stats['edge_cut_fraction']:.3f})")

    # 3. One KVStore server per partition plus this trainer's RPC channel.
    servers = {p.part_id: PartitionServer(p, dataset.features).kvstore for p in partitions}
    rpc = RPCChannel(servers, local_part=0, cost_model=CostModel.cpu())

    # 4. The prefetcher: buffer 25% of the halo nodes, gentle decay, evict every 4 steps.
    config = PrefetchConfig(halo_fraction=0.25, gamma=0.9, delta=4)
    prefetcher = Prefetcher(part, config, rpc, num_global_nodes=dataset.num_nodes)
    init = prefetcher.initialize()
    print(f"Prefetch buffer: {init.num_prefetched} nodes "
          f"({init.buffer_nbytes / 1024:.1f} KiB features, "
          f"{init.scoreboard_nbytes / 1024:.1f} KiB scoreboards)")

    # 5. Sample minibatches from the local partition (NeighborSampler draws
    #    every capped node of a layer in one batched call — the only sampler
    #    the engines use) and feed the halo nodes through the prefetcher,
    #    exactly as the training engine does.
    sampler = NeighborSampler(part.local_graph, fanouts=[5, 10], seed=7)
    owned_train = np.arange(part.num_owned)
    rng = np.random.default_rng(7)
    for step in range(12):
        seeds = rng.choice(owned_train, size=64, replace=False)
        minibatch = sample_for_partition(part, sampler, seeds, step=step)
        _, halo_ids, _, _ = split_local_halo(part, minibatch)
        outcome = prefetcher.process_minibatch(halo_ids, step=step)
        marker = "  <- eviction round" if outcome.eviction_round else ""
        print(
            f"step {step:2d}: sampled {minibatch.num_input_nodes:4d} input nodes "
            f"({len(halo_ids):4d} halo) | hits {outcome.num_hits:4d} "
            f"misses {outcome.num_misses:4d} | step hit rate {outcome.hit_rate:.2f} "
            f"| cumulative {prefetcher.hit_rate:.2f}{marker}"
        )
        if outcome.eviction_round and outcome.nodes_evicted:
            print(f"          evicted {outcome.nodes_evicted} cold nodes, "
                  f"fetched {outcome.nodes_replaced} hot replacements")

    summary = prefetcher.summary()
    print("\nPrefetcher summary:")
    for key in ("hit_rate", "remote_nodes_fetched", "remote_nodes_at_init",
                "remote_nodes_for_misses", "remote_nodes_for_replacement", "eviction_rounds"):
        print(f"  {key:30s} {summary[key]:.0f}" if key != "hit_rate" else f"  {key:30s} {summary[key]:.3f}")
    print(f"  total RPC requests             {rpc.stats.requests}")
    print(f"  total bytes over the network   {rpc.stats.bytes_fetched / 1024:.1f} KiB")


if __name__ == "__main__":
    main()
