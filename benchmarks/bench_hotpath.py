"""Hot-path benchmark: owner-coalesced RPC accounting, fetch, elasticity.

Prints the quantities the fetch→prefetch hot path is judged on.  All but the
fetch rate are simulated, repeat exactly at a fixed seed, and are pinned by
``tests/golden/behaviour.json`` (sections ``rpc``, ``fetch``, ``elasticity``);
host wall time is priced end to end by ``benchmarks/e2e``.

* **fetch rows/s** — feature-store assembly throughput on the hot-halo
  workload's buffered data path.
* **wire-request counts** — logical vs. coalesced wire RPC totals of the
  ``hot-halo`` scenario under the ``per-call`` and ``batched`` channels; the
  run asserts that numerics are identical, logical demand matches exactly, and
  the batched channel's wire requests strictly decrease (Fig. 11 accounting).
* **elastic scale-out overhead** — simulated per-epoch critical paths and the
  migration-byte ledger of the ``scale-out-burst`` scenario vs. a held-back
  twin whose joins are stripped.  The run asserts every scheduled join lands,
  the joiners pay a nonzero migration ledger, the post-join epoch beats the
  held baseline's, and a rebuilt run reproduces the report bit for bit.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpath.py

Nothing is written unless ``--out FILE`` asks for the JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.distributed.rpc import aggregate_rpc_stats
from repro.features import BufferedSource, LocalKVStoreSource
from repro.features.store import FeatureStore
from repro.scenarios import SCENARIOS


# --------------------------------------------------------------------------- #
# Part 1: hot-halo RPC accounting (per-call vs. batched) + fetch throughput
# --------------------------------------------------------------------------- #
def bench_hot_halo_rpc(scenario_scale: float, epochs: int):
    runs = {}
    losses = {}
    for rpc in ("per-call", "batched"):
        workload = (
            SCENARIOS.build("hot-halo")
            .with_overrides(scale=scenario_scale, epochs=epochs, rpc=rpc)
            .materialize(seed=0)
        )
        report = workload.run()
        agg = aggregate_rpc_stats([t.rpc for t in workload.cluster.trainers])
        runs[rpc] = {
            **agg.as_extended_dict(),
            "critical_path_time_s": report.critical_path_time_s,
        }
        losses[rpc] = [r.loss for r in report.report.epoch_records]

    # The three acceptance properties of owner coalescing:
    assert losses["per-call"] == losses["batched"], "coalescing changed training numerics"
    assert runs["per-call"]["nodes_requested"] == runs["batched"]["nodes_requested"], (
        "per-step fetched-row totals must match exactly"
    )
    assert runs["per-call"]["logical_requests"] == runs["batched"]["logical_requests"]
    assert runs["batched"]["requests"] < runs["per-call"]["requests"], (
        "batched channel must strictly reduce wire requests on hot-halo"
    )
    reduction = 1.0 - runs["batched"]["requests"] / max(1, runs["per-call"]["requests"])
    return {
        "scenario": "hot-halo",
        "scale": scenario_scale,
        "epochs": epochs,
        "per_channel": runs,
        "wire_request_reduction_percent": 100.0 * reduction,
    }


def bench_fetch_throughput(scenario_scale: float, steps: int):
    """Feature rows assembled per second through the buffered hot-halo store."""
    workload = (
        SCENARIOS.build("hot-halo")
        .with_overrides(scale=scenario_scale, epochs=1)
        .materialize(seed=0)
    )
    cluster = workload.cluster
    trainer = cluster.trainers[0]
    store = FeatureStore(
        partition=trainer.partition,
        local_source=LocalKVStoreSource(trainer.rpc),
        halo_source=BufferedSource(
            trainer.rpc,
            trainer.partition,
            workload.scenario.prefetch_config,
            num_global_nodes=cluster.dataset.num_nodes,
            seed=0,
        ),
    )
    store.initialize()
    batches = []
    epoch = iter(trainer.dataloader.epoch())
    for _ in range(steps):
        try:
            batches.append(next(epoch))
        except StopIteration:
            break
    rows = 0
    start = time.perf_counter()
    for minibatch in batches:
        features, _ = store.fetch_minibatch(minibatch)
        rows += features.shape[0]
    elapsed = time.perf_counter() - start
    return {
        "steps": len(batches),
        "rows_fetched": int(rows),
        "seconds_total": elapsed,
        "rows_per_s": rows / elapsed if elapsed > 0 else 0.0,
    }


# --------------------------------------------------------------------------- #
# Part 4: elastic scale-out (migration cost vs. post-join critical path)
# --------------------------------------------------------------------------- #
def bench_elasticity(scenario_scale: float):
    """What the scale-out joins buy (epoch time) and cost (migration bytes).

    The elastic run starts two of four trainers held out and joins them early
    in epoch 0; the baseline keeps the same ranks held out for the whole run
    (the joins stripped from the spec, everything else identical).  Post-join
    epochs must beat the held baseline's — that is the capacity the migration
    bytes paid for.
    """
    from repro.events.schedule import ElasticSpec

    def run(**overrides):
        workload = (
            SCENARIOS.build("scale-out-burst")
            .with_overrides(scale=scenario_scale, **overrides)
            .materialize(seed=0)
        )
        return workload, workload.run()

    elastic_wl, elastic = run()
    spec = elastic_wl.scenario.elastic
    _, held = run(elastic=ElasticSpec(initially_inactive=spec.initially_inactive))
    _, again = run()
    assert elastic.as_dict() == again.as_dict(), (
        "elastic scale-out run must be bit-identical across rebuilds at one seed"
    )

    def epoch_times(report):
        return [r.simulated_time_s for r in report.report.epoch_records]

    def ledger(report, key):
        return sum(t.sync_stats.get(key, 0.0) for t in report.trainer_stats)

    elastic_epochs, held_epochs = epoch_times(elastic), epoch_times(held)
    post_join, held_last = elastic_epochs[-1], held_epochs[-1]
    assert ledger(elastic, "joins") == len(spec.joins), "every scheduled join must land"
    migration_bytes = ledger(elastic, "migration_bytes")
    assert migration_bytes > 0, "joiners must pay for their migrated seed rows"
    assert post_join < held_last, (
        "post-join epoch must beat the held-back baseline's critical path"
    )
    return {
        "scenario": "scale-out-burst",
        "scale": scenario_scale,
        "epochs": len(elastic_epochs),
        "elastic_epoch_times_s": elastic_epochs,
        "held_epoch_times_s": held_epochs,
        "elastic_critical_path_s": elastic.critical_path_time_s,
        "held_critical_path_s": held.critical_path_time_s,
        "post_join_epoch_time_s": post_join,
        "held_last_epoch_time_s": held_last,
        "post_join_improvement_percent": 100.0 * (1.0 - post_join / held_last),
        "migration_bytes": migration_bytes,
        "migration_time_s": ledger(elastic, "migration_s"),
        "joins": ledger(elastic, "joins"),
        "rebalances": ledger(elastic, "rebalances"),
    }


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario-scale", type=float, default=0.05,
                        help="hot-halo dataset scale for the RPC comparison")
    parser.add_argument("--epochs", type=int, default=1, help="hot-halo epochs")
    parser.add_argument("--fetch-steps", type=int, default=8,
                        help="minibatches for the fetch-throughput probe")
    parser.add_argument("--elastic-scale", type=float, default=0.05,
                        help="dataset scale for the elastic scale-out comparison; "
                             "0 skips the section")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the sections as JSON to this file")
    args = parser.parse_args(argv)

    print(f"[1/3] hot-halo RPC: scale {args.scenario_scale}, {args.epochs} epoch(s)")
    rpc = bench_hot_halo_rpc(args.scenario_scale, args.epochs)
    for channel, row in rpc["per_channel"].items():
        print(f"    {channel:>9}: wire requests {int(row['requests']):6d}   "
              f"logical {int(row['logical_requests']):6d}   "
              f"wire rows {int(row['nodes_fetched']):8d}   "
              f"logical rows {int(row['nodes_requested']):8d}")
    print(f"    wire-request reduction: {rpc['wire_request_reduction_percent']:.1f}% "
          f"(identical numerics, identical logical rows)")

    print(f"[2/3] fetch throughput: {args.fetch_steps} buffered hot-halo minibatches")
    fetch = bench_fetch_throughput(args.scenario_scale, args.fetch_steps)
    print(f"    {fetch['rows_per_s']:,.0f} rows/s over {fetch['rows_fetched']} rows")

    elasticity = None
    if args.elastic_scale > 0:
        print(f"[3/3] elasticity: scale-out-burst vs. held-back twin, "
              f"scale {args.elastic_scale}")
        elasticity = bench_elasticity(args.elastic_scale)
        print("    elastic epochs: "
              + "  ".join(f"{t*1e3:.3f}ms" for t in elasticity["elastic_epoch_times_s"]))
        print("    held epochs:    "
              + "  ".join(f"{t*1e3:.3f}ms" for t in elasticity["held_epoch_times_s"]))
        print(f"    post-join improvement: "
              f"{elasticity['post_join_improvement_percent']:.1f}% over held baseline "
              f"({int(elasticity['migration_bytes'])} bytes migrated across "
              f"{elasticity['joins']:.0f} joins)")

    payload = {
        "benchmark": "hotpath",
        "generated_by": "benchmarks/bench_hotpath.py",
        "config": {
            "scenario_scale": args.scenario_scale,
            "epochs": args.epochs,
            "elastic_scale": args.elastic_scale,
        },
        "rpc": rpc,
        "fetch": fetch,
    }
    if elasticity is not None:
        payload["elasticity"] = elasticity
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
