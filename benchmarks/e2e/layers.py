"""Per-layer metrics: host time from the traced spans beside simulated time from the report.

A layer is a ``src/repro`` package on the run path.  Host numbers are self
times of the spans :mod:`spans` recorded around calls into that package
(``*_host_share`` = self seconds / traced ``run()`` wall); simulated numbers
are the report's ``SimClock`` / ``ComponentAccumulator`` seconds, averaged
over trainers, so the two costs of the same component sit side by side.
A layer that does not run on a workload reports 0 everywhere.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.distributed.rpc import aggregate_rpc_stats
from repro.graph.partition import edge_cut_fraction

from spans import TraceTotals
from workloads import Segment, members

# SimClock component -> the layer whose code the component models.
COMPONENT_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sampling", "sampling"),
    ("lookup", "cache"),
    ("scoring", "core"),
    ("eviction", "core"),
    ("rpc", "distributed"),
    ("copy", "distributed"),
    ("allreduce", "distributed"),
    ("ddp", "nn"),
    ("compute", "nn"),
    ("stall", "events"),
)
LAYERS = ("scenarios", "graph", "sampling", "features", "core", "cache",
          "distributed", "nn", "events", "training", "serving", "utils")


def sim_components(report) -> Dict[str, float]:
    """Simulated seconds per component, mean over trainers/workers.

    Training reports carry the raw per-component sums (what each stage cost
    whether or not overlap hid it); ``stall`` only exists on the clock.
    """
    stats = members(report)
    clock = {
        key: float(np.mean([m.components.get(key, 0.0) for m in stats]))
        for key in {k for m in stats for k in m.components}
    }
    if hasattr(report, "worker_stats"):
        return clock
    out = dict(report.report.component_breakdown)
    out["stall"] = clock.get("stall", 0.0)
    return out


def tier_evictions(report) -> float:
    """Cluster-wide tier evictions; a machine-shared tier counts once per machine.

    Same rule as ``ClusterReport.total_tier_evictions``, which the serving
    report does not have.
    """
    shared: Dict[Tuple[int, str], float] = {}
    total = 0.0
    for member in members(report):
        for key, value in member.cache_stats.items():
            if key.endswith(".evictions"):
                if ".tier.shared." in key:
                    shared[(member.machine, key)] = float(value)
                else:
                    total += float(value)
    return total + sum(shared.values())


def per_layer(seg: Segment, setup: TraceTotals, run: TraceTotals, wall_s: float,
              trace_metrics: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced segment (keys = BENCHMARK.json names)."""
    built, report, ops = seg.built, seg.report, max(seg.ops_done, 1)
    serving = hasattr(report, "worker_stats")
    is_async = getattr(report, "engine", None) == "async"
    sim = sim_components(report)
    tier_rates = report.mean_tier_hit_rates()
    rpc = aggregate_rpc_stats([t.rpc for t in built.cluster.trainers])
    cluster = built.cluster

    def share(seconds: float) -> float:
        return seconds / wall_s

    edges = run.count("sampling.edges")
    rows = run.count("features.rows")
    offered = run.count("cache.offered")
    admit_s = run.method_self_s("cache", "admit")
    prefetching = run.calls("core") > 0
    sync = [m.sync_stats for m in members(report)] if is_async else []

    out = {
        "scenarios.materialize_self_s": setup.self_s("scenarios"),
        "graph.load_s": setup.total_s("graph.load_dataset"),
        "graph.partition_s": setup.total_s("graph.partition_graph"),
        "graph.halo_build_s": setup.total_s("graph.build_partitions"),
        "graph.edge_cut_fraction": edge_cut_fraction(
            built.dataset.graph, cluster.partition_result.parts),
        "graph.halo_nodes": float(sum(len(p.halo_global) for p in cluster.partitions)),

        "sampling.calls": run.calls("sampling"),
        "sampling.host_share": share(run.self_s("sampling")),
        "sampling.host_us_per_op": run.self_s("sampling") / ops * 1e6,
        "sampling.edges_per_op": edges / ops,
        "sampling.sim_s": sim.get("sampling", 0.0),

        "features.fetch_calls": run.method_calls("features", "fetch_minibatch")
        + run.method_calls("features", "fetch"),
        "features.host_share": share(run.self_s("features")),
        "features.rows_per_op": rows / ops,
        "features.halo_rows_share": run.count("features.halo_rows") / max(rows, 1),

        "core.init_s": run.total_s("core.Prefetcher.initialize"),
        "core.step_calls": run.calls("core.Prefetcher.process_minibatch"),
        "core.host_share": share(run.self_s("core")),
        "core.hit_rate": float(report.mean_hit_rate or 0.0) if prefetching else 0.0,
        "core.replaced_per_op": run.count("core.replaced") / ops,
        "core.sim_scoring_s": sim.get("scoring", 0.0),
        "core.sim_eviction_s": sim.get("eviction", 0.0),

        "cache.lookup_calls": run.method_calls("cache", "lookup"),
        "cache.admit_calls": run.method_calls("cache", "admit"),
        "cache.lookup_host_share": share(run.method_self_s("cache", "lookup")),
        "cache.admit_host_share": share(admit_s),
        "cache.admit_us_per_row": admit_s / max(offered, 1) * 1e6,
        "cache.hit_rate_hot": tier_rates.get("halo.tier.hot", 0.0),
        "cache.hit_rate_shared": tier_rates.get("halo.tier.shared", 0.0),
        "cache.evictions_per_op": tier_evictions(report) / ops,
        "cache.admitted_share": run.count("cache.admitted") / max(offered, 1),
        "cache.sim_lookup_s": sim.get("lookup", 0.0) if run.calls("cache") else 0.0,

        "distributed.rpc_calls": run.method_calls("distributed", "remote_pull")
        + run.method_calls("distributed", "local_pull"),
        "distributed.rpc_host_share": share(
            run.method_self_s("distributed", "remote_pull")
            + run.method_self_s("distributed", "local_pull")),
        "distributed.kv_pull_host_share": share(run.method_self_s("distributed", "pull")),
        "distributed.rpc_wire_requests_per_op": rpc.requests / ops,
        "distributed.rpc_wire_over_logical": rpc.nodes_fetched / max(rpc.nodes_requested, 1),
        "distributed.sim_rpc_s": sim.get("rpc", 0.0),
        "distributed.sim_copy_s": sim.get("copy", 0.0),
        "distributed.allreduce_calls": run.calls("distributed.allreduce_gradients"),
        "distributed.allreduce_host_share": share(run.self_s("distributed.allreduce_gradients")),
        "distributed.sim_allreduce_s": sim.get("allreduce", 0.0),

        "nn.forward_host_share": share(run.method_self_s("nn", "forward")),
        "nn.backward_host_share": share(run.method_self_s("nn", "backward")),
        "nn.optim_host_share": share(run.method_self_s("nn", "step")),
        "nn.forward_us_per_edge": run.method_self_s("nn", "forward") / max(edges, 1) * 1e6,
        "nn.flops_per_op": run.count("nn.flops") / ops,
        "nn.sim_compute_s": sim.get("compute" if serving else "ddp", 0.0),
        "nn.final_loss": 0.0 if serving else float(report.report.epoch_records[-1].loss),
        "nn.final_accuracy": 0.0 if serving else float(report.report.final_train_accuracy),

        "events.popped_per_op": run.count("events.popped") / ops,
        "events.host_share": share(run.self_s("events")),
        "events.sim_stall_s": sim.get("stall", 0.0) if is_async else 0.0,
        "events.sim_hidden_sync_s": float(
            np.mean([s.get("hidden_sync_time_s", 0.0) for s in sync])) if sync else 0.0,

        "training.engine_self_share": share(run.method_self_s("training", "run")),
        "training.train_step_self_share": share(run.self_s("training.train_step")),
        "training.sim_barrier_wait_s": 0.0 if serving else float(
            report.total_barrier_wait_s / len(report.trainer_stats)),
        "training.load_imbalance": 0.0 if serving else float(report.load_imbalance),

        "serving.engine_self_share": share(run.method_self_s("serving", "run")),
        "serving.sim_p50_ms": report.latency_ms()["p50"] if serving else 0.0,
        "serving.sim_queue_wait_share": (
            report.component_ms()["queue_wait"]["mean"] / report.latency_ms()["mean"]
            if serving else 0.0),
        "serving.slo_violation_rate": report.slo_violation_rate if serving else 0.0,
        "serving.sim_utilization": report.mean_utilization if serving else 0.0,

        "utils.validation_calls_per_op": run.count("utils.check_1d_int_array") / ops,
    }
    out.update(trace_metrics)
    return {key: float(value) for key, value in out.items()}


def layer_table(run: TraceTotals, report, wall_s: float) -> List[tuple]:
    """Rows ``(layer, host_s, host_share, sim_s, sim_share, components)``: where the
    program's time went next to where the modelled cluster's time went."""
    sim = sim_components(report)
    # Two components change owner with the data path: the membership test is
    # the prefetch buffer's (core) unless cache tiers run, and a stall is the
    # sync policy's (events) unless the lockstep barrier (training) caused it.
    moved = {"lookup": "cache" if run.calls("cache") else "core",
             "stall": "events" if run.calls("events") else "training"}
    by_layer: Dict[str, List[Tuple[str, float]]] = {}
    for component, layer in COMPONENT_LAYER:
        if sim.get(component, 0.0) > 0.0:
            by_layer.setdefault(moved.get(component, layer), []).append(
                (component, sim[component]))
    sim_total = sum(v for parts in by_layer.values() for _, v in parts) or 1.0
    rows = []
    for layer in LAYERS:
        host = run.self_s(layer)
        parts = by_layer.get(layer, [])
        sim_s = sum(v for _, v in parts)
        if host or sim_s:
            rows.append((layer, host, host / wall_s, sim_s, sim_s / sim_total,
                         "+".join(name for name, _ in parts)))
    return rows
