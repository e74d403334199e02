"""Async execution benchmark: critical-path time vs. gradient-sync policy.

Prints the asynchrony dimension the event-driven backend adds.  On the
``straggler-machine`` scenario (machine 0 computes 2.5x slower) it runs:

* the **lockstep** engine — the bulk-synchronous baseline every policy is
  measured against;
* the **async engine with ``allreduce-barrier``** — must match the lockstep
  critical path to ~1e-9 relative (reported as
  ``async_barrier_matches_lockstep``; whole-report bit-identity is
  ``tests/test_async_engine.py::TestBarrierBitIdentity``);
* **``bounded-staleness``** at several K — the critical-path-vs-staleness
  curve.  Trainers stop idling at barriers and the per-round collective is an
  async push hidden behind compute, so the critical path comes out *strictly
  below* lockstep (``TestBoundedStaleness::
  test_strictly_reduces_straggler_critical_path``);
* **``local-sgd``** at several H — sparse model averaging as the second
  async policy.

All reported metrics are simulated times and counters — deterministic given
(seed, config), machine-independent, and pinned at the default sizes by
``tests/golden/behaviour.json`` (section ``async_sync``).

Run::

    PYTHONPATH=src python benchmarks/bench_async_sync.py

Nothing is written unless ``--out FILE`` asks for the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.scenarios import build_scenario
from repro.training.config import TrainConfig

REL_TOL = 1e-9


def run_workload(scenario_name: str, scale: float, epochs: int, seed: int, **overrides):
    workload = build_scenario(
        scenario_name,
        seed=seed,
        scale=scale,
        epochs=epochs,
        train_config=TrainConfig(epochs=epochs, hidden_dim=32, seed=seed),
        **overrides,
    )
    return workload.run()


def summarize(report) -> dict:
    out = {
        "critical_path_time_s": report.critical_path_time_s,
        "total_barrier_wait_s": report.total_barrier_wait_s,
        "load_imbalance": report.load_imbalance,
        "final_train_accuracy": report.report.final_train_accuracy,
        "num_minibatches": report.report.num_minibatches,
    }
    staleness_wait = sum(
        t.sync_stats.get("staleness_wait_s", 0.0) for t in report.trainer_stats
    )
    hidden = sum(t.sync_stats.get("hidden_sync_time_s", 0.0) for t in report.trainer_stats)
    if staleness_wait:
        out["staleness_wait_s"] = staleness_wait
    if hidden:
        out["hidden_sync_time_s"] = hidden
    return out


def bench_sync_policies(scenario: str, scale: float, epochs: int, seed: int,
                        staleness=(0, 1, 2, 4), sync_periods=(2, 4)) -> dict:
    """Lockstep vs. every async sync policy on *scenario* (the ``straggler`` section)."""
    common = dict(scale=scale, epochs=epochs, seed=seed)
    lockstep = run_workload(scenario, engine="lockstep", **common)
    lock_crit = lockstep.critical_path_time_s
    barrier = run_workload(scenario, engine="async", sync="allreduce-barrier", **common)
    barrier_crit = barrier.critical_path_time_s
    matches = abs(barrier_crit - lock_crit) <= REL_TOL * max(abs(barrier_crit), abs(lock_crit))

    per_policy = {}
    for sync, option, label, values in (
        ("bounded-staleness", "staleness", "bounded-staleness-k", staleness),
        ("local-sgd", "sync_period", "local-sgd-h", sync_periods),
    ):
        for value in values:
            report = run_workload(scenario, engine="async", sync=sync,
                                  **{option: value}, **common)
            entry = summarize(report)
            entry["reduction_percent"] = (
                100.0 * (lock_crit - entry["critical_path_time_s"]) / lock_crit
            )
            per_policy[f"{label}{value}"] = entry

    curve = [
        {"staleness": k,
         **{key: per_policy[f"bounded-staleness-k{k}"][key]
            for key in ("critical_path_time_s", "reduction_percent", "total_barrier_wait_s")}}
        for k in staleness
    ]
    best_name = max((f"bounded-staleness-k{k}" for k in staleness),
                    key=lambda name: per_policy[name]["reduction_percent"])
    best = per_policy[best_name]
    return {
        "lockstep": summarize(lockstep),
        "async_barrier_matches_lockstep": bool(matches),
        "per_policy": per_policy,
        "staleness_curve": curve,
        "best_bounded_staleness": {
            "name": best_name,
            "reduction_percent": best["reduction_percent"],
            "critical_path_time_s": best["critical_path_time_s"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="straggler-machine",
                        help="base scenario to sweep sync policies over")
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SCALE", 0.05)))
    parser.add_argument("--epochs", type=int,
                        default=int(os.environ.get("REPRO_BENCH_EPOCHS", 2)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--staleness", type=int, nargs="+", default=[0, 1, 2, 4],
                        help="bounded-staleness K values to sweep")
    parser.add_argument("--sync-periods", type=int, nargs="+", default=[2, 4],
                        help="local-sgd H values to sweep")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the section as JSON to this file")
    args = parser.parse_args(argv)

    print(f"[async_sync] scenario={args.scenario} scale={args.scale} epochs={args.epochs}")
    section = bench_sync_policies(args.scenario, args.scale, args.epochs, args.seed,
                                  args.staleness, args.sync_periods)
    lockstep = section["lockstep"]
    print(f"  {'lockstep':<22} critical path {lockstep['critical_path_time_s']:.6f}s "
          f"(barrier wait {lockstep['total_barrier_wait_s']:.6f}s)")
    print(f"  {'async barrier':<22} matches lockstep: "
          f"{section['async_barrier_matches_lockstep']}")
    for name, entry in section["per_policy"].items():
        print(f"  {name:<22} critical path {entry['critical_path_time_s']:.6f}s "
              f"({entry['reduction_percent']:+.2f}% vs lockstep)")
    best = section["best_bounded_staleness"]
    print(f"  best bounded-staleness: {best['name']} "
          f"({best['reduction_percent']:+.2f}% critical path)")

    payload = {
        "benchmark": "async_sync",
        "generated_by": "benchmarks/bench_async_sync.py",
        "config": {
            "scenario": args.scenario,
            "scale": args.scale,
            "epochs": args.epochs,
            "seed": args.seed,
            "staleness_sweep": list(args.staleness),
            "sync_period_sweep": list(args.sync_periods),
        },
        "straggler": section,
    }

    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
