"""Async execution benchmark: critical-path time vs. gradient-sync policy.

Extends the repository's perf trajectory (``BENCH_hotpath.json``) with the
asynchrony dimension the event-driven backend adds.  On the
``straggler-machine`` scenario (machine 0 computes 2.5x slower) it runs:

* the **lockstep** engine — the bulk-synchronous baseline every policy is
  measured against;
* the **async engine with ``allreduce-barrier``** — must match the lockstep
  critical path to ~1e-9 relative (the differential sanity check; a mismatch
  fails the script immediately);
* **``bounded-staleness``** at several K — the critical-path-vs-staleness
  curve.  Trainers stop idling at barriers and the per-round collective is an
  async push hidden behind compute, so the critical path must come out
  *strictly below* lockstep: the script exits nonzero unless the best K beats
  the lockstep critical path by ``--min-reduction`` percent (the CI gate,
  enforced again by ``check_perf_regression.py`` against the committed
  trajectory);
* **``local-sgd``** at several H — sparse model averaging as the second
  async policy.

All reported metrics are simulated times and counters — deterministic given
(seed, config), machine-independent, so the regression gate holds them to a
tight band.

Run::

    PYTHONPATH=src python benchmarks/bench_async_sync.py \\
        --merge-into BENCH_hotpath.json

``--merge-into`` updates the named trajectory file in place (adding/replacing
its ``"async_sync"`` section); ``--out`` writes a standalone JSON instead.
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
    best_name, best = max(
        ((name, e) for name, e in per_policy.items() if name.startswith("bounded-staleness")),
        key=lambda item: item[1]["reduction_percent"],
    )
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
    parser.add_argument("--min-reduction", type=float, default=0.5,
                        help="gate: best bounded-staleness critical-path reduction "
                             "must beat lockstep by at least this percent")
    parser.add_argument("--out", type=Path, default=Path("benchmarks/results/BENCH_async_sync.json"),
                        help="standalone output file (ignored with --merge-into)")
    parser.add_argument("--merge-into", type=Path, default=None,
                        help="merge the async_sync section into this trajectory file")
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
    if not section["async_barrier_matches_lockstep"]:
        print("FAIL: async allreduce-barrier must reproduce the lockstep critical "
              "path; the event backend has drifted", file=sys.stderr)
        return 1

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

    if args.merge_into is not None:
        trajectory = {}
        if args.merge_into.exists():
            trajectory = json.loads(args.merge_into.read_text())
        trajectory["async_sync"] = payload
        args.merge_into.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
        print(f"merged async_sync section into {args.merge_into}")
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if best["reduction_percent"] < args.min_reduction:
        print(f"FAIL: best bounded-staleness reduction "
              f"{best['reduction_percent']:.2f}% < required {args.min_reduction}% — "
              f"asynchrony no longer pays on the straggler scenario", file=sys.stderr)
        return 1
    print(f"async_sync gate ok: {best['reduction_percent']:.2f}% >= {args.min_reduction}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
