"""Serving benchmark: latency vs. offered load on the inference engine.

Extends the repository's perf trajectory (``BENCH_hotpath.json``) with the
online-serving dimension the :mod:`repro.serving` subsystem adds.  On the
``steady-poisson`` scenario it sweeps offered load (a set of multipliers on
the scenario's base rate) and records the p50/p95/p99 latency curve, then
runs the two stress streams:

* **``flash-crowd-burst``** — 30% of the requests compressed into 5% of the
  horizon.  Queueing theory says the burst tail must sit *above* the steady
  tail at the same average rate; the script exits nonzero if it does not
  (the invariant is re-checked by ``check_perf_regression.py`` against the
  committed trajectory);
* **``diurnal-cache-drift``** — square-wave rate with a peak-phase hot-set
  shift, reported with the per-phase latency split.

The SLO gate: at the scenario's base load the steady stream's SLO-violation
rate must stay at or below ``--max-slo-rate`` (the declared threshold carried
into the trajectory as ``slo.max_allowed``).

All reported metrics are simulated times and counters — deterministic given
(seed, config), machine-independent, so the regression gate holds the curve
to a tight band.

Run::

    PYTHONPATH=src python benchmarks/bench_serving.py \\
        --merge-into BENCH_hotpath.json

``--merge-into`` updates the named trajectory file in place (adding/replacing
its ``"serving"`` section); ``--out`` writes a standalone JSON instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.scenarios import SCENARIOS


def run_serving(scenario_name: str, scale: float, seed: int, **spec_overrides):
    scenario = SCENARIOS.build(scenario_name)
    spec = scenario.serving.with_overrides(**spec_overrides)
    workload = scenario.with_overrides(scale=scale, serving=spec).materialize(seed=seed)
    return workload.run()


def curve_point(report, load_factor: float) -> dict:
    latency = report.latency_ms()
    return {
        "load_factor": load_factor,
        "offered_rps": report.offered_rate_rps,
        "throughput_rps": report.throughput_rps,
        "p50_ms": latency["p50"],
        "p95_ms": latency["p95"],
        "p99_ms": latency["p99"],
        "mean_ms": latency["mean"],
        "slo_violation_rate": report.slo_violation_rate,
        "mean_utilization": report.mean_utilization,
    }


def stress_entry(report) -> dict:
    latency = report.latency_ms()
    out = {
        "p50_ms": latency["p50"],
        "p95_ms": latency["p95"],
        "p99_ms": latency["p99"],
        "throughput_rps": report.throughput_rps,
        "slo_violation_rate": report.slo_violation_rate,
        "mean_utilization": report.mean_utilization,
    }
    if report.mean_hit_rate is not None:
        out["mean_hit_rate"] = report.mean_hit_rate
    phase = report.phase_latency_ms()
    if phase:
        out["phase_p99_ms"] = {name: summary["p99"] for name, summary in phase.items()}
    return out


def bench_serving_load(scenario: str, scale: float, requests: int, seed: int,
                       load_factors=(0.4, 1.0, 1.6)) -> dict:
    """Latency-vs-load curve on *scenario* plus the two stress streams."""
    base_spec = SCENARIOS.build(scenario).serving
    curve = [
        curve_point(
            run_serving(scenario, scale=scale, seed=seed,
                        rate_rps=base_spec.rate_rps * factor, num_requests=requests),
            factor,
        )
        for factor in load_factors
    ]
    base_point = next(point for point in curve if point["load_factor"] == 1.0)

    flash = stress_entry(run_serving("flash-crowd-burst", scale=scale, seed=seed,
                                     num_requests=requests))
    flash["steady_p99_ms"] = base_point["p99_ms"]
    flash["p99_exceeds_steady"] = bool(flash["p99_ms"] > base_point["p99_ms"])
    diurnal = stress_entry(run_serving("diurnal-cache-drift", scale=scale, seed=seed,
                                       num_requests=requests))
    return {
        "latency_curve": curve,
        "flash_crowd": flash,
        "diurnal": diurnal,
        "slo": {
            "slo_ms": base_spec.slo_ms,
            "violation_rate_at_base_load": base_point["slo_violation_rate"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="steady-poisson",
                        help="base serving scenario for the load sweep")
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SCALE", 0.05)))
    parser.add_argument("--requests", type=int,
                        default=int(os.environ.get("REPRO_BENCH_REQUESTS", 256)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--load-factors", type=float, nargs="+",
                        default=[0.4, 1.0, 1.6],
                        help="offered-load multipliers on the scenario's base rate "
                             "(must include 1.0, the SLO-gate point)")
    parser.add_argument("--max-slo-rate", type=float, default=0.02,
                        help="gate: steady-stream SLO-violation rate at base load "
                             "must stay at or below this")
    parser.add_argument("--out", type=Path,
                        default=Path("benchmarks/results/BENCH_serving.json"),
                        help="standalone output file (ignored with --merge-into)")
    parser.add_argument("--merge-into", type=Path, default=None,
                        help="merge the serving section into this trajectory file")
    args = parser.parse_args(argv)

    if 1.0 not in args.load_factors:
        print("FAIL: --load-factors must include 1.0 (the SLO-gate point)",
              file=sys.stderr)
        return 1

    base_rate = SCENARIOS.build(args.scenario).serving.rate_rps
    print(f"[serving] scenario={args.scenario} scale={args.scale} "
          f"requests={args.requests} base_rate={base_rate:g} rps")
    section = bench_serving_load(args.scenario, args.scale, args.requests, args.seed,
                                 args.load_factors)
    for point in section["latency_curve"]:
        print(f"  load x{point['load_factor']:g} ({point['offered_rps']:g} rps): "
              f"p50 {point['p50_ms']:.3f} p95 {point['p95_ms']:.3f} "
              f"p99 {point['p99_ms']:.3f} ms, "
              f"slo rate {point['slo_violation_rate']:.3f}, "
              f"util {point['mean_utilization']:.3f}")
    flash, diurnal = section["flash_crowd"], section["diurnal"]
    print(f"  flash-crowd-burst: p99 {flash['p99_ms']:.3f} ms "
          f"(steady {flash['steady_p99_ms']:.3f} ms), "
          f"slo rate {flash['slo_violation_rate']:.3f}")
    print(f"  diurnal-cache-drift: p99 {diurnal['p99_ms']:.3f} ms, "
          f"phase p99 {diurnal.get('phase_p99_ms', {})}")

    section["slo"]["max_allowed"] = args.max_slo_rate
    base_slo_rate = section["slo"]["violation_rate_at_base_load"]
    payload = {
        "benchmark": "serving",
        "generated_by": "benchmarks/bench_serving.py",
        "config": {
            "scenario": args.scenario,
            "scale": args.scale,
            "requests": args.requests,
            "seed": args.seed,
            "base_rate_rps": base_rate,
            "load_factors": list(args.load_factors),
        },
        **section,
    }

    if args.merge_into is not None:
        trajectory = {}
        if args.merge_into.exists():
            trajectory = json.loads(args.merge_into.read_text())
        trajectory["serving"] = payload
        args.merge_into.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
        print(f"merged serving section into {args.merge_into}")
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    failed = False
    if not flash["p99_exceeds_steady"]:
        print(f"FAIL: flash-crowd p99 {flash['p99_ms']:.3f} ms does not exceed the "
              f"steady p99 {flash['steady_p99_ms']:.3f} ms — burst queueing has "
              f"vanished from the model", file=sys.stderr)
        failed = True
    if base_slo_rate > args.max_slo_rate:
        print(f"FAIL: steady SLO-violation rate {base_slo_rate:.3f} "
              f"at base load exceeds the declared {args.max_slo_rate:g} threshold",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"serving gates ok: flash p99 {flash['p99_ms']:.3f} > steady "
          f"{flash['steady_p99_ms']:.3f} ms; base-load slo rate "
          f"{base_slo_rate:.3f} <= {args.max_slo_rate:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
