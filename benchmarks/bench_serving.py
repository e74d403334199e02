"""Serving benchmark: latency vs. offered load on the inference engine.

Prints the online-serving dimension the :mod:`repro.serving` subsystem adds.
On the ``steady-poisson`` scenario it sweeps offered load (a set of
multipliers on the scenario's base rate) and records the p50/p95/p99 latency
curve and the SLO-violation rate at base load, then runs the two stress
streams:

* **``flash-crowd-burst``** — 30% of the requests compressed into 5% of the
  horizon.  Queueing theory says the burst tail must sit *above* the steady
  tail at the same average rate (reported as ``p99_exceeds_steady``; asserted
  by ``tests/test_serving.py::TestTailBehavior``);
* **``diurnal-cache-drift``** — square-wave rate with a peak-phase hot-set
  shift, reported with the per-phase latency split.

All reported metrics are simulated times and counters — deterministic given
(seed, config), machine-independent, and pinned at the default sizes by
``tests/golden/behaviour.json`` (section ``serving``);
``tests/test_golden_behaviour.py`` holds the base-load SLO ceiling.

Run::

    PYTHONPATH=src python benchmarks/bench_serving.py

Nothing is written unless ``--out FILE`` asks for the JSON.
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
                             "(must include 1.0, the base-load point)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the section as JSON to this file")
    args = parser.parse_args(argv)
    if 1.0 not in args.load_factors:
        parser.error("--load-factors must include 1.0 (the base-load point)")

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
    print(f"  base-load slo rate {section['slo']['violation_rate_at_base_load']:.3f} "
          f"(slo {section['slo']['slo_ms']:g} ms)")

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

    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
