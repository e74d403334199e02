"""CI perf-regression gate: fresh bench output vs. the committed baseline.

Compares a freshly generated hot-path trajectory (``bench_hotpath.py`` +
``bench_cache_tiers.py``/``bench_async_sync.py --merge-into``) against the
committed ``BENCH_hotpath.json`` and fails on hot-path slowdowns.  Every
gated metric is **machine-independent** — wire-request reduction, cache hit
rates, policy hit-rate gains, simulated critical-path reductions, the elastic
migration-byte ledger — and deterministic given the same benchmark config, so
the tolerance bands are tight.  (Host wall time is priced end to end by
``benchmarks/e2e``.)

Throughput-style numbers (rows/s) are reported in the trend artifact
but never gated: comparing wall-clock across unrelated machines would make
the gate flaky without catching anything the ratios miss.

The verdict plus every check's numbers land in ``--trend-out`` (uploaded as a
CI artifact), so the trajectory of each metric is inspectable per run.

Run::

    PYTHONPATH=src python benchmarks/check_perf_regression.py \\
        --baseline BENCH_hotpath.json --fresh /tmp/fresh.json \\
        --trend-out /tmp/perf_trend.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


class Check:
    def __init__(self, name: str, baseline: Optional[float], fresh: Optional[float],
                 threshold: float, passed: bool, note: str = ""):
        self.name = name
        self.baseline = baseline
        self.fresh = fresh
        self.threshold = threshold
        self.passed = passed
        self.note = note

    def as_dict(self):
        return {
            "name": self.name,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "threshold": self.threshold,
            "passed": self.passed,
            "note": self.note,
        }


def _get(tree: dict, path: str):
    node = tree
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def run_checks(baseline: dict, fresh: dict,
               reduction_abs: float, hit_abs: float, min_hit_gain: float,
               min_async_reduction: float = 0.5,
               latency_ratio: float = 1.05,
               min_tune_gain: float = 0.5) -> List[Check]:
    checks: List[Check] = []

    # ---- RPC coalescing: deterministic counters, tight band ----
    path = "rpc.wire_request_reduction_percent"
    base, now = _get(baseline, path), _get(fresh, path)
    if base is not None and now is not None:
        threshold = base - reduction_abs
        checks.append(Check(
            "rpc.wire_request_reduction_percent", base, now, threshold, now >= threshold,
            "counter-derived: identical config must reproduce the reduction",
        ))
    per_call = _get(fresh, "rpc.per_channel.per-call.requests")
    batched = _get(fresh, "rpc.per_channel.batched.requests")
    if per_call is not None and batched is not None:
        checks.append(Check(
            "rpc.batched_strictly_fewer_wire_requests", per_call, batched,
            per_call, batched < per_call,
            "hard floor: coalescing must reduce wire requests on hot-halo",
        ))

    # ---- cache tiers: deterministic hit rates, tight band ----
    path = "cache_tiers.drift_scenario.best_non_default.hit_gain_over_static"
    base, now = _get(baseline, path), _get(fresh, path)
    if now is not None:
        threshold = max(min_hit_gain, (base - hit_abs) if base is not None else min_hit_gain)
        checks.append(Check(
            "cache.drift_hit_gain_over_static", base, now, threshold, now >= threshold,
            "a non-default tier policy must keep beating static-degree on hot-set-drift",
        ))
    for scen_key, label in (("drift_scenario", "drift"), ("churn_scenario", "churn")):
        base_cfgs = _get(baseline, f"cache_tiers.{scen_key}.per_config") or {}
        fresh_cfgs = _get(fresh, f"cache_tiers.{scen_key}.per_config") or {}
        for name in sorted(set(base_cfgs) & set(fresh_cfgs)):
            base_hit = base_cfgs[name].get("mean_hit_rate")
            now_hit = fresh_cfgs[name].get("mean_hit_rate")
            if base_hit is None or now_hit is None:
                continue
            threshold = base_hit - hit_abs
            checks.append(Check(
                f"cache.{label}.{name}.mean_hit_rate", base_hit, now_hit, threshold,
                now_hit >= threshold,
                "deterministic at fixed seed/config; only real behavior changes move it",
            ))
        # The scored policy must beat both degree heuristics on every
        # cache scenario — the ROADMAP item 2 acceptance gate.
        scored_hit = (fresh_cfgs.get("scored") or {}).get("mean_hit_rate")
        if scored_hit is None:
            continue
        for rival in ("static-degree", "degree-weighted"):
            rival_hit = (fresh_cfgs.get(rival) or {}).get("mean_hit_rate")
            if rival_hit is None:
                continue
            threshold = rival_hit + min_hit_gain
            checks.append(Check(
                f"cache.{label}.scored_beats_{rival}", rival_hit, scored_hit,
                threshold, scored_hit >= threshold,
                "hard floor: the scored policy must beat the degree heuristic's "
                "hit rate on this scenario",
            ))

    # ---- async sync policies: simulated times, deterministic, tight band ----
    matches = _get(fresh, "async_sync.straggler.async_barrier_matches_lockstep")
    if matches is not None:
        checks.append(Check(
            "async.barrier_bit_matches_lockstep", None,
            1.0 if matches else 0.0, 1.0, bool(matches),
            "hard invariant: the event backend's barrier mode must reproduce the "
            "lockstep critical path",
        ))
    path = "async_sync.straggler.best_bounded_staleness.reduction_percent"
    base, now = _get(baseline, path), _get(fresh, path)
    if now is not None:
        checks.append(Check(
            "async.bounded_staleness_reduces_critical_path", None, now,
            min_async_reduction, now >= min_async_reduction,
            "hard floor: bounded staleness must strictly beat the lockstep "
            "critical path on the straggler scenario",
        ))
        if base is not None:
            threshold = base - reduction_abs
            checks.append(Check(
                "async.staleness_reduction_vs_baseline", base, now, threshold,
                now >= threshold,
                "simulated-time ratio: identical config must reproduce the reduction",
            ))

    # ---- serving: simulated latencies, deterministic, tight band ----
    exceeds = _get(fresh, "serving.flash_crowd.p99_exceeds_steady")
    if exceeds is not None:
        checks.append(Check(
            "serving.flash_crowd_p99_exceeds_steady", None,
            1.0 if exceeds else 0.0, 1.0, bool(exceeds),
            "hard invariant: burst queueing must push the p99 tail above the "
            "steady stream's at the same average rate",
        ))
    slo_rate = _get(fresh, "serving.slo.violation_rate_at_base_load")
    slo_max = _get(fresh, "serving.slo.max_allowed")
    if slo_rate is not None and slo_max is not None:
        checks.append(Check(
            "serving.slo_violation_rate_at_base_load", None, slo_rate, slo_max,
            slo_rate <= slo_max,
            "hard ceiling: the steady stream at base load must meet its declared SLO",
        ))
    base_curve = {p.get("load_factor"): p
                  for p in (_get(baseline, "serving.latency_curve") or [])}
    fresh_curve = {p.get("load_factor"): p
                   for p in (_get(fresh, "serving.latency_curve") or [])}
    for factor in sorted(set(base_curve) & set(fresh_curve)):
        base_p99 = base_curve[factor].get("p99_ms")
        now_p99 = fresh_curve[factor].get("p99_ms")
        if base_p99 is None or now_p99 is None:
            continue
        threshold = base_p99 * latency_ratio
        checks.append(Check(
            f"serving.p99_ms_at_load_x{factor:g}", base_p99, now_p99, threshold,
            now_p99 <= threshold,
            "simulated latency, deterministic at fixed seed/config; growth past "
            "the band is a real hot-path regression",
        ))

    # ---- tuning: the sweep's best must keep beating the scenario default ----
    identical = _get(fresh, "tuning.reports_bit_identical")
    if identical is not None:
        checks.append(Check(
            "tune.same_seed_runs_bit_identical", None,
            1.0 if identical else 0.0, 1.0, bool(identical),
            "hard invariant: same-seed tune runs must produce byte-identical "
            "ranked reports and preset files",
        ))
    for leg in ("training", "serving"):
        path = f"tuning.{leg}.improvement_percent"
        base, now = _get(baseline, path), _get(fresh, path)
        if now is None:
            continue
        checks.append(Check(
            f"tune.{leg}.best_beats_default", None, now, min_tune_gain,
            now >= min_tune_gain,
            "hard floor (percent): the tuner's best config must beat the "
            "scenario default on its declared objective",
        ))
        if base is not None:
            threshold = base - reduction_abs
            checks.append(Check(
                f"tune.{leg}.improvement_vs_baseline", base, now, threshold,
                now >= threshold,
                "simulated-score ratio: identical config must reproduce the gain",
            ))

    # ---- elasticity: simulated times + deterministic migration ledger ----
    path = "elasticity.post_join_improvement_percent"
    base, now = _get(baseline, path), _get(fresh, path)
    if now is not None:
        checks.append(Check(
            "elastic.post_join_beats_held_baseline", None, now, 0.0, now > 0.0,
            "hard floor: epochs after the scale-out joins must beat the "
            "held-back baseline's critical path",
        ))
        if base is not None:
            threshold = base - reduction_abs
            checks.append(Check(
                "elastic.post_join_improvement_vs_baseline", base, now, threshold,
                now >= threshold,
                "simulated-time ratio: identical config must reproduce the improvement",
            ))
    path = "elasticity.migration_bytes"
    base, now = _get(baseline, path), _get(fresh, path)
    if base is not None and now is not None:
        checks.append(Check(
            "elastic.migration_bytes_deterministic", base, now, base, now == base,
            "counter-derived: the migrated-row ledger is exact at fixed seed/config",
        ))
    return checks


def report_only_metrics(fresh: dict) -> dict:
    """Machine-dependent throughput numbers carried in the trend, never gated."""
    return {
        "fetch.rows_per_s": _get(fresh, "fetch.rows_per_s"),
        "cache_tiers.churn.mean_hit_rate": _get(
            fresh, "cache_tiers.churn_scenario.mean_hit_rate"
        ),
        "async_sync.straggler.staleness_curve": _get(
            fresh, "async_sync.straggler.staleness_curve"
        ),
        "serving.latency_curve": _get(fresh, "serving.latency_curve"),
        "serving.diurnal.phase_p99_ms": _get(fresh, "serving.diurnal.phase_p99_ms"),
        "elasticity.elastic_epoch_times_s": _get(
            fresh, "elasticity.elastic_epoch_times_s"
        ),
        "elasticity.held_epoch_times_s": _get(fresh, "elasticity.held_epoch_times_s"),
        "tuning.training.best_overrides": _get(fresh, "tuning.training.best_overrides"),
        "tuning.serving.best_overrides": _get(fresh, "tuning.serving.best_overrides"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=Path("BENCH_hotpath.json"),
                        help="committed trajectory file (the regression baseline)")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="freshly generated trajectory file to validate")
    parser.add_argument("--trend-out", type=Path, default=Path("perf_trend.json"),
                        help="where to write the trend/verdict artifact")
    parser.add_argument("--reduction-tolerance", type=float, default=1.0,
                        help="allowed absolute drop in wire-request reduction percent")
    parser.add_argument("--hit-tolerance", type=float, default=0.02,
                        help="allowed absolute drop in cache hit-rate metrics")
    parser.add_argument("--min-hit-gain", type=float, default=0.005,
                        help="hard floor for the drift-scenario policy gain and for "
                             "scored's margin over both degree heuristics on "
                             "hot-set-drift and cache-churn")
    parser.add_argument("--min-async-reduction", type=float, default=0.5,
                        help="hard floor (percent) for bounded-staleness "
                             "critical-path reduction on the straggler scenario")
    parser.add_argument("--latency-tolerance", type=float, default=1.05,
                        help="fresh serving p99 at each load point must stay within "
                             "this multiple of the baseline's")
    parser.add_argument("--min-tune-gain", type=float, default=0.5,
                        help="hard floor (percent) for the tuner's best-config "
                             "improvement over the scenario default on both "
                             "bench_tune legs")
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"FAIL: baseline {args.baseline} does not exist; commit a trajectory "
              f"(bench_hotpath.py + bench_cache_tiers.py --merge-into)", file=sys.stderr)
        return 1
    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())

    checks = run_checks(
        baseline, fresh,
        reduction_abs=args.reduction_tolerance,
        hit_abs=args.hit_tolerance,
        min_hit_gain=args.min_hit_gain,
        min_async_reduction=args.min_async_reduction,
        latency_ratio=args.latency_tolerance,
        min_tune_gain=args.min_tune_gain,
    )
    failed = [c for c in checks if not c.passed]
    for check in checks:
        status = "ok  " if check.passed else "FAIL"
        base = "-" if check.baseline is None else f"{check.baseline:.4f}"
        print(f"  [{status}] {check.name}: fresh={check.fresh:.4f} baseline={base} "
              f"threshold={check.threshold:.4f}")

    trend = {
        "baseline_file": str(args.baseline),
        "fresh_file": str(args.fresh),
        "checks": [c.as_dict() for c in checks],
        "report_only": report_only_metrics(fresh),
        "verdict": "pass" if not failed else "fail",
    }
    args.trend_out.write_text(json.dumps(trend, indent=2, sort_keys=True) + "\n")
    print(f"trend written to {args.trend_out}")

    if failed:
        print(f"FAIL: {len(failed)} perf-regression check(s) failed: "
              + ", ".join(c.name for c in failed), file=sys.stderr)
        return 1
    print(f"all {len(checks)} perf-regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
