"""Tiered feature-cache benchmark: policy hit-rate curves + fetch latency.

Prints the cache dimension the tier subsystem adds.  Every number but the
drift stream's ``seconds_total`` is simulated and pinned by
``tests/golden/behaviour.json`` (section ``cache_tiers``):

* **drift stream** — a synthetic drifting-Zipf request stream driven straight
  through :class:`~repro.cache.stack.TieredFeatureCache`, one run per
  eviction policy (``none``/static, ``lru``, ``lfu``, ``clock``,
  ``degree-weighted``, ``scored``).  Isolates policy quality from training
  noise and charts per-phase hit-rate curves.
* **hot-set-drift scenario** — full cluster runs of the ``hot-set-drift``
  scenario under the default static-degree config, an LRU single tier, the
  two-tier adaptive stack, and the degree-weighted and scored two-tier
  variants; reports per-epoch hit-rate curves, simulated fetch latency, and
  RPC bytes.  That some non-default policy beats the static default's mean
  hit rate, and that ``scored`` beats **both** degree heuristics
  (``static-degree`` and ``degree-weighted``), each by 0.005, is asserted by
  ``tests/test_golden_behaviour.py``.
* **cache-churn scenario** — runs the undersized two-tier workload once per
  competing config (plus the scenario default) and records hit rates,
  eviction churn, and controller adjustments; the scored-beats-both test
  applies here too.

Run::

    PYTHONPATH=src python benchmarks/bench_cache_tiers.py

Nothing is written unless ``--out FILE`` asks for the JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.stack import TieredFeatureCache
from repro.cache.tier import CacheTier
from repro.scenarios import SCENARIOS

DRIFT_POLICIES = ("none", "lru", "lfu", "clock", "degree-weighted", "scored")

SCENARIO_CONFIGS = {
    # The default recipe: static-degree single tier (the decaying baseline).
    "static-degree": CacheConfig(),
    "lru": CacheConfig(admission="always", eviction="lru"),
    "two-tier-adaptive": CacheConfig(
        tiers=2, admission="always", eviction="lru", hot_fraction=0.25, adaptive=True
    ),
    # The two degree heuristics vs. the scored policy, all on the same
    # two-tier adaptive stack so the comparison isolates policy quality
    # (static-degree above covers the single-tier degree heuristic).
    "degree-weighted": CacheConfig(
        tiers=2, admission="degree-weighted", eviction="degree-weighted",
        hot_fraction=0.25, adaptive=True,
    ),
    "scored": CacheConfig(
        tiers=2, admission="scored", eviction="scored",
        shared_admission="scored", shared_eviction="scored",
        hot_fraction=0.25, adaptive=True,
    ),
}

# The scored policy must beat both degree heuristics on both scenarios.
SCORED_RIVALS = ("static-degree", "degree-weighted")


# --------------------------------------------------------------------------- #
# Part 1: synthetic drifting-Zipf stream through the tier stack
# --------------------------------------------------------------------------- #
def drift_stream(num_ids: int, requests_per_phase: int, phases: int,
                 hot_size: int, seed: int):
    """Zipf-ish requests over a hot window that shifts every phase."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, hot_size + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    for phase in range(phases):
        start = (phase * hot_size // 2) % num_ids
        hot_ids = (start + np.arange(hot_size)) % num_ids
        for _ in range(requests_per_phase):
            batch = rng.choice(hot_ids, size=64, p=weights)
            yield phase, np.unique(batch)


def bench_drift_stream(num_ids: int, capacity: int, requests_per_phase: int,
                       phases: int, seed: int):
    dim = 16
    server = np.arange(num_ids * dim, dtype=np.float32).reshape(num_ids, dim)
    degrees = np.argsort(np.argsort(-np.arange(num_ids)))  # descending with id

    results = {}
    for policy in DRIFT_POLICIES:
        if policy == "none":
            admission = "static-degree"
        elif policy == "scored":
            admission = "scored"
        else:
            admission = "always"
        tier = CacheTier(
            "hot", capacity, dim,
            admission=admission, eviction=policy,
            degree_of=lambda ids: degrees[ids],
        )
        fetched = {"rows": 0}

        def fetch(ids, fetched=fetched):
            fetched["rows"] += len(ids)
            return server[ids], 0.0

        stack = TieredFeatureCache([tier], fetch, dim)
        # Static tiers get the degree-ranked preload the static-cache source
        # uses; dynamic tiers warm up from their own misses.
        if policy == "none":
            top = np.sort(np.argsort(-degrees)[:capacity])
            tier.seed(top, server[top])

        phase_hits = np.zeros(phases, dtype=np.int64)
        phase_total = np.zeros(phases, dtype=np.int64)
        step = 0
        start_t = time.perf_counter()
        for phase, batch in drift_stream(
            num_ids, requests_per_phase, phases, hot_size=capacity, seed=seed
        ):
            rows, result = stack.fetch(batch, step)
            np.testing.assert_array_equal(rows, server[batch])
            phase_hits[phase] += result.num_hits
            phase_total[phase] += result.num_requested
            step += 1
        elapsed = time.perf_counter() - start_t

        curve = (phase_hits / np.maximum(1, phase_total)).round(4).tolist()
        results[policy] = {
            "hit_rate_curve": curve,
            "mean_hit_rate": float(phase_hits.sum() / max(1, phase_total.sum())),
            "rows_fetched_below": int(fetched["rows"]),
            "evictions": int(tier.stats.evictions),
            "seconds_total": elapsed,
        }
    return {
        "num_ids": num_ids,
        "capacity": capacity,
        "phases": phases,
        "requests_per_phase": requests_per_phase,
        "per_policy": results,
    }


# --------------------------------------------------------------------------- #
# Part 2: hot-set-drift scenario across cache configs
# --------------------------------------------------------------------------- #
def bench_drift_scenario(scale: float, epochs: int, seed: int):
    runs = {}
    for name, cache_config in SCENARIO_CONFIGS.items():
        workload = (
            SCENARIOS.build("hot-set-drift")
            .with_overrides(scale=scale, epochs=epochs)
            .materialize(seed=seed)
        )
        report = workload.run(cache_config=cache_config)
        rpc = report.report.rpc_stats
        runs[name] = {
            "cache_config": cache_config.describe(),
            "mean_hit_rate": report.mean_hit_rate,
            "hit_rate_curve": [
                round(r.hit_rate, 6) if r.hit_rate is not None else None
                for r in report.report.epoch_records
            ],
            "critical_path_time_s": report.critical_path_time_s,
            "fetch_latency_s": rpc.simulated_time_s,
            "rpc_bytes": int(rpc.bytes_fetched),
            "tier_hit_rates": report.mean_tier_hit_rates(),
            "tier_evictions": report.total_tier_evictions,
        }
    return {"scenario": "hot-set-drift", "scale": scale, "epochs": epochs, "per_config": runs}


def bench_churn_scenario(scale: float, epochs: int, seed: int):
    def one_run(cache_config):
        workload = (
            SCENARIOS.build("cache-churn")
            .with_overrides(scale=scale, epochs=epochs)
            .materialize(seed=seed)
        )
        report = workload.run(cache_config=cache_config)
        store = report.store_summary
        return {
            "cache_config": (
                "scenario default" if cache_config is None else cache_config.describe()
            ),
            "mean_hit_rate": report.mean_hit_rate,
            "tier_hit_rates": report.mean_tier_hit_rates(),
            "tier_evictions": report.total_tier_evictions,
            "controller_adjustments": store.get("halo.controller.adjustments", 0.0),
            "critical_path_time_s": report.critical_path_time_s,
        }

    default = one_run(None)
    per_config = {
        name: one_run(cache_config)
        for name, cache_config in SCENARIO_CONFIGS.items()
        if name in SCORED_RIVALS + ("scored",)
    }
    return {
        "scenario": "cache-churn",
        "scale": scale,
        "epochs": epochs,
        # The scenario-default run sits at the top level.
        **{k: default[k] for k in default if k != "cache_config"},
        "per_config": per_config,
    }


def scored_gains(per_config: dict) -> dict:
    """``{rival: scored_hit - rival_hit}`` on one scenario."""
    scored_hit = per_config["scored"]["mean_hit_rate"]
    return {
        rival: scored_hit - per_config[rival]["mean_hit_rate"]
        for rival in SCORED_RIVALS
    }


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stream-ids", type=int, default=20_000,
                        help="id universe of the synthetic drift stream")
    parser.add_argument("--stream-capacity", type=int, default=1_000,
                        help="tier capacity for the drift stream")
    parser.add_argument("--stream-phases", type=int, default=6,
                        help="drift phases (the hot window shifts each phase)")
    parser.add_argument("--stream-requests", type=int, default=150,
                        help="request batches per phase")
    parser.add_argument("--scenario-scale", type=float, default=0.05,
                        help="hot-set-drift/cache-churn dataset scale")
    parser.add_argument("--epochs", type=int, default=4, help="scenario epochs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the sections as JSON to this file")
    args = parser.parse_args(argv)

    print(f"[1/3] drift stream: {args.stream_phases} phases x "
          f"{args.stream_requests} batches, capacity {args.stream_capacity}")
    stream = bench_drift_stream(
        args.stream_ids, args.stream_capacity, args.stream_requests,
        args.stream_phases, args.seed,
    )
    for policy, row in stream["per_policy"].items():
        print(f"    {policy:>15}: mean hit {row['mean_hit_rate']:.3f}   "
              f"curve {row['hit_rate_curve']}   evictions {row['evictions']}")

    print(f"[2/3] hot-set-drift scenario: scale {args.scenario_scale}, "
          f"{args.epochs} epoch(s)")
    drift = bench_drift_scenario(args.scenario_scale, args.epochs, args.seed)
    for name, row in drift["per_config"].items():
        print(f"    {name:>17}: mean hit {row['mean_hit_rate']:.3f}   "
              f"fetch latency {row['fetch_latency_s']:.5f}s   "
              f"curve {row['hit_rate_curve']}")

    print(f"[3/3] cache-churn scenario: scale {args.scenario_scale}")
    churn = bench_churn_scenario(args.scenario_scale, min(args.epochs, 3), args.seed)
    print(f"    scenario default: mean hit {churn['mean_hit_rate']:.3f}   "
          f"evictions {churn['tier_evictions']}   "
          f"controller adjustments {int(churn['controller_adjustments'])}")
    for name, row in churn["per_config"].items():
        print(f"    {name:>17}: mean hit {row['mean_hit_rate']:.3f}   "
              f"evictions {row['tier_evictions']}")

    static_hit = drift["per_config"]["static-degree"]["mean_hit_rate"]
    best_name, best_hit = max(
        ((name, row["mean_hit_rate"]) for name, row in drift["per_config"].items()
         if name != "static-degree"),
        key=lambda item: item[1],
    )
    gain = best_hit - static_hit
    drift["best_non_default"] = {"name": best_name, "hit_gain_over_static": gain}
    print(f"    best non-default: {best_name} (+{gain:.3f} hit rate over static)")
    drift["scored_gains"] = scored_gains(drift["per_config"])
    churn["scored_gains"] = scored_gains(churn["per_config"])
    for scenario_name, gains in (("hot-set-drift", drift["scored_gains"]),
                                 ("cache-churn", churn["scored_gains"])):
        summary = ", ".join(f"{rival} {delta:+.4f}" for rival, delta in gains.items())
        print(f"    scored gains on {scenario_name}: {summary}")

    payload = {
        "benchmark": "cache_tiers",
        "generated_by": "benchmarks/bench_cache_tiers.py",
        "config": {
            "stream_ids": args.stream_ids,
            "stream_capacity": args.stream_capacity,
            "stream_phases": args.stream_phases,
            "stream_requests": args.stream_requests,
            "scenario_scale": args.scenario_scale,
            "epochs": args.epochs,
            "seed": args.seed,
        },
        "drift_stream": stream,
        "drift_scenario": drift,
        "churn_scenario": churn,
    }

    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
