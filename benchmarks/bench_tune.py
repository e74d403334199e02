"""Tuning benchmark: the sweep's best config vs. the scenario default.

Runs ``repro.tuning`` end to end on one training and one serving scenario and
prints, for each leg, the baseline score (the untouched scenario recipe),
the tuner's best score, and the winning overrides:

* **training** — ``straggler-machine`` under ``critical-path-s``: the sweep
  over engine/sync/staleness must rediscover that bounded-staleness execution
  hides the 2.5x straggler (the PR 5 result, now found by search instead of
  by hand);
* **serving** — ``flash-crowd-burst`` under ``serving-p99-ms``: the sweep
  over worker count and hot-tier eviction must find that extra capacity
  absorbs the burst's queueing tail.

It also runs the training sweep twice at the same seed and reports whether the
ranked reports and the frozen preset files are byte-identical — the
determinism contract ``repro tune`` advertises.

All scores are simulated times — deterministic given (seed, config),
machine-independent, and pinned at the default sizes by
``tests/golden/behaviour.json`` (section ``tuning``);
``tests/test_golden_behaviour.py`` asserts that both legs beat their default.

Run::

    PYTHONPATH=src python benchmarks/bench_tune.py

Nothing is written unless ``--out FILE`` asks for the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.scenarios import SCENARIOS
from repro.tuning import Preset, SearchSpace, TuneRunner


def tune_leg(scenario, objective: str, space: SearchSpace, seed: int,
             scale=None, epochs=None):
    runner = TuneRunner(scenario, objective=objective, space=space, seed=seed,
                        scale=scale, epochs=epochs)
    return runner.run()


def leg_entry(report) -> dict:
    best = report.best
    return {
        "scenario": report.scenario,
        "objective": report.objective,
        "direction": report.direction,
        "baseline_score": report.baseline_score,
        "best_score": best.score,
        "best_overrides": dict(best.overrides),
        "improvement_percent": best.improvement_percent,
        "candidates_evaluated": len(report.evaluated),
        "spec_hash": report.spec_hash,
    }


TRAINING_SPACE = SearchSpace({
    "engine": ("async",),
    "sync": ("allreduce-barrier", "bounded-staleness"),
    "staleness": (1, 2),
})
SERVING_SPACE = SearchSpace({
    "trainers_per_machine": (2, 4),
    "cache.eviction": ("lru", "clock"),
})


def bench_tune_legs(scale: float, epochs: int, requests: int, seed: int) -> dict:
    """Both tune legs plus the same-seed replay of the training one."""
    training = tune_leg("straggler-machine", "critical-path-s", TRAINING_SPACE,
                        seed=seed, scale=scale, epochs=epochs)

    serving_base = SCENARIOS.build("flash-crowd-burst")
    serving_base = serving_base.with_overrides(
        scale=scale,
        serving=serving_base.serving.with_overrides(num_requests=requests),
    )
    serving = tune_leg(serving_base, "serving-p99-ms", SERVING_SPACE, seed=seed)

    # Determinism contract: a same-seed re-run must reproduce the ranked
    # report and the frozen preset byte for byte.
    rerun = tune_leg("straggler-machine", "critical-path-s", TRAINING_SPACE,
                     seed=seed, scale=scale, epochs=epochs)
    bit_identical = (
        training.canonical_json() == rerun.canonical_json()
        and Preset.from_tune(training, "bench-check").to_json()
        == Preset.from_tune(rerun, "bench-check").to_json()
    )
    return {
        "training": leg_entry(training),
        "serving": leg_entry(serving),
        "reports_bit_identical": bit_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SCALE", 0.05)))
    parser.add_argument("--epochs", type=int, default=1,
                        help="epochs for every training-leg evaluation")
    parser.add_argument("--requests", type=int,
                        default=int(os.environ.get("REPRO_BENCH_REQUESTS", 256)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the section as JSON to this file")
    args = parser.parse_args(argv)

    print(f"[tune] scale={args.scale} epochs={args.epochs} "
          f"requests={args.requests} seed={args.seed}")
    section = bench_tune_legs(args.scale, args.epochs, args.requests, args.seed)
    for label in ("training", "serving"):
        leg = section[label]
        overrides = ", ".join(f"{k}={v}" for k, v in leg["best_overrides"].items())
        print(f"  {label:>8}: {leg['scenario']} / {leg['objective']}  "
              f"default {leg['baseline_score']:.6g} -> best {leg['best_score']:.6g} "
              f"({leg['improvement_percent']:+.2f}%, {overrides}; "
              f"{leg['candidates_evaluated']} candidates)")
    print(f"  same-seed re-run bit-identical (report and preset): "
          f"{section['reports_bit_identical']}")

    payload = {
        "benchmark": "tune",
        "generated_by": "benchmarks/bench_tune.py",
        "config": {
            "scale": args.scale,
            "epochs": args.epochs,
            "requests": args.requests,
            "seed": args.seed,
        },
        **section,
    }

    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
