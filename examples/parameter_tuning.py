#!/usr/bin/env python
"""Parameter tuning: find the best (f_h, gamma, delta) for a workload.

Reproduces the methodology behind the paper's Table IV and Figs. 12-13 at a
small scale: grid-search the prefetch parameters on the reddit analog, report
every point, classify each configuration into its Fig. 5 trade-off quadrant,
and print the time-optimal combination.

Run with:  python examples/parameter_tuning.py
"""

from __future__ import annotations

from repro import SCENARIOS, TrainConfig, load_dataset
from repro.perf.tradeoffs import classify_quadrant
from repro.training.sweep import find_optimal, run_parameter_sweep
from repro.utils.logging_utils import format_table


def main() -> None:
    dataset = load_dataset("reddit", scale=0.25, seed=1)
    print(f"Dataset: reddit analog ({dataset.num_nodes} nodes, {dataset.num_edges} edges)")

    scenario = SCENARIOS.build("uniform").with_overrides(batch_size=128)
    train_config = TrainConfig(epochs=2, hidden_dim=32, seed=1)

    print("\nRunning the parameter sweep (one baseline + one run per grid point) ...")
    sweep = run_parameter_sweep(
        scenario,
        seed=1,
        dataset=dataset,
        train_config=train_config,
        halo_fractions=(0.15, 0.35, 0.5),
        gammas=(0.95, 0.995),
        deltas=(8, 64),
        include_no_eviction=True,
    )

    rows = []
    for point in sweep.points:
        quadrant = (
            classify_quadrant(point.gamma, point.delta).name
            if point.eviction_enabled
            else "no eviction"
        )
        rows.append(
            [point.halo_fraction,
             "-" if point.gamma is None else point.gamma,
             "-" if point.delta is None else point.delta,
             "yes" if point.eviction_enabled else "no",
             f"{point.total_time_s:.4f}", f"{point.hit_rate:.3f}",
             f"{point.improvement_percent:.1f}", quadrant]
        )
    print("\n" + format_table(
        ["f_h", "gamma", "delta", "evict", "time s", "hit rate", "improv %", "quadrant"], rows
    ))

    best = find_optimal(sweep)
    eviction = (
        f"gamma={best['gamma']}, delta={best['delta']}"
        if best["eviction_enabled"]
        else "no eviction"
    )
    print(
        f"\nTime-optimal configuration (Table IV rule): f_h={best['halo_fraction']}, {eviction} "
        f"-> {best['improvement_percent']:.1f}% over the baseline, hit rate {best['hit_rate']:.3f}"
    )
    print(
        "Baseline time for reference: "
        f"{sweep.baseline.total_simulated_time_s:.4f}s over {sweep.baseline.epochs} epochs"
    )


if __name__ == "__main__":
    main()
