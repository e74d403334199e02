"""Fig. 5: the four (γ, Δ) trade-off quadrants, measured.

The paper's Fig. 5 is a conceptual quadrant diagram; Section IV-E predicts the
behaviour of each regime.  This benchmark runs one representative configuration
per quadrant and reports hit rate, execution time, and eviction-round count,
checking that the recommended regime (low decay / long interval) is competitive
on hit rate while keeping overhead low.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_dataset, bench_scenario, save_table
from repro.perf.tradeoffs import quadrant_configs
from repro.training.config import TrainConfig


@pytest.mark.benchmark(group="fig5")
def test_fig5_tradeoff_quadrants(benchmark, bench_scale, bench_epochs):
    dataset = bench_dataset("products", scale=bench_scale, seed=12)
    configs = quadrant_configs(halo_fraction=0.35, short_delta=4, long_delta=64)

    def run_quadrants():
        workload = bench_scenario(batch_size=128).materialize(
            12, train_config=TrainConfig(epochs=bench_epochs + 1, hidden_dim=32, seed=12),
            dataset=dataset,
        )
        out = {"__baseline__": workload.run("baseline").report}
        for name, config in configs.items():
            out[name] = workload.run("prefetch", prefetch_config=config).report
        return out

    results = benchmark.pedantic(run_quadrants, rounds=1, iterations=1)
    baseline = results.pop("__baseline__")

    rows = []
    for name, report in results.items():
        evictions = len(report.hit_tracker.eviction_steps) if report.hit_tracker else 0
        rows.append(
            [name, round(report.total_simulated_time_s, 4), round(report.hit_rate, 3),
             evictions, round(report.improvement_percent_vs(baseline), 1)]
        )
    save_table(
        "fig5_quadrants",
        ["quadrant", "time s", "hit rate", "eviction rounds", "improvement % vs baseline"],
        rows,
        notes=(
            "Fig. 5 analog: one configuration per (γ, Δ) quadrant.\n"
            "Paper shape: low-decay/long-interval is the recommended regime — good hit rate with few\n"
            "eviction rounds; short intervals inflate eviction-round counts (overhead)."
        ),
    )

    short = [r for r in rows if "short-interval" in r[0]]
    long = [r for r in rows if "long-interval" in r[0]]
    # Shape check: short intervals trigger more eviction rounds than long intervals.
    assert min(r[3] for r in short) >= max(r[3] for r in long)
