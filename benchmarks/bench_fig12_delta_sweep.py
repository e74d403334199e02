"""Fig. 12: execution time and hit rate as the eviction interval Δ varies per γ.

The paper sweeps Δ ∈ {16 … 1024} for each decay factor and observes that very
frequent eviction (small Δ) adds inspection overhead while very long intervals
delay useful replacements.  This benchmark sweeps a reduced Δ range for two γ
values and reports time and hit rate per point.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_dataset, bench_scenario, save_table
from repro.training.config import TrainConfig
from repro.training.sweep import delta_sweep

GAMMAS = (0.95, 0.995)
DELTAS = (4, 16, 64)


@pytest.mark.benchmark(group="fig12")
def test_fig12_delta_sweep(benchmark, bench_scale, bench_epochs):
    dataset = bench_dataset("products", scale=bench_scale, seed=9)

    def run_sweep():
        return delta_sweep(
            bench_scenario(batch_size=128),
            gamma_values=GAMMAS,
            delta_values=DELTAS,
            halo_fraction=0.35,
            seed=9,
            dataset=dataset,
            train_config=TrainConfig(epochs=bench_epochs, hidden_dim=32, seed=9),
        )

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for gamma, points in results.items():
        for point in points:
            rows.append(
                [gamma, point.delta, round(point.total_time_s, 4),
                 round(point.hit_rate, 3), round(point.improvement_percent, 1)]
            )
    save_table(
        "fig12_delta_sweep",
        ["gamma", "delta", "time s", "hit rate", "improvement % vs baseline"],
        rows,
        notes=(
            "Fig. 12 analog: varying the eviction interval Δ per decay factor γ.\n"
            "Paper shape: both very small and very large Δ lose to a mid-range interval."
        ),
    )
    assert len(rows) == len(GAMMAS) * len(DELTAS)
