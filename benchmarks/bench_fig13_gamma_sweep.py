"""Fig. 13: execution time and hit rate across the decay factor γ.

The paper sweeps γ over (0, 1) with error bars across the Δ values and finds
that low decay (γ ≥ 0.9) yields both the best hit rates and competitive
execution time, supporting the γ choices used in the headline experiments.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_dataset, bench_scenario, save_table
from repro.training.config import TrainConfig
from repro.training.sweep import gamma_sweep

GAMMAS = (0.3, 0.7, 0.95, 0.995)
DELTAS = (8, 32)


@pytest.mark.benchmark(group="fig13")
def test_fig13_gamma_sweep(benchmark, bench_scale, bench_epochs):
    dataset = bench_dataset("products", scale=bench_scale, seed=10)

    def run_sweep():
        return gamma_sweep(
            bench_scenario(batch_size=128),
            gamma_values=GAMMAS,
            delta_values=DELTAS,
            halo_fraction=0.35,
            seed=10,
            dataset=dataset,
            train_config=TrainConfig(epochs=bench_epochs, hidden_dim=32, seed=10),
        )

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for gamma, stats in results.items():
        rows.append(
            [gamma,
             round(stats["mean_time_s"], 4), round(stats["min_time_s"], 4), round(stats["max_time_s"], 4),
             round(stats["mean_hit_rate"], 3), round(stats["min_hit_rate"], 3), round(stats["max_hit_rate"], 3)]
        )
    save_table(
        "fig13_gamma_sweep",
        ["gamma", "mean time s", "min time s", "max time s",
         "mean hit rate", "min hit rate", "max hit rate"],
        rows,
        notes=(
            "Fig. 13 analog: varying the decay factor γ; min/max columns play the role of the paper's\n"
            "error bars over the Δ range. Paper shape: low decay (γ ≥ 0.9) achieves the best hit rates."
        ),
    )

    # Shape check: the best low-decay hit rate is at least as good as the best high-decay hit rate.
    low_decay = max(results[g]["mean_hit_rate"] for g in GAMMAS if g >= 0.9)
    high_decay = max(results[g]["mean_hit_rate"] for g in GAMMAS if g < 0.9)
    assert low_decay >= high_decay - 0.05
