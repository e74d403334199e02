"""Fig. 10: hit-rate progression across minibatches with eviction points.

Training for many epochs, the paper shows the cumulative hit rate rising at
each eviction point and plateauing (~95% papers, ~75% products), together
with the share of sampled nodes that are remote.  This benchmark runs a longer
training (more epochs than the other benches) and reports the hit-rate
trajectory at several checkpoints plus the eviction rounds performed.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import bench_dataset, bench_scenario, save_table
from repro.core.config import PrefetchConfig
from repro.training.config import TrainConfig


@pytest.mark.benchmark(group="fig10")
def test_fig10_hit_rate_progression(benchmark, bench_scale):
    dataset = bench_dataset("products", scale=bench_scale, seed=7)
    config = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)

    def run_long():
        workload = bench_scenario(batch_size=128).materialize(
            7, train_config=TrainConfig(epochs=6, hidden_dim=32, seed=7), dataset=dataset
        )
        return workload.run("prefetch", prefetch_config=config).report

    report = benchmark.pedantic(run_long, rounds=1, iterations=1)

    tracker = report.hit_tracker
    running = tracker.running_hit_rate()
    checkpoints = np.linspace(0, len(running) - 1, num=min(10, len(running)), dtype=int)
    rows = [
        [int(step), round(float(running[step]), 3)]
        for step in checkpoints
    ]
    save_table(
        "fig10_hitrate_progression",
        ["minibatch", "cumulative hit rate"],
        rows,
        notes=(
            "Fig. 10 analog: cumulative hit-rate trajectory across minibatches "
            f"({len(tracker.eviction_steps)} eviction rounds at Δ={config.delta}).\n"
            "Paper shape: hit rate climbs as eviction replaces cold buffer entries, then plateaus."
        ),
    )

    # Shape checks: the trajectory ends no lower than it starts, and evictions happened.
    assert running[-1] >= running[0] - 0.05
    assert len(tracker.eviction_steps) >= 1
