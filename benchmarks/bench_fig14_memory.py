"""Fig. 14: peak memory of baseline vs. prefetch under an extreme configuration.

The paper measures tracemalloc peaks with f_h = 0.5 and eviction on every
minibatch (Δ = 1): initialization grows by ~500 MB/trainer (buffer +
scoreboards) while the training-phase peak only rises ~10% over DistDGL.
This benchmark repeats the methodology on the scaled papers analog.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_dataset, bench_scenario, save_table
from repro.core.config import PrefetchConfig
from repro.training.config import TrainConfig
from repro.training.memory import compare_memory


@pytest.mark.benchmark(group="fig14")
def test_fig14_peak_memory(benchmark, bench_scale):
    dataset = bench_dataset("papers", scale=min(bench_scale, 0.15), seed=11)

    def run_profiles():
        return compare_memory(
            bench_scenario(batch_size=128),
            seed=11,
            prefetch_config=PrefetchConfig(halo_fraction=0.5, delta=1, gamma=0.95),
            dataset=dataset,
            train_config=TrainConfig(epochs=2, hidden_dim=32, max_steps_per_epoch=4, seed=11),
        )

    profiles = benchmark.pedantic(run_profiles, rounds=1, iterations=1)
    base, pref = profiles["baseline"], profiles["prefetch"]

    rows = [
        ["baseline", round(base.init_peak_bytes / 1e6, 2), round(base.train_peak_bytes / 1e6, 2)],
        ["prefetch (f_h=0.5, Δ=1)", round(pref.init_peak_bytes / 1e6, 2), round(pref.train_peak_bytes / 1e6, 2)],
        ["prefetch / baseline ratio",
         round(pref.init_peak_bytes / max(base.init_peak_bytes, 1), 2),
         round(pref.train_peak_bytes / max(base.train_peak_bytes, 1), 2)],
    ]
    save_table(
        "fig14_peak_memory",
        ["pipeline", "init peak MB", "train peak MB"],
        rows,
        notes=(
            "Fig. 14 analog: tracemalloc peak allocations, extreme configuration (f_h=0.5, Δ=1, γ=0.95).\n"
            "Paper shape: prefetching adds a visible one-time initialization footprint but only a\n"
            "modest (~10%) increase in the training-phase peak."
        ),
    )

    # Shape check: training-phase peak does not explode.
    assert pref.train_peak_bytes < 3.0 * base.train_peak_bytes
