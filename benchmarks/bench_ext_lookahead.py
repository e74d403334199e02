"""Extension: deeper look-ahead for GPU-side overlap (the paper's future work).

The paper's summary argues that prefetching *multiple* future minibatches can
make "perfect overlap" sustainable on GPU configurations where a single
look-ahead minibatch is not enough (t_prepare > t_DDP).  This benchmark takes
the measured per-step component times from a simulated GPU training run,
feeds them into the look-ahead pipeline model, and reports how end-to-end time
shrinks as the look-ahead depth grows.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_dataset, run_pair, save_table
from repro.core.config import PrefetchConfig
from repro.perf.lookahead import simulate_lookahead, steady_state_step_time
from repro.perf.model import components_from_breakdown

PREFETCH = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16)
DEPTHS = (1, 2, 3, 4)


@pytest.mark.benchmark(group="extension")
def test_ext_lookahead_depth(benchmark, bench_scale, bench_epochs):
    dataset = bench_dataset("products", scale=bench_scale, seed=17)

    def run_gpu():
        return run_pair(dataset, 2, "gpu", bench_epochs, PREFETCH, seed=17)

    reports = benchmark.pedantic(run_gpu, rounds=1, iterations=1)
    prefetch = reports["prefetch"]
    steps = max(1, prefetch.num_minibatches // prefetch.world_size)
    comps = components_from_breakdown(prefetch.component_breakdown, steps)
    t_prep = comps.t_prepare
    t_ddp = comps.t_ddp

    rows = []
    base_total = None
    for depth in DEPTHS:
        total, stats = simulate_lookahead([t_prep] * steps, [t_ddp] * steps, lookahead=depth)
        if base_total is None:
            base_total = total
        rows.append(
            [depth, round(steady_state_step_time(t_prep, t_ddp, depth), 6),
             round(total, 4), round(100.0 * (base_total - total) / base_total, 1),
             round(stats.mean_stall, 6)]
        )
    save_table(
        "ext_lookahead_depth",
        ["look-ahead depth", "steady step s", "total s", "gain % vs depth 1", "mean stall s"],
        rows,
        notes=(
            "Extension study (paper Section VI future work): deeper look-ahead on the GPU backend.\n"
            f"Measured per-step components: t_prepare={t_prep:.6f}s, t_DDP={t_ddp:.6f}s.\n"
            "Expected shape: when t_prepare > t_DDP (GPU), deeper look-ahead recovers overlap until\n"
            "the pipeline becomes training-bound; beyond that, extra depth adds nothing."
        ),
    )

    totals = [r[2] for r in rows]
    assert all(totals[i + 1] <= totals[i] + 1e-9 for i in range(len(totals) - 1))
    if t_prep > t_ddp:
        assert totals[-1] < totals[0]
