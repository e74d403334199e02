"""Helpers shared by the benchmark modules: run wrappers and result tables.

The paper's hardware scale (2–64 Perlmutter nodes, 4 trainers each, 100
epochs) is reduced to laptop scale here: 2–8 simulated machines, 1–4 trainers
per machine, a handful of epochs, and scaled-down dataset analogs.  The
quantities each benchmark reports are the same *relative* quantities the paper
reports (percent improvement, hit rate, percent RPC reduction, overlap
efficiency), so the shapes are directly comparable even though the absolute
numbers are not.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Sequence

from repro.core.config import PrefetchConfig
from repro.graph.datasets import GraphDataset, load_dataset
from repro.scenarios import SCENARIOS, ClusterScenario
from repro.training.config import TrainConfig
from repro.training.telemetry import TrainingReport
from repro.utils.logging_utils import format_table

RESULTS_DIR = Path(__file__).parent / "results"

# Benchmark-scale stand-ins for the paper's "#nodes" (machines) axis.
MACHINE_CONFIGS = (2, 4)


def bench_scenario(num_machines: int = 2, **overrides) -> ClusterScenario:
    """The cluster every paper-figure bench runs: ``uniform`` with *overrides*.

    ``uniform`` already has the suite's topology: 2 trainers per machine,
    fanouts (5, 10), METIS partitions, the cpu backend and batch 64 — small
    batches give every trainer enough minibatches per epoch to amortize the
    prefetcher's one-time initialization, mirroring the paper's hundreds of
    minibatches per trainer.
    """
    return SCENARIOS.build("uniform").with_overrides(num_machines=num_machines, **overrides)


def bench_dataset(name: str, scale: float, seed: int = 0) -> GraphDataset:
    """Load one of the paper's dataset analogs at benchmark scale."""
    return load_dataset(name, scale=scale, seed=seed)


def run_pair(
    dataset: GraphDataset,
    num_machines: int,
    backend: str,
    epochs: int,
    prefetch_config: PrefetchConfig,
    *,
    arch: str = "sage",
    num_heads: int = 2,
    seed: int = 0,
    include_no_eviction: bool = False,
) -> Dict[str, TrainingReport]:
    """Run baseline / (optionally) prefetch-no-evict / prefetch-evict on one workload."""
    workload = bench_scenario(num_machines, backend=backend).materialize(
        seed,
        train_config=TrainConfig(epochs=epochs, arch=arch, hidden_dim=32,
                                 num_heads=num_heads, seed=seed),
        dataset=dataset,
    )
    out: Dict[str, TrainingReport] = {"baseline": workload.run("baseline").report}
    if include_no_eviction:
        out["prefetch_no_evict"] = workload.run(
            "prefetch", prefetch_config=prefetch_config.without_eviction()
        ).report
    out["prefetch"] = workload.run("prefetch", prefetch_config=prefetch_config).report
    return out


def save_table(
    name: str, headers: Sequence[str], rows: Iterable[Sequence[object]], notes: str = ""
) -> str:
    """Render, print, and persist a paper-style result table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    table = format_table(headers, rows)
    text = table if not notes else f"{notes}\n\n{table}"
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    return text
