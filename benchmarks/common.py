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
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.graph.datasets import GraphDataset, load_dataset
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.training.telemetry import TrainingReport
from repro.utils.logging_utils import format_table

RESULTS_DIR = Path(__file__).parent / "results"

# Benchmark-scale stand-ins for the paper's "#nodes" (machines) axis.
MACHINE_CONFIGS = (2, 4)
TRAINERS_PER_MACHINE = 2
DEFAULT_FANOUTS = (5, 10)
# Small batches give every trainer enough minibatches per epoch to amortize the
# prefetcher's one-time initialization and first-minibatch costs, mirroring the
# paper's hundreds of minibatches per trainer.
DEFAULT_BATCH = 64


def bench_cluster_config(
    num_machines: int,
    backend: str = "cpu",
    batch_size: int = DEFAULT_BATCH,
    trainers_per_machine: int = TRAINERS_PER_MACHINE,
    seed: int = 0,
) -> ClusterConfig:
    """Cluster topology used across the benchmark suite."""
    return ClusterConfig(
        num_machines=num_machines,
        trainers_per_machine=trainers_per_machine,
        batch_size=batch_size,
        fanouts=DEFAULT_FANOUTS,
        backend=backend,
        seed=seed,
    )


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
    batch_size: int = DEFAULT_BATCH,
    seed: int = 0,
    include_no_eviction: bool = False,
) -> Dict[str, TrainingReport]:
    """Run baseline / (optionally) prefetch-no-evict / prefetch-evict on one cluster."""
    cluster = SimCluster(
        dataset,
        bench_cluster_config(num_machines, backend=backend, batch_size=batch_size, seed=seed),
        cost_model=CostModel.preset(backend),
    )
    engine = ClusterEngine(
        cluster,
        TrainConfig(epochs=epochs, arch=arch, hidden_dim=32, num_heads=num_heads, seed=seed),
    )
    out: Dict[str, TrainingReport] = {"baseline": engine.run("baseline").report}
    if include_no_eviction:
        out["prefetch_no_evict"] = engine.run(
            "prefetch", prefetch_config=prefetch_config.without_eviction()
        ).report
    out["prefetch"] = engine.run("prefetch", prefetch_config=prefetch_config).report
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
