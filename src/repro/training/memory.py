"""Peak-memory measurement of the two pipelines (Fig. 14).

The paper measures allocations with :mod:`tracemalloc` during initialization
and training, in a deliberately memory-hostile configuration (``f_h = 0.5``
and eviction on every minibatch, ``Δ = 1``): the prefetcher's buffer and
scoreboards add ~500 MB/trainer at initialization on papers100M but only
~10% extra peak during training.  The same methodology is used here — the
absolute numbers are smaller because the datasets are scaled down, but the
ratio between the baseline and the prefetch pipelines is preserved.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.graph.datasets import GraphDataset
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig


@dataclass
class MemoryProfile:
    """Peak allocations (bytes) of one pipeline, split by phase."""

    mode: str
    init_peak_bytes: int
    train_peak_bytes: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "mode": self.mode,
            "init_peak_mb": self.init_peak_bytes / 1e6,
            "train_peak_mb": self.train_peak_bytes / 1e6,
        }


def _measure(fn) -> int:
    """Peak traced allocation (bytes) while running *fn*."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def profile_memory(
    dataset: GraphDataset,
    mode: str,
    prefetch_config: Optional[PrefetchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    train_config: Optional[TrainConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> MemoryProfile:
    """Measure peak allocations of cluster construction/prefetcher init vs. training."""
    if mode not in ("baseline", "prefetch"):
        raise ValueError("mode must be 'baseline' or 'prefetch'")
    cluster_config = cluster_config or ClusterConfig()
    train_config = train_config or TrainConfig(epochs=2)
    if mode == "prefetch" and prefetch_config is None:
        # Paper's extreme configuration: half the halo nodes buffered and an
        # eviction round on every minibatch.
        prefetch_config = PrefetchConfig(halo_fraction=0.5, delta=1, gamma=0.95)

    state: Dict[str, object] = {}

    def init_phase() -> None:
        state["cluster"] = SimCluster(dataset, cluster_config, cost_model=cost_model)
        state["engine"] = ClusterEngine(state["cluster"], train_config)

    init_peak = _measure(init_phase)

    def train_phase() -> None:
        engine: ClusterEngine = state["engine"]  # type: ignore[assignment]
        engine.run(mode, prefetch_config=prefetch_config)

    train_peak = _measure(train_phase)
    return MemoryProfile(mode=mode, init_peak_bytes=init_peak, train_peak_bytes=train_peak)


def compare_memory(
    dataset: GraphDataset,
    prefetch_config: Optional[PrefetchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    train_config: Optional[TrainConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> Dict[str, MemoryProfile]:
    """Fig. 14: baseline vs. prefetch peak memory under the extreme configuration."""
    baseline = profile_memory(
        dataset, "baseline", cluster_config=cluster_config,
        train_config=train_config, cost_model=cost_model,
    )
    prefetch = profile_memory(
        dataset, "prefetch", prefetch_config=prefetch_config,
        cluster_config=cluster_config, train_config=train_config, cost_model=cost_model,
    )
    return {"baseline": baseline, "prefetch": prefetch}
