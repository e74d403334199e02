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
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.config import PrefetchConfig
from repro.graph.datasets import GraphDataset, load_dataset
from repro.training.config import TrainConfig
from repro.training.pipelines import PIPELINES

if TYPE_CHECKING:  # repro.scenarios imports this package
    from repro.scenarios.registry import ClusterScenario


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


def _measure(fn) -> Tuple[Any, int]:
    """*fn*'s result and the peak traced allocation (bytes) while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, int(peak)


def profile_memory(
    scenario: "ClusterScenario",
    mode: str,
    seed: int = 0,
    prefetch_config: Optional[PrefetchConfig] = None,
    dataset: Optional[GraphDataset] = None,
    train_config: Optional[TrainConfig] = None,
) -> MemoryProfile:
    """Peak allocations of ``scenario.materialize`` (init) vs. the *mode* run (train).

    *mode* names a pipeline.  The dataset is loaded before the init phase
    starts, so neither phase counts it.  A pipeline that reads a
    ``prefetch_config`` defaults to the paper's extreme configuration; passing
    one to a pipeline that never reads it (``"baseline"``) is a
    ``ValueError``.
    """
    if prefetch_config is None and PIPELINES.get(mode).reads_prefetch_config:
        # Paper's extreme configuration: half the halo nodes buffered and an
        # eviction round on every minibatch.
        prefetch_config = PrefetchConfig(halo_fraction=0.5, delta=1, gamma=0.95)
    if dataset is None:
        dataset = load_dataset(scenario.dataset, scale=scenario.scale, seed=seed)

    workload, init_peak = _measure(
        lambda: scenario.materialize(seed, train_config=train_config, dataset=dataset)
    )
    _, train_peak = _measure(lambda: workload.run(mode, prefetch_config=prefetch_config))
    return MemoryProfile(mode=mode, init_peak_bytes=init_peak, train_peak_bytes=train_peak)


def compare_memory(
    scenario: "ClusterScenario",
    seed: int = 0,
    prefetch_config: Optional[PrefetchConfig] = None,
    dataset: Optional[GraphDataset] = None,
    train_config: Optional[TrainConfig] = None,
) -> Dict[str, MemoryProfile]:
    """Fig. 14: baseline vs. prefetch peak memory under the extreme configuration."""
    return {
        "baseline": profile_memory(
            scenario, "baseline", seed, dataset=dataset, train_config=train_config
        ),
        "prefetch": profile_memory(
            scenario, "prefetch", seed, prefetch_config, dataset=dataset,
            train_config=train_config,
        ),
    }
