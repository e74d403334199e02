"""MassiveGNN reproduction: prefetching and eviction for distributed GNN training.

This package reproduces *MassiveGNN: Efficient Training via Prefetching for
Massively Connected Distributed Graphs* (CLUSTER 2024) in pure Python/NumPy:

* :mod:`repro.core` — the paper's contribution: the parameterized continuous
  prefetch-and-eviction scheme (buffer, scoreboards, eviction policies);
* :mod:`repro.graph` — CSR graphs, synthetic OGB-style datasets, METIS-like
  partitioning, halo construction;
* :mod:`repro.sampling` — fan-out neighbor sampling and distributed data loading;
* :mod:`repro.distributed` — the DistDGL-like substrate (KVStore, RPC with a
  cost model, simulated cluster, DDP allreduce);
* :mod:`repro.events` — the discrete-event backend: deterministic event
  loop, gradient-sync policy registry, seeded failure/congestion schedules;
* :mod:`repro.nn` — NumPy GraphSAGE and GAT with manual backprop;
* :mod:`repro.training` — baseline and prefetch-enabled training pipelines,
  the cluster execution engines (lockstep and event-driven, selected from
  :data:`~repro.training.engines.ENGINES`), sweeps, memory profiling;
* :mod:`repro.scenarios` — named cluster workloads (uniform, skewed
  partitions, straggler machines, hot halo, cache stress, asynchrony/failure/
  congestion) for benchmarks and the CLI;
* :mod:`repro.perf` — the analytical performance model (Eqs. 2–6, 9) and the
  (γ, Δ) trade-off analysis.

Quickstart — every run is a :class:`~repro.scenarios.ClusterScenario`;
the Fig. 6 comparison is two runs on one materialized workload (what
``repro run --mode both`` prints)::

    from repro import SCENARIOS, PrefetchConfig, TrainConfig

    scenario = SCENARIOS.build("uniform").with_overrides(scale=0.25, batch_size=256)
    workload = scenario.materialize(0, train_config=TrainConfig(epochs=3))
    baseline = workload.run("baseline").report
    prefetch = workload.run(
        "prefetch",
        prefetch_config=PrefetchConfig(halo_fraction=0.25, gamma=0.995, delta=64),
    ).report
    print("improvement %:", prefetch.improvement_percent_vs(baseline))
"""

from repro.core import PrefetchConfig, Prefetcher
from repro.distributed import ClusterConfig, CostModel, SimCluster
from repro.features import (
    FeatureSource,
    FeatureStore,
    FetchResult,
    FetchStats,
    LocalKVStoreSource,
    RemoteRPCSource,
)
from repro.graph import GraphDataset, available_datasets, load_dataset
from repro.sampling import MiniBatchPipeline, PipelineBatch
from repro.scenarios import (
    SCENARIOS,
    ClusterScenario,
    ClusterWorkload,
    available_scenarios,
    build_scenario,
)
from repro.training import (
    ENGINES,
    PIPELINES,
    AsyncClusterEngine,
    ClusterEngine,
    ClusterReport,
    TrainConfig,
    TrainingReport,
    build_pipeline,
)

__version__ = "1.1.0"

__all__ = [
    "PrefetchConfig",
    "Prefetcher",
    "ClusterConfig",
    "CostModel",
    "SimCluster",
    "FeatureSource",
    "FeatureStore",
    "FetchResult",
    "FetchStats",
    "LocalKVStoreSource",
    "RemoteRPCSource",
    "GraphDataset",
    "available_datasets",
    "load_dataset",
    "MiniBatchPipeline",
    "PipelineBatch",
    "PIPELINES",
    "SCENARIOS",
    "ClusterScenario",
    "ClusterWorkload",
    "available_scenarios",
    "build_scenario",
    "ENGINES",
    "AsyncClusterEngine",
    "ClusterEngine",
    "ClusterReport",
    "TrainConfig",
    "TrainingReport",
    "build_pipeline",
    "__version__",
]
