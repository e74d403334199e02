"""Training pipelines: baseline DistDGL-style and MassiveGNN prefetch-enabled."""

from repro.training.async_engine import AsyncClusterEngine
from repro.training.cluster_engine import (
    ClusterEngine,
    ClusterReport,
    TrainerRunStats,
)
from repro.training.config import TrainConfig
from repro.training.engines import ENGINES, build_engine
from repro.training.evaluate import evaluate_accuracy
from repro.training.memory import MemoryProfile, compare_memory, profile_memory
from repro.training.pipelines import (
    PIPELINES,
    OverlappedTimingPolicy,
    SerialTimingPolicy,
    build_pipeline,
)
from repro.training.sweep import (
    SweepPoint,
    SweepResult,
    delta_sweep,
    find_optimal,
    gamma_sweep,
    run_parameter_sweep,
)
from repro.training.telemetry import (
    ComponentAccumulator,
    EpochRecord,
    StepTiming,
    TrainingReport,
)

__all__ = [
    "TrainConfig",
    "AsyncClusterEngine",
    "ENGINES",
    "build_engine",
    "ClusterEngine",
    "ClusterReport",
    "TrainerRunStats",
    "PIPELINES",
    "OverlappedTimingPolicy",
    "SerialTimingPolicy",
    "build_pipeline",
    "evaluate_accuracy",
    "MemoryProfile",
    "compare_memory",
    "profile_memory",
    "SweepPoint",
    "SweepResult",
    "delta_sweep",
    "find_optimal",
    "gamma_sweep",
    "run_parameter_sweep",
    "ComponentAccumulator",
    "EpochRecord",
    "StepTiming",
    "TrainingReport",
]
