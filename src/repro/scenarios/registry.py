"""The :class:`ClusterScenario` recipe type and the scenario registry."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.events.schedule import CongestionSpec, ElasticSpec, FailureSpec
from repro.graph.datasets import GraphDataset, load_dataset
from repro.sampling.neighbor_sampler import resolve_sampler
from repro.serving.arrivals import ServingSpec
from repro.training.cluster_engine import ClusterReport
from repro.training.config import TrainConfig
from repro.training.engines import ENGINES, build_engine
from repro.training.pipelines import PIPELINES
from repro.utils.registry import Registry

SCENARIOS = Registry("scenario")


class _Unset:
    """Singleton marker: 'explicitly clear this field to None' in overrides.

    ``with_overrides`` ignores ``None`` (so CLI flags pass through
    unconditionally), which historically made it impossible to *clear* an
    optional field like ``failures`` from a base scenario.  Passing ``UNSET``
    maps the field to ``None`` explicitly.  The singleton survives pickling
    (``__new__`` returns the module instance) so identity checks stay valid.
    """

    _instance = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()


@dataclass(frozen=True)
class ClusterScenario:
    """A named, fully specified cluster workload (topology + data path).

    ``compute_multipliers`` and ``partition_method`` are the two levers the
    shipped scenarios pull; ``cost_model_scaling`` applies multiplicative
    overrides to the backend's preset cost model (e.g. a slower network).
    ``paper_note`` maps the scenario onto the paper's deployment table for the
    README/CLI listings.
    """

    name: str
    description: str
    dataset: str = "products"
    scale: float = 0.1
    num_machines: int = 2
    trainers_per_machine: int = 2
    batch_size: int = 64
    fanouts: Tuple[int, ...] = (5, 10)
    partition_method: str = "metis"
    backend: str = "cpu"
    compute_multipliers: Optional[Tuple[float, ...]] = None
    cost_model_scaling: Dict[str, float] = field(default_factory=dict)
    pipeline: str = "prefetch"
    prefetch_config: Optional[PrefetchConfig] = None
    epochs: int = 3
    paper_note: str = ""
    # Hot-path registry keys (see SAMPLERS / RPC_CHANNELS).
    sampler: str = "vectorized"
    rpc: str = "per-call"
    # Tiered feature cache (repro.cache): None runs the tier-less data path;
    # a CacheConfig parameterizes the "tiered-cache" pipeline (or threads a
    # machine-shared tier behind the prefetch buffer when tiers >= 2).
    cache_config: Optional[CacheConfig] = None
    # Hot-set drift: per-epoch active seed window (fraction, rotation); the
    # defaults iterate the full seed set exactly like the pre-drift loader.
    seed_active_fraction: float = 1.0
    seed_rotation: float = 0.0
    # Execution backend (see repro.training.engines.ENGINES) and — for the
    # event-driven backend — the gradient sync policy and its knobs
    # (repro.events.sync.SYNC_POLICIES).  The defaults run every pre-existing
    # scenario through the lockstep engine unchanged.
    engine: str = "lockstep"
    sync: str = "allreduce-barrier"
    staleness: int = 1
    sync_period: int = 4
    # Event-driven stress inputs (all repro.events.schedule ScheduleSpec
    # implementations): a seeded transient-failure schedule, a time-varying
    # RPC congestion profile, and an elastic membership timeline.
    failures: Optional[FailureSpec] = None
    congestion: Optional[CongestionSpec] = None
    elastic: Optional[ElasticSpec] = None
    # Online-inference workload (engine="serving" only): the arrival process,
    # SLO, and popularity skew of the request stream (repro.serving.arrivals).
    serving: Optional[ServingSpec] = None

    # ------------------------------------------------------------------ #
    @property
    def execution(self) -> str:
        """Engine/sync label for catalogs and the CLI (e.g. ``async · local-sgd(H=4)``)."""
        from repro.events.sync import SYNC_POLICIES

        engine = ENGINES.resolve(self.engine)
        if engine == "lockstep":
            return "lockstep"
        if engine == "serving":
            arrival = self.serving.describe() if self.serving is not None else "no stream"
            return f"serving · {arrival}"
        sync = SYNC_POLICIES.resolve(self.sync)
        if sync == "bounded-staleness":
            sync = f"bounded-staleness(K={self.staleness})"
        elif sync == "local-sgd":
            sync = f"local-sgd(H={self.sync_period})"
        return f"async · {sync}"

    # ------------------------------------------------------------------ #
    def with_overrides(self, **overrides) -> "ClusterScenario":
        """A copy with selected fields replaced (CLI/benchmark knobs).

        ``None`` values are ignored so CLI flags can be passed through
        unconditionally; pass :data:`UNSET` to explicitly clear an optional
        field to ``None`` (e.g. strip ``failures`` from a base scenario).
        Unknown field names raise ``ValueError`` listing the valid keys, and
        so does a ``sampler`` key that is not registered (or was removed).
        """
        valid = set(self.__dataclass_fields__)
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        filtered = {
            k: (None if v is UNSET else v)
            for k, v in overrides.items()
            if v is not None
        }
        if "sampler" in filtered:
            filtered["sampler"] = resolve_sampler(filtered["sampler"])
        if "num_machines" in filtered:
            # Keep per-machine vectors aligned when the topology is resized.
            # Resizing also applies when multipliers arrive in the *same*
            # call: otherwise chained overrides (scenario -> preset -> CLI)
            # and the merged equivalent would disagree — the three-layer
            # merge must compose associatively.
            filtered["compute_multipliers"] = self._resize_multipliers(
                int(filtered["num_machines"]),
                filtered.get("compute_multipliers", self.compute_multipliers),
            )
        return replace(self, **filtered)

    def _resize_multipliers(
        self, num_machines: int, multipliers
    ) -> Optional[Tuple[float, ...]]:
        if multipliers is None:
            return None
        current = tuple(multipliers)
        if len(current) >= num_machines:
            return current[:num_machines]
        return current + (1.0,) * (num_machines - len(current))

    # ------------------------------------------------------------------ #
    def cluster_config(self, seed: int = 0) -> ClusterConfig:
        return ClusterConfig(
            num_machines=self.num_machines,
            trainers_per_machine=self.trainers_per_machine,
            batch_size=self.batch_size,
            fanouts=self.fanouts,
            partition_method=self.partition_method,
            backend=self.backend,
            seed=seed,
            compute_multipliers=self.compute_multipliers,
            sampler=self.sampler,
            rpc=self.rpc,
            seed_active_fraction=self.seed_active_fraction,
            seed_rotation=self.seed_rotation,
            congestion=self.congestion,
        )

    def cost_model(self) -> CostModel:
        model = CostModel.preset(self.backend)
        if self.cost_model_scaling:
            model = model.scaled(**self.cost_model_scaling)
        return model

    def materialize(
        self,
        seed: int = 0,
        train_config: Optional[TrainConfig] = None,
        dataset: Optional[GraphDataset] = None,
    ) -> "ClusterWorkload":
        """Build the dataset, cluster, and engine for this scenario."""
        if dataset is None:
            dataset = load_dataset(self.dataset, scale=self.scale, seed=seed)
        cluster = SimCluster(dataset, self.cluster_config(seed), cost_model=self.cost_model())
        if train_config is None:
            train_config = TrainConfig(epochs=self.epochs, hidden_dim=32, seed=seed)
        engine = build_engine(
            self.engine,
            cluster,
            train_config,
            scenario=self.name,
            sync=self.sync,
            staleness=self.staleness,
            sync_period=self.sync_period,
            failures=self.failures,
            elastic=self.elastic,
            serving=self.serving,
        )
        return ClusterWorkload(scenario=self, dataset=dataset, cluster=cluster, engine=engine)


@dataclass
class ClusterWorkload:
    """A materialized scenario, ready to run.

    ``engine`` is whichever backend the scenario selected from
    :data:`~repro.training.engines.ENGINES`; all three expose the same
    ``run(pipeline, ...)`` contract — the training backends return a
    :class:`~repro.training.cluster_engine.ClusterReport`, the serving
    backend a :class:`~repro.serving.report.ServingReport`.
    """

    scenario: ClusterScenario
    dataset: GraphDataset
    cluster: SimCluster
    engine: object

    def run(
        self,
        pipeline: Optional[str] = None,
        prefetch_config: Optional[PrefetchConfig] = None,
        cache_config: Optional[CacheConfig] = None,
    ) -> "ClusterReport":
        """Execute the scenario's pipeline; explicit arguments override the recipe.

        The recipe's configs reach a pipeline only if its
        :data:`~repro.training.pipelines.PIPELINES` row reads them: running
        one that does not instead (the ``baseline`` comparison) leaves them
        behind, so a baseline report is labelled ``baseline``, not with knobs
        it never read.  An explicit config is never dropped —
        :func:`~repro.training.pipelines.build_pipeline` raises ``ValueError``
        on one the row does not read.
        """
        name = pipeline or self.scenario.pipeline
        row = PIPELINES.get(name)
        if prefetch_config is None and row.reads_prefetch_config:
            prefetch_config = self.scenario.prefetch_config or PrefetchConfig()
        if cache_config is None and (pipeline is None or row.reads_cache_config):
            cache_config = self.scenario.cache_config
        return self.engine.run(name, prefetch_config=prefetch_config, cache_config=cache_config)


def available_scenarios(engine: Optional[str] = None) -> list:
    """Sorted names of the registered scenarios.

    ``engine`` filters by resolved execution backend (``"lockstep"``,
    ``"async"``, ``"serving"``, or any :data:`~repro.training.engines.ENGINES`
    alias); ``None`` returns everything.
    """
    names = SCENARIOS.names()
    if engine is None:
        return names
    resolved = ENGINES.resolve(engine)
    return [n for n in names
            if ENGINES.resolve(SCENARIOS.build(n).engine) == resolved]


def serving_scenarios() -> list:
    """Names of the scenarios that run the online-inference serving engine."""
    return available_scenarios(engine="serving")


def training_scenarios() -> list:
    """Names of the scenarios that train (lockstep or async backend)."""
    serving = set(serving_scenarios())
    return [n for n in SCENARIOS.names() if n not in serving]


def build_scenario(name: str, seed: int = 0, train_config: Optional[TrainConfig] = None,
                   **overrides) -> ClusterWorkload:
    """Materialize the named scenario, applying any field overrides.

    ``overrides`` accepts any :class:`ClusterScenario` field (``scale``,
    ``num_machines``, ``trainers_per_machine``, ``batch_size``, ``epochs``,
    ``backend``, ...); ``None`` values are ignored so CLI flags can be passed
    through unconditionally.
    """
    scenario: ClusterScenario = SCENARIOS.build(name)
    scenario = scenario.with_overrides(**overrides)
    return scenario.materialize(seed=seed, train_config=train_config)
