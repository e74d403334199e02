"""The :data:`ENGINES` registry: cluster execution backends selected by name.

Three backends ship:

* ``lockstep`` — :class:`~repro.training.cluster_engine.ClusterEngine`, the
  bulk-synchronous loop (every trainer meets every allreduce barrier);
* ``async`` — :class:`~repro.training.async_engine.AsyncClusterEngine`, the
  discrete-event backend whose gradient synchronization is a pluggable
  :class:`~repro.events.sync.SyncPolicy` (``allreduce-barrier``,
  ``bounded-staleness``, ``local-sgd``) and which supports seeded transient
  failures;
* ``serving`` — :class:`~repro.serving.engine.InferenceClusterEngine`, the
  online-inference backend that consumes an open-loop request stream
  (:data:`~repro.serving.arrivals.ARRIVALS`) instead of training epochs and
  returns a :class:`~repro.serving.report.ServingReport`.

Scenarios and the CLI resolve engines the same way they resolve pipelines and
samplers — by registry key — so a new backend plugs in without touching
either.  Each factory rejects the knobs it cannot honour (a non-barrier sync
policy on ``lockstep``, a ``ServingSpec`` on either training backend, a
missing one on ``serving``) instead of silently ignoring them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.distributed.cluster import SimCluster
from repro.events.schedule import ElasticSpec, FailureSpec
from repro.events.sync import SYNC_POLICIES
from repro.training.async_engine import AsyncClusterEngine
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.utils.registry import Registry

if TYPE_CHECKING:  # repro.serving imports this module's internals; import lazily
    from repro.serving.arrivals import ServingSpec
    from repro.serving.engine import InferenceClusterEngine

ENGINES = Registry("cluster engine")


def sync_policy_options(
    sync: str,
    staleness: Optional[int] = None,
    sync_period: Optional[int] = None,
) -> Dict[str, int]:
    """Factory kwargs for the named sync policy from the generic CLI/scenario knobs."""
    resolved = SYNC_POLICIES.resolve(sync)
    options: Dict[str, int] = {}
    if resolved == "bounded-staleness" and staleness is not None:
        options["staleness"] = int(staleness)
    if resolved == "local-sgd" and sync_period is not None:
        options["sync_period"] = int(sync_period)
    return options


def _reject_elastic(elastic: Optional[ElasticSpec], engine: str) -> None:
    if elastic is not None and not elastic.is_empty:
        raise ValueError(
            f"elastic membership requires the event-driven backend "
            f"(engine='async'); got a non-empty ElasticSpec with "
            f"engine={engine!r}"
        )


def _reject_serving(serving, engine: str) -> None:
    if serving is not None:
        raise ValueError(
            f"a ServingSpec only drives the serving engine (got one with "
            f"engine={engine!r}); select it with engine='serving'"
        )


@ENGINES.register("lockstep", aliases=("sync", "bsp"))
def _build_lockstep(
    cluster: SimCluster,
    train_config: TrainConfig,
    scenario: Optional[str] = None,
    sync: str = "allreduce-barrier",
    staleness: Optional[int] = None,
    sync_period: Optional[int] = None,
    failures: Optional[FailureSpec] = None,
    elastic: Optional[ElasticSpec] = None,
    serving: Optional["ServingSpec"] = None,
    record_events: bool = False,
) -> ClusterEngine:
    if SYNC_POLICIES.resolve(sync) != "allreduce-barrier":
        raise ValueError(
            f"the lockstep engine only implements the 'allreduce-barrier' sync "
            f"policy (got {sync!r}); select the event-driven backend with "
            f"engine='async'"
        )
    if failures is not None:
        raise ValueError(
            "transient failures require the event-driven backend (engine='async')"
        )
    _reject_elastic(elastic, "lockstep")
    _reject_serving(serving, "lockstep")
    return ClusterEngine(cluster, train_config, scenario=scenario)


@ENGINES.register("async", aliases=("event", "event-driven"))
def _build_async(
    cluster: SimCluster,
    train_config: TrainConfig,
    scenario: Optional[str] = None,
    sync: str = "allreduce-barrier",
    staleness: Optional[int] = None,
    sync_period: Optional[int] = None,
    failures: Optional[FailureSpec] = None,
    elastic: Optional[ElasticSpec] = None,
    serving: Optional["ServingSpec"] = None,
    record_events: bool = False,
) -> AsyncClusterEngine:
    _reject_serving(serving, "async")
    return AsyncClusterEngine(
        cluster,
        train_config,
        scenario=scenario,
        sync=sync,
        sync_options=sync_policy_options(sync, staleness, sync_period),
        failures=failures,
        elastic=elastic,
        record_events=record_events,
    )


@ENGINES.register("serving", aliases=("serve", "inference"))
def _build_serving(
    cluster: SimCluster,
    train_config: TrainConfig,
    scenario: Optional[str] = None,
    sync: str = "allreduce-barrier",
    staleness: Optional[int] = None,
    sync_period: Optional[int] = None,
    failures: Optional[FailureSpec] = None,
    elastic: Optional[ElasticSpec] = None,
    serving: Optional["ServingSpec"] = None,
    record_events: bool = False,
) -> "InferenceClusterEngine":
    from repro.serving.engine import InferenceClusterEngine

    if serving is None:
        raise ValueError(
            "the serving engine needs a ServingSpec (scenario field 'serving' "
            "or ServingSpec(...) passed to build_engine)"
        )
    if failures is not None:
        raise ValueError("transient failures are not modeled by the serving engine")
    _reject_elastic(elastic, "serving")
    if SYNC_POLICIES.resolve(sync) != "allreduce-barrier":
        raise ValueError(
            "gradient sync policies do not apply to inference serving "
            f"(got sync={sync!r})"
        )
    return InferenceClusterEngine(
        cluster,
        train_config,
        scenario=scenario,
        serving=serving,
        record_events=record_events,
    )


def build_engine(
    name: str,
    cluster: SimCluster,
    train_config: TrainConfig,
    **kwargs,
) -> Union[ClusterEngine, AsyncClusterEngine, "InferenceClusterEngine"]:
    """Build a registered cluster engine by name (see :data:`ENGINES`)."""
    return ENGINES.build(name, cluster, train_config, **kwargs)
