"""The :data:`ENGINES` registry: cluster execution backends selected by name.

* ``lockstep`` — :class:`~repro.training.cluster_engine.ClusterEngine`, the
  bulk-synchronous loop (every trainer meets every allreduce barrier);
* ``async`` — :class:`~repro.training.async_engine.AsyncClusterEngine`, the
  discrete-event backend: a pluggable :class:`~repro.events.sync.SyncPolicy`,
  seeded transient failures, elastic membership;
* ``serving`` — :class:`~repro.serving.engine.InferenceClusterEngine`, which
  consumes an open-loop request stream and returns a ``ServingReport``.

:func:`build_engine` checks every option against :data:`ENGINE_OPTIONS`, so
one an engine cannot honour is rejected with one message instead of ignored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.distributed.cluster import SimCluster
from repro.events.schedule import ElasticSpec, FailureSpec
from repro.events.sync import SYNC_POLICIES
from repro.training.async_engine import AsyncClusterEngine
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.utils.registry import Registry

if TYPE_CHECKING:  # repro.serving imports this package's internals; import lazily
    from repro.serving.arrivals import ServingSpec

ENGINES = Registry("cluster engine")
ENGINES.register("lockstep", ClusterEngine, aliases=("sync", "bsp"))
ENGINES.register("async", AsyncClusterEngine, aliases=("event", "event-driven"))


@ENGINES.register("serving", aliases=("serve", "inference"))
def _serving_engine(*args, **kwargs):
    from repro.serving.engine import InferenceClusterEngine

    return InferenceClusterEngine(*args, **kwargs)


_EVENT_DRIVEN = "the event-driven backend (engine='async')"
# option -> (the engines that take it, what to tell one that does not).
# staleness/sync_period belong to the sync policy and travel with ``sync``.
ENGINE_OPTIONS = {
    "sync": (("async",), f"a sync policy other than 'allreduce-barrier' needs {_EVENT_DRIVEN}"),
    "failures": (("async",), f"transient failures need {_EVENT_DRIVEN}"),
    "elastic": (("async",), f"elastic membership needs {_EVENT_DRIVEN}"),
    "serving": (("serving",), "a ServingSpec only drives the serving engine (engine='serving')"),
    "record_events": (("async", "serving"), "only those engines pop events to record"),
}


def sync_policy_options(sync: str, staleness: Optional[int] = None,
                        sync_period: Optional[int] = None) -> Dict[str, int]:
    """Factory kwargs for the named sync policy from the generic CLI/scenario knobs."""
    resolved = SYNC_POLICIES.resolve(sync)
    if resolved == "bounded-staleness" and staleness is not None:
        return {"staleness": int(staleness)}
    if resolved == "local-sgd" and sync_period is not None:
        return {"sync_period": int(sync_period)}
    return {}


def build_engine(
    name: str,
    cluster: SimCluster,
    train_config: TrainConfig,
    *,
    scenario: Optional[str] = None,
    sync: str = "allreduce-barrier",
    staleness: Optional[int] = None,
    sync_period: Optional[int] = None,
    failures: Optional[FailureSpec] = None,
    elastic: Optional[ElasticSpec] = None,
    serving: Optional["ServingSpec"] = None,
    record_events: bool = False,
):
    """Build a registered cluster engine by name (see :data:`ENGINES`)."""
    engine = ENGINES.resolve(name)
    # (value, does it ask for anything?): the barrier policy, an absent spec
    # and an empty elastic timeline ask for nothing, so any engine accepts them.
    given = {
        "sync": (sync, SYNC_POLICIES.resolve(sync) != "allreduce-barrier"),
        "failures": (failures, failures is not None),
        "elastic": (elastic, elastic is not None and not elastic.is_empty),
        "serving": (serving, serving is not None),
        "record_events": (record_events, record_events),
    }
    kwargs = {}
    for option, (value, asks) in given.items():
        engines, why = ENGINE_OPTIONS[option]
        if engine in engines:
            kwargs[option] = value
        elif asks:
            got = value if isinstance(value, (str, bool)) else type(value).__name__
            raise ValueError(f"the {engine!r} engine does not take {option} (got {got!r}): {why}")
    if "sync" in kwargs:
        kwargs["sync_options"] = sync_policy_options(sync, staleness, sync_period)
    return ENGINES.build(engine, cluster, train_config, scenario=scenario, **kwargs)
