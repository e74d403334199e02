"""Named cluster workloads: string-keyed scenarios for benchmarks and the CLI.

A :class:`ClusterScenario` is a recipe for a full cluster training workload —
dataset analog, topology, partitioning policy, per-machine heterogeneity, the
execution backend (lockstep or event-driven, with its sync policy), the
pipeline to run, and its prefetch/cache tuning.  Scenarios are registered by
name in :data:`SCENARIOS`, so diverse deployments are exercised the same way
pipelines and eviction policies are selected everywhere else in the package::

    from repro.scenarios import build_scenario

    workload = build_scenario("skewed-partitions", seed=0, scale=0.1)
    report = workload.run()          # -> ClusterReport
    print(report.summary())

The shipped library (:mod:`repro.scenarios.library`) spans the deployment
axes of the paper's evaluation (``uniform``, ``skewed-partitions``,
``straggler-machine``, ``hot-halo``), the cache-stress workloads
(``hot-set-drift``, ``cache-churn``), the event-driven workloads only the
async backend can express (``async-staleness``, ``trainer-flaky``,
``congested-link``), and the online-inference serving streams
(``steady-poisson``, ``diurnal-cache-drift``, ``flash-crowd-burst``) that run
through ``repro serve`` and return a
:class:`~repro.serving.report.ServingReport`.  The rendered catalog lives in
``docs/SCENARIOS.md`` (regenerate with ``repro scenarios --markdown``; CI
drift-checks it).
"""

from repro.scenarios.catalog import catalog_markdown
from repro.scenarios.knobs import UNSET
from repro.scenarios.registry import (
    SCENARIOS,
    ClusterScenario,
    ClusterWorkload,
    available_scenarios,
    build_scenario,
    serving_scenarios,
    training_scenarios,
)
from repro.scenarios import library as _library  # noqa: F401  (registers the scenarios)

__all__ = [
    "SCENARIOS",
    "UNSET",
    "ClusterScenario",
    "ClusterWorkload",
    "available_scenarios",
    "build_scenario",
    "catalog_markdown",
    "serving_scenarios",
    "training_scenarios",
]
