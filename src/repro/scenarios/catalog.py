"""Render the scenario registry as a markdown catalog.

``repro scenarios --markdown`` prints exactly what :func:`catalog_markdown`
returns; the output is committed as ``docs/SCENARIOS.md`` and a CI step (plus
``tests/test_docs.py``) regenerates it and fails on drift, so the committed
catalog can never lag the registry.  Columns cover every knob a scenario can
pull: dataset/partitioning/topology, the execution backend and sync policy,
the data-path pipeline and its cache configuration, and the hot-path registry
keys.
"""

from __future__ import annotations

from typing import List

from repro.events.schedule import SCHEDULE_SPECS
from repro.scenarios.registry import SCENARIOS, ClusterScenario

HEADER = (
    "<!-- Generated by `repro scenarios --markdown`. Do not edit by hand: "
    "regenerate with `PYTHONPATH=src python -m repro scenarios --markdown "
    "> docs/SCENARIOS.md` (CI fails on drift). -->"
)


def _cache_label(scenario: ClusterScenario) -> str:
    cache = scenario.cache_config
    if cache is None:
        return "—"
    label = f"{cache.tiers} tier{'s' if cache.tiers != 1 else ''}, {cache.admission}/{cache.eviction}"
    if cache.adaptive:
        label += ", adaptive"
    return label


def _stress_label(scenario: ClusterScenario) -> str:
    # Every ScheduleSpec renders itself (the protocol's ``describe()``), so
    # new spec kinds show up here without touching the catalog.
    parts: List[str] = [
        spec.describe()
        for spec in (scenario.failures, scenario.congestion, scenario.elastic)
        if spec is not None
    ]
    if scenario.seed_active_fraction < 1.0 or scenario.seed_rotation > 0.0:
        parts.append(
            f"seed-drift({scenario.seed_active_fraction:g}/{scenario.seed_rotation:g})"
        )
    if scenario.serving is not None:
        slo = f"SLO {scenario.serving.slo_ms:g} ms"
        if scenario.serving.phase_drift:
            slo += ", phase-drift"
        parts.append(slo)
    return ", ".join(parts) if parts else "—"


def catalog_markdown() -> str:
    """The full scenario catalog as a GitHub-flavored markdown document."""
    lines = [
        HEADER,
        "",
        "# Scenario catalog",
        "",
        "Every named cluster workload registered in `repro.scenarios.SCENARIOS`, "
        "runnable as `repro run --scenario <name>` (serving scenarios — "
        "`serving · ...` in the Execution column — also as `repro serve "
        "--scenario <name>`).  See "
        "[EXTENDING.md](EXTENDING.md) for registering new scenarios and "
        "[ARCHITECTURE.md](ARCHITECTURE.md) for the execution backends.",
        "",
        "| Scenario | Dataset | Partitioning | Machines | Execution | Pipeline "
        "| Cache | RPC | Stress inputs | Description |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name in SCENARIOS.names():
        s: ClusterScenario = SCENARIOS.build(name)
        hardware = (
            "x".join(f"{m:g}" for m in s.compute_multipliers)
            if s.compute_multipliers
            else "homogeneous"
        )
        lines.append(
            "| `{name}` | {dataset} | {partition} | {machines}x{trainers} ({hw}) "
            "| {execution} | {pipeline} | {cache} | {rpc} | {stress} "
            "| {description} |".format(
                name=name,
                dataset=s.dataset,
                partition=s.partition_method,
                machines=s.num_machines,
                trainers=s.trainers_per_machine,
                hw=hardware,
                execution=s.execution,
                pipeline=s.pipeline,
                cache=_cache_label(s),
                rpc=s.rpc,
                stress=_stress_label(s),
                description=s.description,
            )
        )
    lines += [
        "",
        "Aliases accepted by `--scenario` map onto the canonical names above "
        "(e.g. `straggler` → `straggler-machine`); run `repro scenarios` for "
        "the plain-text view with the paper notes.",
        "",
        "## Schedule specs",
        "",
        "Stress inputs implement the `repro.events.schedule.ScheduleSpec` "
        "protocol (`describe()` / `materialize(world_size, seed)`); the engine "
        "consumes all of them through that one seam.",
        "",
        "| Kind | Spec | Summary |",
        "|---|---|---|",
    ]
    for kind in sorted(SCHEDULE_SPECS):
        spec_cls = SCHEDULE_SPECS[kind]
        summary = (spec_cls.__doc__ or "").strip().splitlines()[0]
        lines.append(f"| `{kind}` | `{spec_cls.__name__}` | {summary} |")
    lines.append("")
    return "\n".join(lines)
