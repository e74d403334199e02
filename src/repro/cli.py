"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered dataset analogs and their Table II statistics.
``run``
    Run a scenario (default ``uniform``) through the engine it selects and
    print per-trainer and cluster-level telemetry; ``--trace-dir`` writes the
    report as JSON.  ``--mode both`` runs ``baseline`` first on the same
    cluster and prints a Fig. 6-style comparison.  A serving scenario routes
    to ``serve``'s report, so the CI smoke matrix runs one command shape.
``scenarios``
    List the registered scenarios; ``--markdown`` emits the
    ``docs/SCENARIOS.md`` catalog (CI regenerates it and fails on drift).
``serve``
    Run an online-inference serving scenario and print the latency/SLO/cache
    report.
``sweep``
    Grid-search (f_h, γ, Δ) and print the Table IV-style optimum.
``tune``
    Rank a grid over any knob (``--axis cache.eviction=lru,clock``) by an
    :data:`repro.tuning.OBJECTIVES` score and optionally freeze the winner as
    a ``presets/*.json`` preset, which ``repro run --preset NAME`` replays.
``explain``
    Replay a scenario with the scored cache policies and print why one node
    was admitted, rejected, or evicted (deterministic per ``--seed``).

Scenario knobs
--------------
A flag that sets a scenario knob is a row of :data:`KNOB_FLAGS`: it names an
axis of :data:`repro.scenarios.knobs.AXES`, the one override language that
presets, ``repro tune --axis`` and ``ClusterScenario.with_overrides`` speak
too.  The axis supplies the flag's type and choices, and the rules of
:mod:`repro.scenarios.knobs` apply it the same way everywhere.  The recipe
provides every default; a preset overrides the recipe and a passed flag
overrides both (``--eviction lru`` edits one field of the recipe's cache);
``repro run`` rejects a knob the resolved scenario would never read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro import __version__, viz
from repro.cache.config import CacheConfig
from repro.cache.scoring import capture_decisions
from repro.graph.datasets import available_datasets, load_dataset
from repro.scenarios import (
    SCENARIOS,
    UNSET,
    available_scenarios,
    catalog_markdown,
    serving_scenarios,
)
from repro.scenarios.knobs import AXES, reject_inert
from repro.training.config import TrainConfig
from repro.training.engines import ENGINES
from repro.training.sweep import find_optimal, run_parameter_sweep
from repro.tuning import (
    OBJECTIVES,
    SEARCH_STRATEGIES,
    Preset,
    SearchSpace,
    TuneRunner,
    load_preset,
)
from repro.utils.logging_utils import format_table

_SCALE = ("scale", "dataset scale multiplier (default: the scenario's)")
_MACHINES = ("num_machines", "simulated machines (default: the scenario's)")

#: The scenario-knob flags of each command: ``flag -> (axis, help[, argparse
#: keywords])``, the axis being a :data:`repro.scenarios.knobs.AXES` name.
#: The axis kind supplies ``type``/``choices``/``nargs`` (a ``bool`` axis is a
#: switch that stores ``True``, or the row's ``const``); the default is
#: ``None``, so only flags the user passed override the scenario's recipe.
KNOB_FLAGS: Dict[str, Dict[str, tuple]] = {
    "run": {
        "--dataset": ("dataset", "dataset analog (default: the scenario's)"),
        "--scale": _SCALE,
        "--pipeline": ("pipeline", "run this registered pipeline instead of the scenario's"),
        "--eviction-policy": ("prefetch.eviction_policy", "eviction policy for the prefetch "
                              "buffer (default: the config's, score-threshold); "
                              "--no-eviction turns eviction off"),
        "--rpc": ("rpc", "RPC channel registry key (default: the scenario's, per-call). "
                  "'batched' coalesces a step's remote pulls per owning partition "
                  "machine-wide and merges duplicate ids (stats report logical vs. wire "
                  "requests separately)"),
        "--cache-tiers": ("cache.tiers", "tiered feature cache: 1 = per-trainer hot tier, "
                          "2 = + machine-shared tier (selects the 'tiered-cache' pipeline, "
                          "the one that reads it; the trainer row budget still comes "
                          "from --halo-fraction)", {"choices": [1, 2]}),
        "--admission": ("cache.admission", "hot-tier admission policy (default: "
                        "static-degree — the pre-tier static cache behavior)"),
        "--eviction": ("cache.eviction", "hot-tier eviction policy (default: none; distinct "
                       "from --eviction-policy, which governs the prefetch buffer's "
                       "Algorithm 2)"),
        "--adaptive-cache": ("cache.adaptive", "enable the adaptive capacity controller "
                             "(re-splits hot/shared tier budgets from per-epoch hit rates; "
                             "needs --cache-tiers 2)"),
        "--engine": ("engine", "cluster execution backend (default: the scenario's, "
                     "lockstep). 'async' is the event-driven backend (priority-queue event "
                     "loop, pluggable gradient sync)"),
        "--sync": ("sync", "gradient synchronization policy for --engine async (default: the "
                   "scenario's, allreduce-barrier — bit-identical to the lockstep engine)"),
        "--staleness": ("staleness", "max rounds a trainer may run ahead with --sync "
                        "bounded-staleness (default: the scenario's, 1)"),
        "--sync-period": ("sync_period", "steps between model averages with --sync "
                          "local-sgd (default: the scenario's, 4)"),
        "--backend": ("backend", "cost-model backend (default: the scenario's)"),
        "--machines": _MACHINES,
        "--trainers-per-machine": ("trainers_per_machine",
                                   "trainers per machine (default: the scenario's)"),
        "--batch-size": ("batch_size", "seeds per minibatch (default: the scenario's)"),
        "--fanouts": ("fanouts", "per-layer neighbor fanouts (default: the scenario's)"),
        "--epochs": ("epochs", "training epochs (default: the scenario's)"),
        "--halo-fraction": ("prefetch.halo_fraction", "prefetch buffer capacity as a halo "
                            "fraction (default: the scenario's)"),
        "--gamma": ("prefetch.gamma", "eviction-score decay (default: the scenario's)"),
        "--delta": ("prefetch.delta", "eviction interval (default: the scenario's)"),
        "--no-eviction": ("prefetch.eviction_enabled", None, {"const": False}),
    },
    "serve": {
        "--arrival": ("serving.arrival", "override the scenario's arrival process (see "
                      "repro.serving.ARRIVALS)"),
        "--requests": ("serving.num_requests",
                       "number of requests to serve (default: the scenario's)"),
        "--rate": ("serving.rate_rps", "offered load in requests/s (default: the scenario's)"),
        "--slo-ms": ("serving.slo_ms", "latency SLO in milliseconds (default: the scenario's)"),
        "--scale": _SCALE,
        "--machines": _MACHINES,
        "--trainers-per-machine": ("trainers_per_machine",
                                   "serving workers per machine (default: the scenario's)"),
    },
    "explain": {
        "--eviction": ("cache.eviction", "hot-tier eviction policy for the replay (default: "
                       "scored — evict lowest upper bound; decisions are only recorded for "
                       "scored policies)",
                       {"default": "scored"}),
        "--cache-tiers": ("cache.tiers", "tier stack shape for the replay (default: 1)",
                          {"default": 1, "choices": [1, 2]}),
        "--epochs": ("epochs", "override the scenario's epoch count"),
        "--scale": _SCALE,
    },
    "sweep": {
        "--dataset": ("dataset", None, {"default": "products"}),
        "--scale": ("scale", None, {"default": 0.25}),
        "--backend": ("backend", None, {"default": "cpu"}),
        "--machines": ("num_machines", None, {"default": 2}),
        "--batch-size": ("batch_size", None, {"default": 128}),
        "--epochs": ("epochs", None, {"default": 2}),
    },
    "tune": {
        "--scale": ("scale", "dataset scale for every evaluation (default: the scenario's)"),
        "--epochs": ("epochs", "epochs for every evaluation (default: the scenario's)"),
    },
}


def _add_knob_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Add *command*'s rows of :data:`KNOB_FLAGS`, typed by their axes."""
    for flag, (axis, help_text, *extra) in KNOB_FLAGS[command].items():
        kwargs = {"default": None, "help": help_text}
        spec = AXES[axis]
        if spec.kind == "bool":
            kwargs.update(action="store_const", const=True)
        elif spec.kind in ("registry", "choice"):
            kwargs["choices"] = spec.choices
        else:
            kwargs.update(type=float if spec.kind == "float" else int,
                          nargs="+" if spec.kind == "ints" else None)
        kwargs.update(*extra)
        parser.add_argument(flag, **kwargs)


def _knob_values(args: argparse.Namespace, command: str) -> Dict[str, object]:
    """``{axis: value}`` for the knob flags of *command* that were passed."""
    values = {axis: getattr(args, flag[2:].replace("-", "_"))
              for flag, (axis, *_) in KNOB_FLAGS[command].items()}
    return {axis: value for axis, value in values.items() if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MassiveGNN reproduction: prefetch/eviction for distributed GNN training",
    )
    parser.add_argument(
        "--version", action="version", version=__version__,
        help="print the repro package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset analogs and their statistics")
    scenarios = sub.add_parser("scenarios", help="list the registered cluster scenarios")
    scenarios.add_argument(
        "--markdown", action="store_true",
        help="emit the docs/SCENARIOS.md catalog (markdown table) instead of the "
             "plain-text listing",
    )

    run = sub.add_parser("run", help="run a scenario (default: uniform)")
    run.add_argument(
        "--scenario", default=None, choices=available_scenarios(),
        help="named cluster workload (default: uniform); the scenario's recipe "
             "provides every default, and only explicitly passed flags override it",
    )
    _add_knob_flags(run, "run")
    run.add_argument(
        "--mode", default=None, choices=["baseline", "prefetch", "both"],
        help="'baseline' / 'prefetch' name the pipeline to run; 'both' runs "
             "'baseline' and then the scenario's (or --pipeline's) pipeline on the "
             "same cluster and prints the Fig. 6-style comparison",
    )
    run.add_argument(
        "--no-elastic", action="store_true", dest="no_elastic",
        help="strip the scenario's elastic membership schedule (ElasticSpec): "
             "every trainer stays active for the whole run — the no-elasticity "
             "baseline the elastic scenarios are compared against",
    )
    run.add_argument("--arch", default=None, choices=["sage", "gat"],
                     help="trained model architecture (default: sage)")
    run.add_argument("--hidden-dim", type=int, default=None,
                     help="trained model hidden width (default: 64)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--evaluate", action="store_true", help="score validation/test accuracy")
    run.add_argument("--trace-dir", type=Path, default=None,
                     help="write the report JSON here")
    run.add_argument(
        "--preset", default=None, metavar="NAME",
        help="run a tuned configuration frozen by `repro tune --emit-preset` "
             "(a committed presets/*.json name or an explicit path). The preset "
             "supplies the scenario and its winning overrides. "
             "Explicit flags still win: CLI beats preset beats scenario recipe",
    )
    run.add_argument(
        "--presets-dir", type=Path, default=None, dest="presets_dir",
        help="directory to resolve --preset names in (default: the repository's "
             "presets/)",
    )

    serve = sub.add_parser("serve", help="run an online-inference serving scenario")
    serve.add_argument(
        "--scenario", default=None, choices=available_scenarios(),
        help="serving scenario to run (default: steady-poisson); training "
             "scenarios are rejected — see the Execution column of `repro scenarios`",
    )
    _add_knob_flags(serve, "serve")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--trace-dir", type=Path, default=None,
                       help="write the full ServingReport JSON here")

    explain = sub.add_parser(
        "explain",
        help="replay a scenario with the scored cache policies and explain one "
             "node's admit/evict/reject decisions",
    )
    explain.add_argument(
        "--scenario", default="hot-set-drift", choices=available_scenarios(),
        help="scenario to replay (default: hot-set-drift)",
    )
    explain.add_argument(
        "--node-id", type=int, default=None, dest="node_id",
        help="global node id to explain (default: the node with the most "
             "recorded decisions in the replay)",
    )
    _add_knob_flags(explain, "explain")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--limit", type=int, default=20,
        help="print at most this many decisions, most recent last (0 = all)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the node's decisions as JSON lines instead of a table",
    )

    sweep = sub.add_parser("sweep", help="grid-search the prefetch parameters")
    _add_knob_flags(sweep, "sweep")
    sweep.add_argument("--halo-fractions", type=float, nargs="+", default=[0.15, 0.35, 0.5])
    sweep.add_argument("--gammas", type=float, nargs="+", default=[0.95, 0.995])
    sweep.add_argument("--deltas", type=int, nargs="+", default=[8, 64])
    sweep.add_argument("--seed", type=int, default=0)

    tune = sub.add_parser(
        "tune",
        help="sweep a scenario's knob surface, rank configurations by an "
             "objective, and optionally freeze the winner as a preset",
    )
    tune.add_argument(
        "--scenario", default="uniform", choices=available_scenarios(),
        help="scenario whose knob surface is searched (default: uniform)",
    )
    tune.add_argument(
        "--objective", default=None, choices=OBJECTIVES.names(),
        help="score to rank candidates by (default: serving-p99-ms for serving "
             "scenarios, critical-path-s otherwise)",
    )
    tune.add_argument(
        "--strategy", default="grid", choices=SEARCH_STRATEGIES.names(),
        help="candidate ordering: 'grid' walks the exact cartesian product in "
             "axis order (seed-independent); 'random' is a seeded permutation "
             "of the same grid (budget >= space size still covers every point)",
    )
    tune.add_argument(
        "--budget", type=int, default=None,
        help="max candidates to evaluate (default: the whole space)",
    )
    tune.add_argument(
        "--axis", action="append", default=None, metavar="NAME=V1[,V2...]",
        help="add a search axis (repeatable; replaces the scenario's default "
             "space). Axis names are the AXES keys: scenario fields like "
             "'sync', 'staleness', 'rpc' or dotted sub-config fields like "
             "'cache.eviction', 'serving.rate_rps'; values are validated "
             "eagerly against the owning registry or numeric type",
    )
    _add_knob_flags(tune, "tune")
    tune.add_argument("--seed", type=int, default=0,
                      help="seed shared by every candidate run and the random strategy")
    tune.add_argument(
        "--parallel", type=int, default=1,
        help="evaluate candidates across this many worker processes "
             "(reports are bit-identical to the serial run)",
    )
    tune.add_argument(
        "--emit-preset", default=None, metavar="NAME", dest="emit_preset",
        help="freeze the winning configuration as <presets-dir>/NAME.json "
             "with full sweep provenance",
    )
    tune.add_argument(
        "--presets-dir", type=Path, default=None, dest="presets_dir",
        help="where --emit-preset writes (default: the repository's presets/)",
    )
    tune.add_argument(
        "--json", action="store_true",
        help="emit the full ranked TuneReport as canonical JSON (byte-stable "
             "for a fixed scenario/space/objective/strategy/budget/seed)",
    )
    return parser


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #
def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in available_datasets():
        dataset = load_dataset(name, scale=0.1, seed=0)
        stats = dataset.summary()
        spec = dataset.spec
        rows.append(
            [name, spec.paper_num_nodes or "-", spec.paper_num_edges or "-",
             int(stats["num_nodes"]), int(stats["num_edges"]),
             int(stats["feature_dim"]), int(stats["num_classes"]), round(stats["avg_degree"], 1)]
        )
    print(format_table(
        ["dataset", "paper |V|", "paper |E|", "analog |V| (scale=0.1)", "analog |E|",
         "feat dim", "classes", "avg deg"],
        rows,
    ))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.markdown:
        print(catalog_markdown())
        return 0
    rows = []
    for name in available_scenarios():
        scenario = SCENARIOS.build(name)
        rows.append([
            name,
            scenario.dataset,
            scenario.partition_method,
            "heterogeneous" if scenario.compute_multipliers else "homogeneous",
            scenario.execution,
            scenario.pipeline,
            scenario.description,
        ])
    print(format_table(
        ["scenario", "dataset", "partitioning", "hardware", "execution", "pipeline",
         "description"],
        rows,
    ))
    return 0


def _resolve_run_scenario(args: argparse.Namespace):
    """The scenario ``repro run`` executes, and the knobs the user set.

    The scenario recipe is the source of every default; ``--preset`` applies a
    frozen (scenario, overrides) bundle on top of it, and only flags the user
    actually passed override that — CLI beats preset beats scenario recipe.
    Flags are :data:`KNOB_FLAGS` axes, applied by ``with_overrides`` with the
    rules of :mod:`repro.scenarios.knobs`; a knob the resolved scenario would
    never read is rejected, not ignored.
    """
    if args.preset is not None:
        preset = load_preset(args.preset, presets_dir=args.presets_dir)
        base_scenario = preset.apply()
        if args.scenario is not None and SCENARIOS.resolve(args.scenario) != preset.scenario:
            raise ValueError(
                f"--scenario {args.scenario!r} conflicts with preset {preset.name!r} "
                f"(frozen for scenario {preset.scenario!r}); drop --scenario or pick "
                f"a matching preset"
            )
        overrides = ", ".join(f"{k}={v}" for k, v in preset.overrides) or "(none)"
        print(f"preset '{preset.name}': scenario {preset.scenario}, "
              f"objective {preset.objective}, overrides {overrides}\n")
    else:
        base_scenario = SCENARIOS.build(args.scenario or "uniform")
    knobs = _knob_values(args, "run")
    if args.mode not in (None, "both") and knobs.setdefault("pipeline", args.mode) != args.mode:
        raise ValueError(
            f"--mode {args.mode} names the {args.mode!r} pipeline but --pipeline "
            f"names {knobs['pipeline']!r}; pass one of them"
        )
    scenario = base_scenario.with_overrides(
        **knobs, elastic=UNSET if args.no_elastic else None
    )
    flags = {axis: flag for flag, (axis, *_) in KNOB_FLAGS["run"].items()}
    reject_inert(scenario, knobs, spell=lambda axis: flags.get(axis, axis))
    return scenario, knobs


def _print_scenario_header(scenario) -> None:
    print(f"scenario '{scenario.name}': {scenario.description}")
    print(f"dataset={scenario.dataset} scale={scenario.scale} "
          f"machines={scenario.num_machines} trainers/machine={scenario.trainers_per_machine} "
          f"partitioning={scenario.partition_method} execution={scenario.execution}\n")


def _write_trace(trace_dir: Path, stem: str, report, kind: str) -> None:
    """Dump ``report.as_dict()`` as ``<trace_dir>/<stem>.json``."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{stem}.json"
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2)
    print(f"\n{kind} trace written to {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run [--scenario <name>]``: run one scenario and print its report."""
    scenario, knobs = _resolve_run_scenario(args)
    # A cache the user asked for reaches the pipeline explicitly, so one the
    # pipeline cannot read is rejected rather than left behind like a recipe's.
    cache_config = scenario.cache_config if any(k.startswith("cache.") for k in knobs) else None
    # The model flags the user gave, as TrainConfig fields; the rest keep its defaults.
    model = {field: value for field, value in (
        ("arch", args.arch), ("hidden_dim", args.hidden_dim), ("evaluate", args.evaluate or None),
    ) if value is not None}
    if ENGINES.resolve(scenario.engine) == "serving":
        # Serving scenarios share this command shape (one CI smoke command for
        # every scenario) but report latency/SLO, not epochs — delegate.
        if args.mode is not None:
            raise ValueError(
                f"--mode compares training pipelines; scenario {scenario.name!r} "
                f"is a serving workload — drop --mode (or use --pipeline)"
            )
        if model:
            flag = "--" + next(iter(model)).replace("_", "-")
            raise ValueError(
                f"{flag} configures the trained model; scenario {scenario.name!r} "
                f"is a serving workload — drop {flag}"
            )
        return _run_serving(scenario, seed=args.seed, trace_dir=args.trace_dir,
                            cache_config=cache_config)
    workload = scenario.materialize(
        seed=args.seed,
        train_config=TrainConfig(epochs=scenario.epochs, seed=args.seed, **model),
    )
    _print_scenario_header(scenario)

    compare = args.mode == "both"
    if compare:
        # Both legs on the same materialized workload: identical partitions
        # and seed assignments, which is how Fig. 6 is constructed.
        baseline = workload.run(pipeline="baseline")
        _print_cluster_summary(baseline)
    report = workload.run(pipeline=scenario.pipeline, cache_config=cache_config)
    if compare:
        _print_cluster_summary(report)
        print("\n" + viz.comparison_summary(baseline.report, report.report))
        print(f"\n[{report.report.mode}] component shares:")
        print(viz.stacked_breakdown({
            k: v for k, v in report.report.component_breakdown.items()
            if k in ("sampling", "lookup", "scoring", "eviction", "rpc", "copy", "ddp", "allreduce")
        }))
    else:
        _print_trainer_table(report)
        print()
        _print_cluster_summary(report)

    if args.trace_dir is not None:
        if compare:
            _write_trace(args.trace_dir, f"cluster_{scenario.name}_baseline", baseline, "cluster")
        _write_trace(args.trace_dir, f"cluster_{scenario.name}", report, "cluster")
    return 0


def _print_trainer_table(report) -> None:
    rows = [
        [t.global_rank, t.machine, f"{t.compute_multiplier:.2f}", t.num_steps,
         f"{t.simulated_time_s:.4f}", f"{t.barrier_wait_s:.4f}",
         f"{t.hit_rate:.3f}" if t.hit_rate is not None else "-",
         int(t.rpc_stats.get("bytes_fetched", 0))]
        for t in report.trainer_stats
    ]
    print(format_table(
        ["rank", "machine", "slowdown", "steps", "sim time s", "barrier wait s",
         "hit rate", "rpc bytes"],
        rows,
    ))


def _print_cluster_summary(report) -> None:
    """The ``[mode] critical path ...`` line plus cache-tier/async/elastic lines."""
    hit = (f", mean hit rate {report.mean_hit_rate:.3f}"
           if report.mean_hit_rate is not None else "")
    print(
        f"[{report.report.mode}] critical path {report.critical_path_time_s:.4f}s "
        f"(trainer {report.critical_trainer_rank}), "
        f"load imbalance {report.load_imbalance:.3f}, "
        f"total barrier wait {report.total_barrier_wait_s:.4f}s, "
        f"train acc {report.report.final_train_accuracy:.3f}{hit}"
    )
    tier_rates = report.mean_tier_hit_rates()
    if tier_rates:
        per_tier = ", ".join(f"{name} {rate:.3f}" for name, rate in sorted(tier_rates.items()))
        print(f"cache tiers: {per_tier}, total evictions {report.total_tier_evictions}")
    if report.engine is None:
        return

    def total(key: str) -> float:
        return sum(t.sync_stats.get(key, 0.0) for t in report.trainer_stats)

    line = f"async sync: policy {report.sync}"
    if total("hidden_sync_time_s"):
        line += f", hidden sync time {total('hidden_sync_time_s'):.4f}s"
    if total("staleness_wait_s"):
        line += f", staleness wait {total('staleness_wait_s'):.4f}s"
    if total("failures"):
        line += f", {int(total('failures'))} failures ({total('downtime_s'):.4f}s downtime)"
    print(line)
    if total("joins") or total("leaves") or total("rebalances") or total("restores"):
        print(
            f"elastic: {int(total('joins'))} joins, {int(total('leaves'))} leaves, "
            f"{int(total('rebalances'))} rebalances, {int(total('restores'))} restores, "
            f"{int(total('migration_bytes'))} bytes migrated "
            f"({total('migration_s'):.4f}s migration)"
        )


def _run_serving(
    scenario,
    seed: int,
    trace_dir: Optional[Path] = None,
    cache_config: Optional[CacheConfig] = None,
) -> int:
    """Materialize and run a serving scenario; print the latency/SLO report.

    Shared by ``repro serve`` and the serving branch of ``repro run`` so both
    command shapes print the same tables.
    """
    workload = scenario.materialize(seed=seed)
    _print_scenario_header(scenario)
    report = workload.run(pipeline=scenario.pipeline, cache_config=cache_config)

    rows = [
        [w.global_rank, w.machine, w.requests, f"{w.busy_time_s:.4f}",
         f"{w.hit_rate:.3f}" if w.hit_rate is not None else "-",
         int(w.rpc_stats.get("bytes_fetched", 0))]
        for w in report.worker_stats
    ]
    print(format_table(
        ["rank", "machine", "requests", "busy s", "hit rate", "rpc bytes"], rows
    ))
    latency = report.latency_ms()
    print(
        f"\n[serving] {report.arrival}: {report.completed}/{report.num_requests} "
        f"requests, throughput {report.throughput_rps:.1f} rps "
        f"(offered {report.offered_rate_rps:g}), duration {report.duration_s:.4f}s, "
        f"warmup {report.warmup_time_s:.4f}s"
    )
    print(f"latency ms: p50 {latency['p50']:.3f}, p95 {latency['p95']:.3f}, "
          f"p99 {latency['p99']:.3f}, max {latency['max']:.3f} "
          f"(mean {latency['mean']:.3f})")
    print("p95 component ms: " + ", ".join(
        f"{name} {summary['p95']:.3f}"
        for name, summary in report.component_ms().items()
    ))
    print(f"SLO {report.slo_ms:g} ms: {report.slo_violations} violations "
          f"({report.slo_violation_rate:.1%}), "
          f"mean utilization {report.mean_utilization:.3f}")
    tier_rates = report.mean_tier_hit_rates()
    if tier_rates:
        per_tier = ", ".join(f"{name} {rate:.3f}" for name, rate in sorted(tier_rates.items()))
        print(f"cache tiers: {per_tier}")
    phase_split = report.phase_latency_ms()
    if phase_split:
        per_phase = ", ".join(f"{name} {summary['p99']:.3f}"
                              for name, summary in phase_split.items())
        print(f"phase p99 ms: {per_phase}")

    if trace_dir is not None:
        _write_trace(trace_dir, f"serving_{scenario.name}", report, "serving")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve --scenario <name>``: online-inference serving run."""
    name = args.scenario or "steady-poisson"
    scenario = SCENARIOS.build(name)
    if ENGINES.resolve(scenario.engine) != "serving":
        serving_names = ", ".join(serving_scenarios())
        raise ValueError(
            f"scenario {scenario.name!r} is a training workload — run it with "
            f"`repro run --scenario {scenario.name}`; serving scenarios: {serving_names}"
        )
    scenario = scenario.with_overrides(**_knob_values(args, "serve"))
    return _run_serving(scenario, seed=args.seed, trace_dir=args.trace_dir)


def _cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: replay a scenario, then narrate one node's decisions.

    The replay runs the tiered-cache pipeline with ``scored`` admission and
    the requested eviction inside a
    :func:`~repro.cache.scoring.capture_decisions` session;
    recording is pure observation, so the replayed decisions are exactly what
    a non-captured run of the same scenario/seed would make.
    """
    # The replay's cache is the flags' over a scored-admission config, not the
    # scenario's recipe; capture_decisions() turns on the ledger of every
    # scored tier.
    scenario = SCENARIOS.build(args.scenario).with_overrides(
        cache_config=CacheConfig(admission="scored"), **_knob_values(args, "explain")
    )
    cache_config = scenario.cache_config

    with capture_decisions() as log:
        if ENGINES.resolve(scenario.engine) == "serving":
            workload = scenario.materialize(seed=args.seed)
        else:
            workload = scenario.materialize(
                seed=args.seed,
                train_config=TrainConfig(epochs=scenario.epochs, seed=args.seed),
            )
        workload.run(pipeline="tiered-cache", cache_config=cache_config)

    counts = log.decision_counts()
    if not counts:
        print("error: the replay recorded no scored decisions (did every tier "
              "stay under capacity?)", file=sys.stderr)
        return 1
    node_id = args.node_id
    if node_id is None:
        # Deterministic default: most decisions, ties to the smallest id.
        node_id = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    records = log.records_for(node_id)
    if not records:
        busiest = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        hint = ", ".join(f"{nid} ({n})" for nid, n in busiest)
        print(f"error: node {node_id} has no recorded decisions in this replay; "
              f"most-decided nodes: {hint}", file=sys.stderr)
        return 1

    if args.json:
        for tier_index, record in records:
            print(json.dumps({"tier_index": tier_index, **record.as_dict()}))
        return 0

    print(f"scenario '{scenario.name}' seed={args.seed}: "
          f"cache = {cache_config.describe()}")
    print(f"node {node_id}: {len(records)} decision(s) across "
          f"{len(log.tiers)} scored tier(s)\n")
    shown = records if args.limit <= 0 else records[-args.limit:]
    if len(shown) < len(records):
        print(f"(showing the last {len(shown)} of {len(records)} decisions; "
              f"--limit 0 for all)")

    def fmt(value: float) -> str:
        return "-" if value != value else f"{value:.4f}"  # nan-safe

    rows = [
        [r.step, f"{tier_index}:{r.tier}", r.action, fmt(r.score),
         fmt(r.lower_bound), fmt(r.upper_bound), fmt(r.threshold),
         r.mode, r.reason]
        for tier_index, r in shown
    ]
    print(format_table(
        ["step", "tier", "action", "score", "lower", "upper", "threshold",
         "mode", "reason"],
        rows,
    ))

    import numpy as np

    resident_in = [
        f"{i}:{tier.name}" for i, tier in enumerate(log.tiers)
        if bool(np.isin(np.int64(node_id), tier.resident_ids))
    ]
    if resident_in:
        print(f"\nfinal state: resident in {', '.join(resident_in)}")
    else:
        print("\nfinal state: not resident in any scored tier")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = SCENARIOS.build("uniform").with_overrides(**_knob_values(args, "sweep"))
    sweep = run_parameter_sweep(
        scenario,
        seed=args.seed,
        halo_fractions=tuple(args.halo_fractions),
        gammas=tuple(args.gammas),
        deltas=tuple(args.deltas),
    )
    rows = [
        [p.halo_fraction, p.gamma, p.delta, round(p.total_time_s, 4),
         round(p.hit_rate, 3), round(p.improvement_percent, 1)]
        for p in sweep.points
    ]
    print(format_table(["f_h", "gamma", "delta", "time s", "hit rate", "improvement %"], rows))
    best = find_optimal(sweep)
    print(
        f"\noptimal: f_h={best['halo_fraction']}, gamma={best['gamma']}, delta={int(best['delta'])} "
        f"-> {best['improvement_percent']:.1f}% improvement, hit rate {best['hit_rate']:.3f}"
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """``repro tune``: sweep a scenario's knobs and rank configurations.

    The sweep is deterministic end to end — candidate order is fixed by
    (strategy, seed), every evaluation runs at the shared seed, and ranking
    ties break on the candidate's canonical JSON — so ``--json`` output and
    ``--emit-preset`` files are byte-identical across same-seed re-runs.
    """
    report = TuneRunner(
        scenario=args.scenario, objective=args.objective,
        space=SearchSpace.parse(args.axis) if args.axis else None,
        strategy=args.strategy, budget=args.budget, seed=args.seed,
        parallelism=args.parallel, **_knob_values(args, "tune"),
    ).run()
    if args.json:
        print(report.canonical_json(), end="")
    else:
        print(report.summary())
    if args.emit_preset:
        path = Preset.from_tune(report, args.emit_preset).save(args.presets_dir)
        print(f"\npreset written to {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    args = build_parser().parse_args(argv)
    command = {
        "datasets": _cmd_datasets,
        "scenarios": _cmd_scenarios,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "sweep": _cmd_sweep,
        "tune": _cmd_tune,
        "explain": _cmd_explain,
    }[args.command]
    try:
        return command(args)
    except ValueError as exc:
        # What a flag, scenario, pipeline, engine, sampler or preset cannot
        # honour raises ValueError with a one-line message (a negative scale,
        # a CacheConfig on 'baseline', a sync policy on lockstep): misuse,
        # not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
