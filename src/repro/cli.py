"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered dataset analogs and their Table II statistics.
``run``
    Run a scenario: ``repro run --scenario skewed-partitions`` materializes a
    named workload from :data:`repro.scenarios.SCENARIOS` (default
    ``uniform``), runs it through the engine it selects and prints
    per-trainer and cluster-level telemetry (critical path, barrier wait, hit
    rates); ``--trace-dir`` writes the report as JSON.  The recipe provides
    every default and explicitly passed flags override it.  ``--pipeline``
    runs any pipeline registered in :data:`repro.training.pipelines.PIPELINES`
    instead of the scenario's; ``--mode both`` runs ``baseline`` first on the
    same cluster and prints a Fig. 6-style comparison.
``scenarios``
    List the registered cluster scenarios and their deployment notes;
    ``--markdown`` emits the ``docs/SCENARIOS.md`` catalog instead (CI
    regenerates it and fails on drift).
``serve``
    Run an online-inference serving scenario (``steady-poisson``,
    ``diurnal-cache-drift``, ``flash-crowd-burst``) through the event-driven
    :class:`~repro.serving.engine.InferenceClusterEngine` and print the
    latency/SLO/cache report.  ``repro run --scenario <serving scenario>``
    routes here too, so the CI smoke matrix runs one command shape for every
    scenario.
``sweep``
    Grid-search (f_h, γ, Δ) and print the Table IV-style optimum.
``tune``
    Sweep a scenario's full knob surface (rpc, cache policies,
    engine/sync, serving parameters — any :data:`repro.tuning.AXES` axis)
    with a grid or seeded-random strategy, rank candidates by an
    :data:`repro.tuning.OBJECTIVES` score, and optionally freeze the winner
    as a ``presets/*.json`` preset; ``repro run --preset NAME`` replays it
    (CLI flags beat the preset, the preset beats the scenario recipe).
``explain``
    Replay a scenario with the scored cache policies and print why one node
    was admitted, rejected, or evicted — every decision with its score,
    confidence bounds, threshold, mode, and reason.  Replays are
    deterministic: the same ``--scenario``/``--seed`` reproduces the exact
    decision ledger bit-identically.

Execution backends are selected with ``--engine`` (see
:data:`repro.training.engines.ENGINES`): ``repro run --engine async --sync
bounded-staleness --staleness 2`` runs the event-driven backend with the
chosen gradient-sync policy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import __version__, viz
from repro.cache.config import CacheConfig
from repro.cache.policies import ADMISSION_POLICIES, CACHE_EVICTION_POLICIES
from repro.cache.scoring import capture_decisions
from repro.core.config import PrefetchConfig
from repro.core.eviction import EVICTION_POLICIES
from repro.distributed.rpc import RPC_CHANNELS
from repro.events.sync import SYNC_POLICIES
from repro.graph.datasets import available_datasets, load_dataset
from repro.sampling.neighbor_sampler import resolve_sampler
from repro.scenarios import (
    SCENARIOS,
    UNSET,
    available_scenarios,
    catalog_markdown,
    serving_scenarios,
)
from repro.serving import ARRIVALS
from repro.training.config import TrainConfig
from repro.training.engines import ENGINES
from repro.training.pipelines import PIPELINES
from repro.training.sweep import find_optimal, run_parameter_sweep
from repro.tuning import (
    OBJECTIVES,
    SEARCH_STRATEGIES,
    Preset,
    SearchSpace,
    TuneRunner,
    load_preset,
)
from repro.tuning.space import parse_axis_values
from repro.utils.logging_utils import format_table


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

    # Scenario knobs default to None so that only explicitly passed values
    # override the scenario's recipe.
    run = sub.add_parser("run", help="run a scenario (default: uniform)")
    run.add_argument(
        "--scenario", default=None, choices=available_scenarios(),
        help="named cluster workload (default: uniform); the scenario's recipe "
             "provides every default, and only explicitly passed flags override it",
    )
    run.add_argument("--cluster", action="store_true", help=argparse.SUPPRESS)
    run.add_argument(
        "--dataset", default=None, choices=available_datasets(),
        help="dataset analog (default: the scenario's)",
    )
    run.add_argument("--scale", type=float, default=None,
                     help="dataset scale multiplier (default: the scenario's)")
    run.add_argument(
        "--mode", default=None, choices=["baseline", "prefetch", "both"],
        help="'baseline' / 'prefetch' name the pipeline to run; 'both' runs "
             "'baseline' and then the scenario's (or --pipeline's) pipeline on the "
             "same cluster and prints the Fig. 6-style comparison",
    )
    run.add_argument(
        "--pipeline", default=None, choices=PIPELINES.names(),
        help="run this registered pipeline instead of the scenario's",
    )
    run.add_argument(
        "--eviction-policy", default=None, choices=EVICTION_POLICIES.names(),
        help="eviction policy for the prefetch buffer (default: the config's, score-threshold)",
    )
    run.add_argument(
        "--sampler", default=None,
        help="neighbor-sampler registry key; 'vectorized' (the batched partial "
             "Fisher-Yates fan-out draw) is the default and the only sampler",
    )
    run.add_argument(
        "--rpc", default=None, choices=RPC_CHANNELS.names(),
        help="RPC channel registry key (default: the scenario's, per-call). 'batched' "
             "coalesces a step's remote pulls per owning partition machine-wide and "
             "merges duplicate ids (stats report logical vs. wire requests separately)",
    )
    run.add_argument(
        "--cache-tiers", type=int, default=None, choices=[1, 2], dest="cache_tiers",
        help="tiered feature cache: 1 = per-trainer hot tier, 2 = + machine-shared "
             "tier (selects the 'tiered-cache' pipeline unless --pipeline is given; "
             "the trainer row budget still comes from --halo-fraction)",
    )
    run.add_argument(
        "--admission", default=None, choices=ADMISSION_POLICIES.names(),
        help="hot-tier admission policy (default: static-degree — the pre-tier "
             "static cache behavior)",
    )
    run.add_argument(
        "--eviction", default=None, choices=CACHE_EVICTION_POLICIES.names(),
        help="hot-tier eviction policy (default: none; distinct from "
             "--eviction-policy, which governs the prefetch buffer's Algorithm 2)",
    )
    run.add_argument(
        "--adaptive-cache", action="store_true",
        help="enable the adaptive capacity controller (re-splits hot/shared tier "
             "budgets from per-epoch hit rates; needs --cache-tiers 2)",
    )
    run.add_argument(
        "--engine", default=None, choices=ENGINES.names(),
        help="cluster execution backend (default: the scenario's, lockstep). "
             "'async' is the event-driven backend (priority-queue event loop, "
             "pluggable gradient sync)",
    )
    run.add_argument(
        "--sync", default=None, choices=SYNC_POLICIES.names(),
        help="gradient synchronization policy for --engine async "
             "(default: the scenario's, allreduce-barrier — bit-identical to the "
             "lockstep engine)",
    )
    run.add_argument(
        "--staleness", type=int, default=None,
        help="max rounds a trainer may run ahead with --sync bounded-staleness "
             "(default: the scenario's, 1)",
    )
    run.add_argument(
        "--sync-period", type=int, default=None, dest="sync_period",
        help="steps between model averages with --sync local-sgd "
             "(default: the scenario's, 4)",
    )
    run.add_argument(
        "--no-elastic", action="store_true", dest="no_elastic",
        help="strip the scenario's elastic membership schedule (ElasticSpec): "
             "every trainer stays active for the whole run — the no-elasticity "
             "baseline the elastic scenarios are compared against",
    )
    run.add_argument("--backend", default=None, choices=["cpu", "gpu"],
                     help="cost-model backend (default: the scenario's)")
    run.add_argument("--machines", type=int, default=None,
                     help="simulated machines (default: the scenario's)")
    run.add_argument("--trainers-per-machine", type=int, default=None,
                     help="trainers per machine (default: the scenario's)")
    run.add_argument("--batch-size", type=int, default=None,
                     help="seeds per minibatch (default: the scenario's)")
    run.add_argument("--fanouts", type=int, nargs="+", default=None,
                     help="per-layer neighbor fanouts (default: the scenario's)")
    run.add_argument("--epochs", type=int, default=None,
                     help="training epochs (default: the scenario's)")
    run.add_argument("--arch", default="sage", choices=["sage", "gat"])
    run.add_argument("--hidden-dim", type=int, default=64)
    run.add_argument("--halo-fraction", type=float, default=None,
                     help="prefetch buffer capacity as a halo fraction "
                          "(default: the scenario's)")
    run.add_argument("--gamma", type=float, default=None,
                     help="eviction-score decay (default: the scenario's)")
    run.add_argument("--delta", type=int, default=None,
                     help="eviction interval (default: the scenario's)")
    run.add_argument("--no-eviction", action="store_true")
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
    serve.add_argument(
        "--arrival", default=None, choices=ARRIVALS.names(),
        help="override the scenario's arrival process (see repro.serving.ARRIVALS)",
    )
    serve.add_argument("--requests", type=int, default=None,
                       help="number of requests to serve (default: the scenario's)")
    serve.add_argument("--rate", type=float, default=None, dest="rate",
                       help="offered load in requests/s (default: the scenario's)")
    serve.add_argument("--slo-ms", type=float, default=None, dest="slo_ms",
                       help="latency SLO in milliseconds (default: the scenario's)")
    serve.add_argument("--scale", type=float, default=None,
                       help="dataset scale multiplier (default: the scenario's)")
    serve.add_argument("--machines", type=int, default=None,
                       help="simulated machines (default: the scenario's)")
    serve.add_argument("--trainers-per-machine", type=int, default=None,
                       help="serving workers per machine (default: the scenario's)")
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
    explain.add_argument(
        "--admission", default="scored",
        choices=[n for n in ADMISSION_POLICIES.names() if n.startswith("scored")],
        help="scored admission variant to replay with (default: scored — the "
             "conservative mode)",
    )
    explain.add_argument(
        "--eviction", default="scored", choices=["scored", "lru", "lfu", "clock"],
        help="hot-tier eviction policy for the replay (default: scored — evict "
             "lowest upper bound; decisions are only recorded for scored policies)",
    )
    explain.add_argument(
        "--cache-tiers", type=int, default=1, choices=[1, 2], dest="cache_tiers",
        help="tier stack shape for the replay (default: 1)",
    )
    explain.add_argument("--epochs", type=int, default=None,
                         help="override the scenario's epoch count")
    explain.add_argument("--scale", type=float, default=None,
                         help="dataset scale multiplier (default: the scenario's)")
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
    sweep.add_argument("--dataset", default="products", choices=available_datasets())
    sweep.add_argument("--scale", type=float, default=0.25)
    sweep.add_argument("--backend", default="cpu", choices=["cpu", "gpu"])
    sweep.add_argument("--machines", type=int, default=2)
    sweep.add_argument("--batch-size", type=int, default=128)
    sweep.add_argument("--epochs", type=int, default=2)
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
    tune.add_argument("--scale", type=float, default=None,
                      help="dataset scale for every evaluation (default: the scenario's)")
    tune.add_argument("--epochs", type=int, default=None,
                      help="epochs for every evaluation (default: the scenario's)")
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


def _build_cache_config(args: argparse.Namespace) -> Optional[CacheConfig]:
    """CacheConfig from the --cache-* flags; None when none were passed.

    Invalid combinations (e.g. ``--adaptive-cache`` without
    ``--cache-tiers 2``) raise the config's own diagnostic rather than
    being silently ignored.
    """
    if (args.cache_tiers is None and args.admission is None
            and args.eviction is None and not args.adaptive_cache):
        return None
    # An explicit --eviction with the closed default admission would be
    # inert (static-degree admits nothing at runtime, so eviction never
    # triggers); default admission to "always" in that case so the chosen
    # policy actually runs.  An explicit --admission always wins.
    admission = args.admission
    if admission is None:
        admission = "always" if args.eviction not in (None, "none") else "static-degree"
    return CacheConfig(
        tiers=args.cache_tiers if args.cache_tiers is not None else 1,
        admission=admission,
        eviction=args.eviction or "none",
        adaptive=bool(args.adaptive_cache),
    )


def _resolve_run_scenario(args: argparse.Namespace):
    """The scenario ``repro run`` executes: recipe, then preset, then flags.

    The scenario recipe is the source of every default; ``--preset`` applies a
    frozen (scenario, overrides) bundle on top of it, and only flags the user
    actually passed (non-``None``) override that — CLI beats preset beats
    scenario recipe.
    """
    if args.sampler is not None:
        args.sampler = resolve_sampler(args.sampler)
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
    scenario = base_scenario.with_overrides(
        dataset=args.dataset,
        scale=args.scale,
        num_machines=args.machines,
        trainers_per_machine=args.trainers_per_machine,
        batch_size=args.batch_size,
        fanouts=tuple(args.fanouts) if args.fanouts else None,
        backend=args.backend,
        epochs=args.epochs,
        sampler=args.sampler,
        rpc=args.rpc,
        engine=args.engine,
        sync=args.sync,
        staleness=args.staleness,
        sync_period=args.sync_period,
        elastic=UNSET if args.no_elastic else None,
    )
    # A sync-policy knob only has meaning on the event-driven backend; flip
    # the engine rather than letting the lockstep factory reject it when the
    # user's intent is unambiguous.
    if args.engine is None and (
        args.sync is not None or args.staleness is not None or args.sync_period is not None
    ):
        scenario = scenario.with_overrides(engine="async")
    # A knob that the effective sync policy does not consume would be
    # silently inert (sync_policy_options only forwards staleness to
    # bounded-staleness and sync_period to local-sgd); reject it instead of
    # letting the user believe they measured a policy they never selected.
    resolved_sync = SYNC_POLICIES.resolve(scenario.sync)
    if args.staleness is not None and resolved_sync != "bounded-staleness":
        raise ValueError(
            f"--staleness only applies to the 'bounded-staleness' sync policy "
            f"(effective policy: {resolved_sync!r}); pass --sync bounded-staleness"
        )
    if args.sync_period is not None and resolved_sync != "local-sgd":
        raise ValueError(
            f"--sync-period only applies to the 'local-sgd' sync policy "
            f"(effective policy: {resolved_sync!r}); pass --sync local-sgd"
        )
    return scenario


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
    scenario = _resolve_run_scenario(args)
    cache_config = _build_cache_config(args)
    pipeline = args.pipeline
    if args.mode not in (None, "both"):
        if pipeline is not None and pipeline != args.mode:
            raise ValueError(
                f"--mode {args.mode} names the {args.mode!r} pipeline but --pipeline "
                f"names {pipeline!r}; pass one of them"
            )
        pipeline = args.mode
    if pipeline is None and cache_config is not None:
        pipeline = "tiered-cache"

    prefetch_flags = [
        (flag, key, value)
        for flag, key, value in (
            ("--halo-fraction", "halo_fraction", args.halo_fraction),
            ("--gamma", "gamma", args.gamma),
            ("--delta", "delta", args.delta),
            ("--eviction-policy", "eviction_policy", args.eviction_policy),
            ("--no-eviction", "eviction_enabled", False if args.no_eviction else None),
        )
        if value is not None
    ]
    # Like --staleness above: a knob nothing reads is rejected, not ignored.
    target = PIPELINES.resolve(pipeline or scenario.pipeline)
    if prefetch_flags and not PIPELINES.get(target).reads_prefetch_config:
        raise ValueError(
            f"{prefetch_flags[0][0]} has no effect on the {target!r} pipeline (it "
            f"takes no PrefetchConfig); pick another --pipeline, or --mode both to compare"
        )
    if args.no_eviction and args.eviction_policy is not None:
        raise ValueError(
            f"--eviction-policy {args.eviction_policy} has no effect with "
            f"--no-eviction (the policy is never consulted); drop one of them"
        )
    prefetch_config = None
    if prefetch_flags:
        # The eviction policy rides along as a registry *name* so each
        # trainer's prefetcher builds its own instance (own RNG stream) —
        # a shared policy object would couple the trainers' evictions.
        prefetch_config = dataclasses.replace(
            scenario.prefetch_config or PrefetchConfig(),
            **{key: value for _, key, value in prefetch_flags},
        )

    if ENGINES.resolve(scenario.engine) == "serving":
        # Serving scenarios share this command shape (one CI smoke command for
        # every scenario) but report latency/SLO, not epochs — delegate.
        if args.mode is not None:
            raise ValueError(
                f"--mode compares training pipelines; scenario {scenario.name!r} "
                f"is a serving workload — drop --mode (or use --pipeline)"
            )
        return _run_serving(
            scenario, seed=args.seed, trace_dir=args.trace_dir,
            pipeline=pipeline, prefetch_config=prefetch_config,
            cache_config=cache_config,
        )
    workload = scenario.materialize(
        seed=args.seed,
        train_config=TrainConfig(
            epochs=scenario.epochs, arch=args.arch, hidden_dim=args.hidden_dim,
            evaluate=args.evaluate, seed=args.seed,
        ),
    )
    _print_scenario_header(scenario)

    compare = args.mode == "both"
    if compare:
        # Both legs on the same materialized workload: identical partitions
        # and seed assignments, which is how Fig. 6 is constructed.
        baseline = workload.run(pipeline="baseline")
        _print_cluster_summary(baseline)
    report = workload.run(
        pipeline=pipeline, prefetch_config=prefetch_config, cache_config=cache_config
    )
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
    pipeline: Optional[str] = None,
    prefetch_config: Optional[PrefetchConfig] = None,
    cache_config: Optional[CacheConfig] = None,
) -> int:
    """Materialize and run a serving scenario; print the latency/SLO report.

    Shared by ``repro serve`` and the serving branch of ``repro run`` so both
    command shapes print the same tables.
    """
    workload = scenario.materialize(seed=seed)
    _print_scenario_header(scenario)
    report = workload.run(
        pipeline=pipeline, prefetch_config=prefetch_config, cache_config=cache_config
    )

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
    spec = scenario.serving.with_overrides(
        arrival=args.arrival, num_requests=args.requests,
        rate_rps=args.rate, slo_ms=args.slo_ms,
    )
    scenario = scenario.with_overrides(
        scale=args.scale, num_machines=args.machines,
        trainers_per_machine=args.trainers_per_machine, serving=spec,
    )
    return _run_serving(scenario, seed=args.seed, trace_dir=args.trace_dir)


def _cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: replay a scenario, then narrate one node's decisions.

    The replay runs the tiered-cache pipeline with the requested scored
    policies inside a :func:`~repro.cache.scoring.capture_decisions` session;
    recording is pure observation, so the replayed decisions are exactly what
    a non-captured run of the same scenario/seed would make.
    """
    scenario = SCENARIOS.build(args.scenario).with_overrides(
        scale=args.scale, epochs=args.epochs
    )
    cache_config = CacheConfig(
        tiers=args.cache_tiers,
        admission=args.admission,
        eviction=args.eviction,
        record_decisions=True,
    )

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
    scenario = SCENARIOS.build("uniform").with_overrides(
        dataset=args.dataset, scale=args.scale, num_machines=args.machines,
        batch_size=args.batch_size, backend=args.backend, epochs=args.epochs,
    )
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
    space = None
    if args.axis:
        axes = {}
        for item in args.axis:
            name, sep, values = item.partition("=")
            if not sep:
                raise ValueError(f"--axis expects NAME=V1[,V2...], got {item!r}")
            canonical, parsed = parse_axis_values(name.strip(), values)
            if canonical in axes:
                raise ValueError(f"axis {canonical!r} given more than once")
            axes[canonical] = parsed
        space = SearchSpace(axes)
    report = TuneRunner(
        scenario=args.scenario, objective=args.objective, space=space,
        strategy=args.strategy, budget=args.budget, seed=args.seed,
        scale=args.scale, epochs=args.epochs, parallelism=args.parallel,
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
