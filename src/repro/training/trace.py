"""The experiment index: the paper's tables and figures as data.

The mapping from the paper's table/figure numbers to the benchmark target and
the modules that implement it (DESIGN.md's per-experiment index) is available
programmatically, so tooling (the CLI's ``experiments`` command, docs
generators) cannot drift from the code.  Run traces are not written here:
``repro run --trace-dir`` dumps ``ClusterReport.as_dict()`` /
``ServingReport.as_dict()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


# --------------------------------------------------------------------------- #
# Experiment registry (DESIGN.md per-experiment index, as data)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec:
    """One paper table/figure and how this repository regenerates it."""

    experiment_id: str
    paper_reference: str
    description: str
    bench_target: str
    modules: tuple
    workload: str


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "table2", "Table II", "Dataset statistics of the OGB analogs",
            "benchmarks/bench_table2_datasets.py",
            ("repro.graph.datasets", "repro.graph.generators"),
            "all four dataset analogs",
        ),
        ExperimentSpec(
            "table3", "Table III", "Average remote nodes and minibatches per trainer",
            "benchmarks/bench_table3_remote_nodes.py",
            ("repro.graph.partition", "repro.distributed.cluster"),
            "4-16 trainers, constant batch size",
        ),
        ExperimentSpec(
            "table4", "Table IV", "Optimal (f_h, gamma, delta) per dataset/backend",
            "benchmarks/bench_table4_optimal_params.py",
            ("repro.training.sweep",),
            "reduced parameter grid, CPU and GPU backends",
        ),
        ExperimentSpec(
            "fig5", "Fig. 5", "Decay/interval trade-off quadrants",
            "benchmarks/bench_fig5_quadrants.py",
            ("repro.perf.tradeoffs", "repro.training.engine"),
            "one configuration per quadrant on products",
        ),
        ExperimentSpec(
            "fig6", "Fig. 6", "End-to-end GraphSAGE training time, CPU and GPU",
            "benchmarks/bench_fig6_training_time.py",
            ("repro.training.engine", "repro.core.prefetcher"),
            "4 datasets x 2 backends x 2 cluster sizes",
        ),
        ExperimentSpec(
            "fig7", "Fig. 7", "GAT on the papers analog",
            "benchmarks/bench_fig7_gat.py",
            ("repro.nn.gat", "repro.training.engine"),
            "2-head GAT, CPU and GPU backends",
        ),
        ExperimentSpec(
            "fig8", "Fig. 8", "Prefetcher initialization cost",
            "benchmarks/bench_fig8_init_cost.py",
            ("repro.core.prefetcher",),
            "products and papers analogs",
        ),
        ExperimentSpec(
            "fig9", "Fig. 9", "Component-wise time breakdown and overlap efficiency",
            "benchmarks/bench_fig9_breakdown.py",
            ("repro.training.telemetry", "repro.distributed.cost_model"),
            "products and papers, CPU and GPU",
        ),
        ExperimentSpec(
            "fig10", "Fig. 10", "Hit-rate progression across minibatches",
            "benchmarks/bench_fig10_hitrate_progression.py",
            ("repro.core.metrics",),
            "longer products training with eviction",
        ),
        ExperimentSpec(
            "fig11", "Fig. 11", "Remote-node and communication-time reduction",
            "benchmarks/bench_fig11_rpc_reduction.py",
            ("repro.distributed.rpc", "repro.perf.model"),
            "products and papers, CPU backend",
        ),
        ExperimentSpec(
            "fig12", "Fig. 12", "Eviction interval sweep per decay factor",
            "benchmarks/bench_fig12_delta_sweep.py",
            ("repro.training.sweep",),
            "delta sweep on products",
        ),
        ExperimentSpec(
            "fig13", "Fig. 13", "Decay factor sweep",
            "benchmarks/bench_fig13_gamma_sweep.py",
            ("repro.training.sweep",),
            "gamma sweep on products",
        ),
        ExperimentSpec(
            "fig14", "Fig. 14", "Peak memory, baseline vs prefetch",
            "benchmarks/bench_fig14_memory.py",
            ("repro.training.memory",),
            "papers analog, extreme configuration",
        ),
        ExperimentSpec(
            "perfmodel", "Eqs. 2-7", "Analytical performance model validation",
            "benchmarks/bench_perfmodel.py",
            ("repro.perf.model",),
            "model prediction vs simulated execution",
        ),
        ExperimentSpec(
            "ablations", "(extension)", "Eviction-policy and partition-quality ablations",
            "benchmarks/bench_ablations.py",
            ("repro.core.eviction", "repro.graph.partition"),
            "products analog",
        ),
    ]
}


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiments in a stable order."""
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS)]


def get_experiment(experiment_id: str) -> ExperimentSpec:
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]
