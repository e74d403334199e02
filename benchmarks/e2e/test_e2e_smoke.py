"""Plumbing test of the end-to-end benchmark at smoke scale (no timing is asserted)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run as e2e  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = [sys.executable, str(HERE / "run.py")]
# Layers that must read exactly 0 because the workload never calls into them.
ABSENT = {
    "train_prefetch": ("cache.", "events.", "serving."),
    "train_hub_bulk": ("cache.", "events.", "serving."),
    "train_churn_async": ("core.", "serving."),
    "serve_steady": ("core.", "training.", "distributed.allreduce", "nn.backward", "nn.optim"),
}


def values(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    """One traced smoke pass per workload, in this process."""
    return {w.name: e2e.bench_traced(w.smoke(), 0, 0.0, True) for w in WORKLOADS}


@pytest.fixture(scope="module")
def protocol():
    """``run.py --smoke``: the whole protocol in worker processes, same seed."""
    proc = subprocess.run(RUN + ["--smoke"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "CHECK FAILED" not in proc.stdout
    for workload in WORKLOADS:
        assert f"[{workload.name}] seed 0: 2 pooled segments" in proc.stdout
        assert f"trace_{workload.name}.json" in proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_describes_this_harness():
    spec = e2e.SPEC
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    setup = e2e.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    assert set(e2e.SIMULATED) < set(e2e.END_TO_END)
    assert spec["paths"] == ["benchmarks/e2e"] and spec["command"][-1] == "benchmarks/e2e/run.py"


def test_every_workload_emits_every_metric(traced, protocol):
    for workload in WORKLOADS:
        out = traced[workload.name]
        assert out["problems"] == [], workload.name
        result = out["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(e2e.PER_LAYER)
        assert all(entry["unit"] == e2e.PER_LAYER[key]["unit"]
                   for key, entry in result["metrics"].items())
        assert list(protocol["per_layer"][workload.name]) == list(e2e.PER_LAYER)
        end_to_end = protocol["end_to_end"][workload.name]
        assert sorted(end_to_end) == sorted(e2e.END_TO_END)
        assert all(v > 0 for v in end_to_end.values()), workload.name


def test_same_seed_repeats_every_simulated_number(traced, protocol):
    """In this process and in the protocol's worker processes, bit for bit."""
    for workload in WORKLOADS:
        here = values(traced[workload.name]["result"])
        there = protocol["per_layer"][workload.name]
        exact = [k for k in here if ".sim_" in k or k.endswith(("_calls", "_per_op", ".calls"))
                 or k.startswith(("graph.edge", "graph.halo_nodes", "nn.final",
                                  "cache.hit_rate", "core.hit_rate"))]
        exact.remove("sampling.host_us_per_op")
        assert "trace.pycalls_per_op" in exact and len(exact) > 30
        assert {k: here[k] for k in exact} == {k: there[k] for k in exact}, workload.name


def test_cli_result_line_repeats_the_protocol_simulated_metrics(protocol):
    proc = subprocess.run(
        RUN + ["--workload", "serve_steady", "--seed", "0", "--seconds", "0",
               "--trace", "0", "--smoke"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == list(e2e.END_TO_END)
    pooled = protocol["end_to_end"]["serve_steady"]
    assert {k: values(result)[k] for k in e2e.SIMULATED} == {k: pooled[k] for k in e2e.SIMULATED}


def test_host_shares_fit_in_the_run_and_absent_layers_read_zero(traced):
    for name, out in traced.items():
        metrics = values(out["result"])
        shares = {k: v for k, v in metrics.items() if k.endswith(("host_share", "self_share"))}
        assert all(v >= 0 for v in shares.values())
        assert sum(shares.values()) <= 1.0 + 1e-9, name
        assert 0.5 < metrics["trace.coverage"] <= 1.0
        for prefix in ABSENT[name]:
            zeros = {k: v for k, v in metrics.items() if k.startswith(prefix)}
            assert zeros and all(v == 0 for v in zeros.values()), (name, zeros)
        assert metrics["distributed.rpc_wire_over_logical"] <= 1.0


def test_tracer_nests_spans_and_restores_every_binding():
    import repro.features.store
    import repro.scenarios.registry
    import repro.training.backends
    from repro.cache.tier import CacheTier
    from repro.distributed.rpc import BatchedRPCChannel, RPCChannel
    from repro.events.sync import BoundedStalenessPolicy

    def bindings():
        return [
            vars(CacheTier)["admit"], vars(RPCChannel)["remote_pull"],
            vars(BatchedRPCChannel)["remote_pull"], vars(BoundedStalenessPolicy)["can_start"],
            repro.training.backends.train_step, repro.scenarios.registry.load_dataset,
            repro.features.store.check_1d_int_array,
        ]

    before = bindings()
    tracer = spans.Tracer()
    with tracer:
        assert all(hasattr(b, "__wrapped__") for b in bindings())
        e2e.workloads.run_segment(WORKLOADS[2].smoke(), WORKLOADS[2].smoke().build(), 0)
    assert all(a is b for a, b in zip(before, bindings()))
    assert tracer._patches == [] and tracer._stack == []
    assert len(tracer.spans) > 100 and tracer.parents_nest()
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_worker_that_hangs_is_a_failed_worker(monkeypatch, capsys):
    def hang(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(e2e.subprocess, "run", hang)
    assert e2e.worker("serve_steady", 0, 0.0, 0, True, echo=False) is None
    assert "no result" in capsys.readouterr().out


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_steady", "--seed", "0",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0 and "{" not in proc.stdout
