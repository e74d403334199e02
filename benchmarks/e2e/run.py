"""End-to-end benchmark of the MassiveGNN reproduction (see README.md beside this file).

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  ``--trace 0`` measures the end-to-end
    metrics with tracing off; ``--trace 1`` makes the traced pass and reports
    the per-layer metrics.  The last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``run.py [--seed N] [--seconds S] [--smoke] [--selfcheck]``
    The whole protocol: 4 rounds, each visiting every workload in a fresh
    worker process (the form above), samples pooled per workload, then one
    traced pass per workload; ends with one JSON line of everything measured.
    ``--selfcheck`` does it twice and compares.

Every number is either **simulated** time (what the modelled cluster would
take: deterministic, repeats exactly) or **host** time (what this Python
program takes on this machine: noisy, sampled as described in README.md).
"""

from __future__ import annotations

import os

# One BLAS thread: two threads fighting over two shared vCPUs made
# process_time read 2x wall here.  Must precede the first NumPy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs the checkout's own sources")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Segment, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
SIMULATED = ("sim_critical_path_s", "sim_speedup_vs_baseline", "halo_hit_rate",
             "sim_rpc_mb_per_op", "sim_p99_ms")
ROUNDS = 4                # of the protocol; 1 under --smoke
MIN_SEGMENTS = 8          # per worker; the contract's time cap may cut it, never below 6
SMOKE_SEGMENTS = 2
TRACED_PAIRS = 3          # untraced/traced segment pairs of the traced pass, at least
SAMPLE_KEYS = ("run_s", "run_load", "setup_s", "setup_load")
OUT_DIR = HERE / "out"


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def reference_s(wall: Sequence[float], load: Sequence[float]) -> float:
    """Median of ``wall / load`` in seconds on the reference (idle) machine.

    This VM has quiet spells, in which the fastest quarter of raw wall times
    repeats within 1-2%, and loaded spells lasting many minutes, in which 20 s
    windows of identical work had fastest-quarter means 13-29% apart
    (README.md has both measured on the same samples).  Each sample is
    therefore divided by the load measured around it and scaled by the
    canary's idle time.  The work is deterministic, so what is left after
    that is two-sided sampling noise, and the median takes care of it.
    """
    return statistics.median(w / l for w, l in zip(wall, load)) * workloads.CANARY_REF_S


def fastest_quarter_s(wall: Sequence[float]) -> float:
    """Mean of the fastest quarter of raw wall times: the floor on a quiet machine."""
    ordered = sorted(wall)
    return statistics.fmean(ordered[:max(1, len(ordered) // 4)])


def describe(wall: Sequence[float], load: Sequence[float]) -> str:
    """The reported value, then raw wall time and machine load as information only."""
    ordered = sorted(wall)
    p90 = ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]
    return (f"reference {reference_s(wall, load):.4f} | wall fastest quarter "
            f"{fastest_quarter_s(wall):.4f} median {statistics.median(ordered):.4f} "
            f"p90 {p90:.4f} n={len(ordered)} | machine at "
            f"{workloads.CANARY_REF_S / statistics.median(load):.0%} of idle speed")


def host_metrics(samples: dict) -> Dict[str, float]:
    """The three host end-to-end metrics from one worker's (or the pooled) samples."""
    return {
        "host_ops_per_s": samples["ops"] / reference_s(samples["run_s"], samples["run_load"]),
        "setup_s": reference_s(samples["setup_s"], samples["setup_load"]),
        "peak_rss_mb": samples["rss_mb"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------------- #
class Tally:
    """Ops attempted/failed and the violated checks of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, seg: Segment) -> None:
        self.attempted += seg.ops_expected
        self.failed += seg.ops_failed
        self.problems.extend(seg.violations)

    def require(self, ok: bool, message: str) -> None:
        """A check on the benchmark's own invariants (not one op's outcome)."""
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def result(self, metrics: Dict[str, float], spec: Dict[str, dict]) -> dict:
        self.require(set(metrics) == set(spec),
                     f"metric names differ from BENCHMARK.json: {set(metrics) ^ set(spec)}")
        return {
            "correct": not self.problems,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": spec[name]["unit"]}
                        for name in spec if name in metrics},
        }


def bench_untraced(workload: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    """End-to-end metrics, tracing off.  Returns the result plus raw samples."""
    scenario = workload.build()
    min_segments = SMOKE_SEGMENTS if smoke else MIN_SEGMENTS
    tally = Tally()
    if not smoke:  # discarded: imports, allocator, caches
        workloads.run_segment(workload, scenario, seed)
    samples = {key: [] for key in SAMPLE_KEYS}
    outcomes = []  # (ops, simulated cost, simulated metrics) per segment
    start = time.perf_counter()
    while len(outcomes) < min_segments or time.perf_counter() - start < seconds:
        seg = workloads.run_segment(workload, scenario, seed)
        tally.add(seg)
        if seg.report is None:
            break  # the work is deterministic: a run() that raised will raise again
        for key in SAMPLE_KEYS:
            samples[key].append(getattr(seg, key))
        outcomes.append((seg.ops_done, workloads.sim_cost(seg.report),
                         workloads.sim_metrics(seg.built, seg.report, seg.ops_done)))
        del seg  # one cluster resident at a time, or peak RSS counts the history
    if not outcomes:
        return {"result": tally.result({}, END_TO_END), "problems": tally.problems}
    samples["rss_mb"] = peak_rss_mb()  # before the baseline run, which is not the workload
    samples["ops"], cost, sim = outcomes[0]
    tally.require(all(o == outcomes[0] for o in outcomes),
                  "segments of one workload returned different simulated metrics")

    baseline = workloads.run_segment(workload, scenario, seed, pipeline="baseline")
    tally.add(baseline)
    speedup = workloads.sim_cost(baseline.report) / cost if baseline.report is not None else 0.0

    metrics = host_metrics(samples)
    metrics.update(sim, sim_speedup_vs_baseline=speedup)
    return {"result": tally.result(metrics, END_TO_END), "problems": tally.problems,
            "samples": samples}


def bench_traced(workload: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    """The traced pass: per-layer metrics, Chrome trace, side-by-side table.

    Untraced and traced segments alternate, so both kinds see the same
    machine, and the per-layer numbers are read from the fastest traced one.
    """
    scenario = workload.build()
    tally = Tally()

    def nothing_measured() -> dict:
        return {"result": tally.result({}, PER_LAYER), "problems": tally.problems}

    untraced_s, traced_s, loads = [], [], []
    start = time.perf_counter()
    while (len(traced_s) < (1 if smoke else TRACED_PAIRS)
           or time.perf_counter() - start < seconds):
        plain = workloads.run_segment(workload, scenario, seed)
        recorder, positions = spans.Tracer(), []
        with recorder:
            seg = workloads.run_segment(
                workload, scenario, seed, between=lambda: positions.append(recorder.mark()))
            positions.append(recorder.mark())
        tally.add(plain)
        tally.add(seg)
        if plain.report is None or seg.report is None:
            return nothing_measured()
        reference = workloads.sim_metrics(plain.built, plain.report, plain.ops_done)
        tally.require(
            workloads.sim_metrics(seg.built, seg.report, seg.ops_done) == reference,
            "a traced segment changed a simulated metric")
        tally.require(recorder.parents_nest(), "a span is not nested inside its parent")
        untraced_s.append(plain.run_s)
        loads += [plain.run_load, seg.run_load]
        if not traced_s or seg.run_s < min(traced_s):
            traced, tracer, marks = seg, recorder, positions
        traced_s.append(seg.run_s)
    calls = [0]

    def profiled(call):
        report, calls[0] = spans.count_calls(call)
        return report

    counted = workloads.run_segment(workload, scenario, seed, around_run=profiled)
    tally.add(counted)
    if counted.report is None:
        return nothing_measured()
    tally.require(
        workloads.sim_metrics(counted.built, counted.report, counted.ops_done) == reference,
        "the profiled segment changed a simulated metric")
    setup_totals = tracer.totals(until=marks[0])
    run_totals = tracer.totals(since=marks[0], until=marks[1])
    seeds_sampled = run_totals.count("sampling.seeds")
    seeds_owned = (traced.ops_expected if workload.serving else
                   sum(len(t.seeds_local) for t in traced.built.cluster.trainers)
                   * traced.built.scenario.epochs)
    tally.require(seeds_sampled == seeds_owned,
                  f"{seeds_sampled} seeds sampled, {seeds_owned} owned: not once per epoch")

    wall = traced.run_s
    engine_loop_s = run_totals.method_self_s("training", "run") + run_totals.method_self_s(
        "serving", "run")
    trace_metrics = {
        # Share of run() wall inside a named span below the engine's own loop.
        "trace.coverage": 1.0 - engine_loop_s / wall,
        # Raw wall, fastest against fastest: the tracer's cost, not the machine's.
        "trace.overhead": min(traced_s) / min(untraced_s) - 1.0,
        "trace.pycalls_per_op": calls[0] / max(counted.ops_done, 1),
        "trace.canary_ms": statistics.median(loads) * 1e3,
    }
    metrics = layers.per_layer(traced, setup_totals, run_totals, wall, trace_metrics)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload.name}.json"
    tracer.write_chrome_trace(str(trace_path))
    return {
        "result": tally.result(metrics, PER_LAYER),
        "problems": tally.problems,
        "table": layers.layer_table(run_totals, traced.report, wall),
        "trace_path": str(trace_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }


# --------------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------------- #
def print_metrics(title: str, metrics: Dict[str, dict], spec: Dict[str, dict]) -> None:
    print(title)
    for name, entry in metrics.items():
        kind = ("simulated" if name in SIMULATED or ".sim_" in name else "")
        print(f"  {name:<40} {entry['value']:>16.6g} {spec[name]['unit']:<6} {kind}")


def print_table(workload: str, rows: List[tuple]) -> None:
    print(f"[{workload}] host seconds (this program) beside simulated seconds (the modelled "
          f"cluster, mean per trainer)")
    print(f"  {'layer':<12} {'host_s':>9} {'share':>7}   {'sim_s':>10} {'share':>7}  components")
    for layer, host, host_share, sim_s, sim_share, parts in rows:
        print(f"  {layer:<12} {host:>9.4f} {host_share:>7.1%}   {sim_s:>10.6f} "
              f"{sim_share:>7.1%}  {parts}")


def run_one(args: argparse.Namespace) -> int:
    workload = BY_NAME[args.workload].smoke() if args.smoke else BY_NAME[args.workload]
    bench = bench_traced if args.trace else bench_untraced
    out = bench(workload, args.seed, args.seconds, args.smoke)
    result = out["result"]
    spec = PER_LAYER if args.trace else END_TO_END
    print_metrics(f"[{workload.name}] seed {args.seed}, "
                  f"{'traced pass' if args.trace else 'tracing off'}", result["metrics"], spec)
    if "samples" in out:
        samples = out["samples"]
        print(f"  run() s   {describe(samples['run_s'], samples['run_load'])}")
        print(f"  setup s   {describe(samples['setup_s'], samples['setup_load'])}")
        print("#samples " + json.dumps(out["samples"]))
    if "table" in out:
        print_table(workload.name, out["table"])
        print(f"  {out['spans']} spans -> {out['trace_path']}")
    for problem in out["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  ops attempted {result['attempted']}  failed {result['failed']}")
    if not result["metrics"]:
        return 1  # nothing was measured: no result line
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------------- #
# The whole protocol: rounds x workloads in worker processes, pooled
# --------------------------------------------------------------------------- #
def worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
           echo: bool) -> Optional[dict]:
    """Run one workload in a fresh process; returns its parsed output or None."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result after 600 s")
        return None
    lines = proc.stdout.splitlines()
    if echo or proc.returncode != 0:
        print("\n".join(line for line in lines if not line.startswith(("#samples", "{"))))
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        return None
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("#samples "):
            out["samples"] = json.loads(line[len("#samples "):])
    return out


def protocol(seed: int, seconds: float, smoke: bool) -> Optional[Dict[str, dict]]:
    """Pooled end-to-end metrics per workload; ``None`` if any check failed.

    Rounds interleave the workloads so each one's samples span the whole
    benchmark and a slow minute hits all workloads alike.
    """
    ok = True
    pooled: Dict[str, dict] = {}
    for round_index in range(1 if smoke else ROUNDS):
        for w in WORKLOADS:
            out = worker(w.name, seed, seconds, 0, smoke, echo=False)
            if out is None:
                print(f"round {round_index} {w.name}: worker failed")
                ok = False
                continue
            samples, result = out["samples"], out["result"]
            sim = {k: result["metrics"][k]["value"] for k in SIMULATED}
            pool = pooled.setdefault(w.name, {
                **{key: [] for key in SAMPLE_KEYS}, "ops": samples["ops"], "rss_mb": 0.0,
                "sim": sim, "attempted": 0, "failed": 0})
            for key in SAMPLE_KEYS:
                pool[key] += samples[key]
            pool["rss_mb"] = max(pool["rss_mb"], samples["rss_mb"])
            pool["attempted"] += result["attempted"]
            pool["failed"] += result["failed"]
            if pool["sim"] != sim:
                print(f"round {round_index} {w.name}: simulated metrics differ between rounds")
                ok = False
            ok = ok and result["correct"]
            print(f"round {round_index} {w.name:<18} run() "
                  f"{describe(samples['run_s'], samples['run_load'])}")

    summary: Dict[str, dict] = {}
    for name, pool in pooled.items():
        summary[name] = metrics = {**host_metrics(pool), **pool["sim"]}
        print_metrics(
            f"\n[{name}] seed {seed}: {len(pool['run_s'])} pooled segments, "
            f"{sum(pool['run_s']):.1f} s of timed run(), ops attempted {pool['attempted']} "
            f"failed {pool['failed']}",
            {k: {"value": metrics[k]} for k in END_TO_END}, END_TO_END)
        print(f"  run() s   {describe(pool['run_s'], pool['run_load'])}")
        print(f"  setup s   {describe(pool['setup_s'], pool['setup_load'])}")

    print("\ntraced pass (one segment per workload)")
    per_layer: Dict[str, dict] = {}
    for w in WORKLOADS:
        out = worker(w.name, seed, seconds, 1, smoke, echo=True)
        ok = ok and out is not None and out["result"]["correct"]
        if out is not None:
            per_layer[w.name] = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    print(json.dumps({"seed": seed, "end_to_end": summary, "per_layer": per_layer}))
    return summary if ok and len(summary) == len(WORKLOADS) else None


def selfcheck(first: Dict[str, dict], second: Dict[str, dict]) -> bool:
    """Two protocol runs of the same code must agree within each metric's bound."""
    ok = True
    print(f"\n{'workload':<18} {'metric':<24} {'first':>14} {'second':>14} {'gap':>8} {'bound':>6}")
    for w in WORKLOADS:
        for name, spec in END_TO_END.items():
            a, b = first[w.name][name], second[w.name][name]
            gap = abs(b - a) / abs(a) if a else float(b != a)
            within = gap <= spec["bound"] and (name not in SIMULATED or a == b)
            ok = ok and within
            bound = "exact" if name in SIMULATED else f"{spec['bound']:.2f}"
            print(f"{w.name:<18} {name:<24} {a:>14.6g} {b:>14.6g} {gap:>8.2%} "
                  f"{bound:>6}{'' if within else '  <-- outside'}")
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long one worker measures (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, 1 round, 2 segments: a plumbing check, not a measurement")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the protocol twice and compare against the bounds")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.workload is not None:
        return run_one(args)
    first = protocol(args.seed, args.seconds, args.smoke)
    if first is None:
        return 1
    if args.selfcheck:
        second = protocol(args.seed, args.seconds, args.smoke)
        if second is None or not selfcheck(first, second):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
