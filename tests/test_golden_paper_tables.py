"""Golden fixture for the paper's figures and tables.

``tests/golden/paper_tables.json`` pins the 19 tables the paper-figure benches
(Tables II-IV, Figs. 5-14, the look-ahead extension, the performance model,
the ablations and the cluster-scaling sweep) write to ``benchmarks/results/``
at their default scale (``REPRO_BENCH_SCALE=0.25``, ``REPRO_BENCH_EPOCHS=3``):

* one sha256 per result file, over its bytes;
* the file's headline cell (one named row and column), so a moved digest says
  *what* moved, fixture -> now.

Fig. 14's two MB columns are tracemalloc peaks, which depend on the allocator
and the Python version; their cells are masked before hashing (the layout
stays, so everything else in the file is still pinned byte for byte).  Every
other number in these tables is simulated and repeats exactly at a fixed seed.

Running the benches takes under a minute, so tier-1 runs only the checks of
the parsing and masking below.  ``--compare`` runs the benches and diffs
against the committed file (the CI golden-drift job runs it); if a change is
*intended* to move a paper table, regenerate and commit the fixture with it::

    PYTHONPATH=src python tests/test_golden_paper_tables.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.logging_utils import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"
GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_tables.json"

# result file stem: (bench script, headline row given by its leading cells,
# headline column).  Fig. 14 has no headline: every number in it is masked.
TABLES = {
    "table2_datasets": ("bench_table2_datasets.py", ("papers",), "analog |E|"),
    "table3_remote_nodes": ("bench_table3_remote_nodes.py", ("16",), "papers (halo/mb)"),
    "table4_optimal_params": ("bench_table4_optimal_params.py", ("products", "cpu"),
                              "improvement %"),
    "fig5_quadrants": ("bench_fig5_quadrants.py", ("low-decay/long-interval",), "hit rate"),
    "fig6_cpu_training_time": ("bench_fig6_training_time.py", ("papers", "2"),
                               "improv% (evict)"),
    "fig6_gpu_training_time": ("bench_fig6_training_time.py", ("papers", "2"),
                               "improv% (evict)"),
    "fig7_gat_papers": ("bench_fig7_gat.py", ("cpu",), "improv% (evict)"),
    "fig8_init_cost": ("bench_fig8_init_cost.py", ("products",), "init as % of training"),
    "fig9_component_breakdown": ("bench_fig9_breakdown.py", ("products", "cpu"),
                                 "overlap eff"),
    "fig10_hitrate_progression": ("bench_fig10_hitrate_progression.py", ("29",),
                                  "cumulative hit rate"),
    "fig11_rpc_reduction": ("bench_fig11_rpc_reduction.py", ("products",),
                            "comm reduction %"),
    "fig12_delta_sweep": ("bench_fig12_delta_sweep.py", ("0.995", "64"),
                          "improvement % vs baseline"),
    "fig13_gamma_sweep": ("bench_fig13_gamma_sweep.py", ("0.995",), "mean hit rate"),
    "fig14_peak_memory": ("bench_fig14_memory.py", None, None),
    "ext_lookahead_depth": ("bench_ext_lookahead.py", ("2",), "gain % vs depth 1"),
    "perfmodel_validation": ("bench_perfmodel.py", ("products", "cpu"), "measured speedup"),
    "ablation_eviction_policies": ("bench_ablations.py", ("score-threshold",),
                                   "improvement % vs baseline"),
    "ablation_partition_quality": ("bench_ablations.py", ("metis",), "improvement %"),
    "cluster_scaling": ("bench_cluster_scaling.py", ("uniform", "2"), "critical path s"),
}

# Host-dependent columns, masked before hashing.
MASKED = {"fig14_peak_memory": ("init peak MB", "train peak MB")}

# The benches' own defaults; a stray override in the caller's environment
# would silently produce tables at another scale.
SCALE_ENV = ("REPRO_BENCH_SCALE", "REPRO_BENCH_EPOCHS")


# --------------------------------------------------------------------------- #
# Reading a ``format_table`` table
# --------------------------------------------------------------------------- #
def _layout(lines: list) -> tuple:
    """``(separator line index, {column name: (start, end)})`` of the table."""
    for i, line in enumerate(lines):
        if line and set(line) <= {"-", "+"}:
            spans, start = {}, 0
            for width in map(len, line.split("-+-")):
                spans[lines[i - 1][start:start + width].strip()] = (start, start + width)
                start += width + 3
            return i, spans
    raise ValueError("no table separator line found")


def mask(text: str, columns) -> str:
    """*text* with every data cell of *columns* replaced by ``*`` (same width)."""
    lines = text.split("\n")
    sep, spans = _layout(lines)
    for i in range(sep + 1, len(lines)):
        for column in columns:
            start, end = spans[column]
            if lines[i][start:end]:
                lines[i] = lines[i][:start] + "*".ljust(end - start) + lines[i][end:]
    return "\n".join(lines)


def headline(text: str, row: tuple, column: str) -> str:
    """The cell under *column* in the first data row whose leading cells are *row*."""
    lines = text.split("\n")
    sep, spans = _layout(lines)
    ordered = sorted(spans.values())
    for line in lines[sep + 1:]:
        cells = tuple(line[a:b].strip() for a, b in ordered[:len(row)])
        if cells == row:
            start, end = spans[column]
            return line[start:end].strip()
    raise ValueError(f"no row starting with {row!r}")


def entry(stem: str, text: str) -> dict:
    """The fixture's view of one result file."""
    _, row, column = TABLES[stem]
    if stem in MASKED:
        text = mask(text, MASKED[stem])
    out = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if row is not None:
        out["headline"] = {"row": " / ".join(row), "column": column,
                           "value": headline(text, row, column)}
    return out


# --------------------------------------------------------------------------- #
# Tier-1 checks of the machinery (the benches themselves run under --compare)
# --------------------------------------------------------------------------- #
def _fig14_like(init_mb: float, train_mb: float) -> str:
    table = format_table(["pipeline", "init peak MB", "train peak MB"],
                         [["baseline", init_mb, train_mb], ["ratio", 1.0, 1.36]])
    return f"Fig. 14 analog.\n\n{table}\n"


def test_mask_hides_only_the_named_columns():
    a, b = _fig14_like(9.0, 4.11), _fig14_like(10.5, 3.9)
    assert a != b
    columns = MASKED["fig14_peak_memory"]
    assert mask(a, columns) == mask(b, columns)
    assert mask(a, columns).count("*") == 4
    assert mask(a, columns) != mask(a.replace("baseline", "prefetch"), columns)


def test_headline_reads_the_named_cell():
    text = format_table(["dataset", "backend", "speedup"],
                        [["arxiv", "cpu", 1.5], ["products", "cpu", 1.7],
                         ["products", "gpu", 1.2]])
    assert headline(text, ("products", "gpu"), "speedup") == "1.2"
    assert headline(text, ("products",), "speedup") == "1.7"
    with pytest.raises(ValueError):
        headline(text, ("papers",), "speedup")


def test_every_table_is_written_by_its_script_and_in_the_fixture():
    for stem, (script, _, _) in TABLES.items():
        assert f'"{stem}"' in (BENCH_DIR / script).read_text(), stem
    assert sorted(_load()) == sorted(TABLES)


# --------------------------------------------------------------------------- #
def run_benches() -> dict:
    """Run every paper-table bench at its defaults; ``{stem: file text}``."""
    for stem in TABLES:
        (RESULTS_DIR / f"{stem}.txt").unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCALE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    scripts = sorted({f"benchmarks/{script}" for script, _, _ in TABLES.values()})
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--benchmark-disable", *scripts],
                   cwd=REPO_ROOT, env=env, check=True)
    return {stem: (RESULTS_DIR / f"{stem}.txt").read_text() for stem in TABLES}


def _generate() -> dict:
    return {stem: entry(stem, text) for stem, text in run_benches().items()}


def _moved(actual: dict, expected: dict) -> list:
    """``stem: headline fixture -> now`` for every file whose digest moved."""
    lines = []
    for stem in sorted(set(actual) | set(expected)):
        now, then = actual.get(stem), expected.get(stem)
        if now is None or then is None:
            lines.append(f"{stem}: {'missing from fixture' if then is None else 'not produced'}")
        elif now != then:
            old, new = then.get("headline") or {}, now.get("headline") or {}
            where = f"[{old.get('row')}, {old.get('column')}]" if old else "(masked)"
            lines.append(f"{stem} {where}: {old.get('value')!r} -> {new.get('value')!r}"
                         " (sha256 moved)")
    return lines


def _load() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; regenerate with "
        f"PYTHONPATH=src python tests/test_golden_paper_tables.py --regenerate"
    )
    return json.loads(GOLDEN_PATH.read_text())


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    data = _generate()
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(data)} paper tables)")


def compare() -> int:
    """Run the benches and compare exactly; returns a process exit code."""
    if not GOLDEN_PATH.exists():
        print(f"missing golden fixture {GOLDEN_PATH}", file=sys.stderr)
        return 1
    lines = _moved(_generate(), json.loads(GOLDEN_PATH.read_text()))
    if lines:
        print("paper table drift detected (headline fixture -> now):", file=sys.stderr)
        for line in lines:
            print(f"  {line}", file=sys.stderr)
        print(f"({len(lines)} tables moved) if the change is intended, regenerate with "
              "PYTHONPATH=src python tests/test_golden_paper_tables.py --regenerate "
              "and commit the fixture with it", file=sys.stderr)
        return 1
    print(f"all {len(TABLES)} paper tables match {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    elif "--compare" in sys.argv:
        sys.exit(compare())
    else:
        print(__doc__)
        sys.exit(2)
