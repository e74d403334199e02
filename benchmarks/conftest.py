"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
``docs/PAPER_MAP.md``).  The measured experiment runs inside the
pytest-benchmark fixture (so ``pytest benchmarks/ --benchmark-only`` times it),
and the paper-style result table is written to ``benchmarks/results/<name>.txt``
as well as echoed to stdout.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Dataset scale multiplier for benchmarks (override with REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


@pytest.fixture(scope="session")
def bench_epochs() -> int:
    """Training epochs per benchmark run (override with REPRO_BENCH_EPOCHS)."""
    return int(os.environ.get("REPRO_BENCH_EPOCHS", "3"))
