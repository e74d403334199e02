#!/usr/bin/env python3
"""Time the segment-reduce kernel against its floor on the blocks a scenario really produces.

ROADMAP item 7(b) asked for the floor of neighbour aggregation to be measured
before the kernel is touched again.  In NumPy the floor is the bare gather of
the edge rows (``values[rows]``): every aggregation must at least read them.
This script runs one epoch of a scenario, records the arguments of every
``repro.nn.tensor_utils._segment_reduce`` call, and for the largest block of
each kind prints milliseconds per call for

* ``kernel`` — the position-major kernel in ``src/``,
* ``oracle`` — the per-run-length loop it replaced (``tests/segment_oracle.py``),
* ``gather`` — the bare ``values[rows]`` gather, the floor,

each the fastest of ``--repeats`` batches (the box is shared; the minimum is
the reading least disturbed by neighbours).  It also checks, on every
recorded call, that kernel and oracle agree to the bit.

    PYTHONPATH=src python tools/segment_floor.py                      # hub-heavy blocks
    PYTHONPATH=src python tools/segment_floor.py --scenario uniform   # fan-out (10, 25) on products
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.nn import tensor_utils  # noqa: E402
from repro.scenarios import SCENARIOS  # noqa: E402
from segment_oracle import segment_reduce as oracle  # noqa: E402

# The overrides benchmarks/e2e gives `train_hub_bulk`; other scenarios run as shipped at --scale.
HUB_OVERRIDES = {"fanouts": (10, 25), "batch_size": 128, "rpc": "batched"}


def record_calls(scenario: str, scale: float) -> list:
    """Arguments of every kernel call during one epoch of *scenario* (seed 0)."""
    overrides = {"scale": scale, "epochs": 1, **(HUB_OVERRIDES if scenario == "hot-halo" else {})}
    workload = SCENARIOS.build(scenario).with_overrides(**overrides).materialize(0)
    calls, kernel = [], tensor_utils._segment_reduce

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    tensor_utils._segment_reduce = recording
    try:
        workload.run()
    finally:
        tensor_utils._segment_reduce = kernel
    return calls


def fastest_ms(fn, repeats: int, batch: int = 20) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        best = min(best, (time.perf_counter() - start) / batch)
    return best * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", default="hot-halo")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()

    calls = record_calls(args.scenario, args.scale)
    largest: dict = {}
    for call in calls:
        ufunc, values, ids, n, indptr, fill, rows = call
        assert tensor_utils._segment_reduce(*call).tobytes() == oracle(*call).tobytes(), "bits moved"
        kind = ("forward" if indptr is not None else "backward", values.shape[1:])
        if kind not in largest or len(ids) > len(largest[kind][2]):
            largest[kind] = call
    print(f"{args.scenario} @ scale {args.scale}: {len(calls)} kernel calls, all bit-equal to the "
          f"oracle; ms per call, fastest of {args.repeats} batches")
    print(f"{'block':<34} {'lengths':>7} {'kernel':>8} {'oracle':>8} {'gather':>8} {'kernel/gather':>14}")
    for (direction, width), call in sorted(largest.items(), key=lambda kv: -len(kv[1][2])):
        ufunc, values, ids, n, indptr, fill, rows = call
        index = rows if rows is not None else np.arange(len(ids))
        counts = np.bincount(ids, minlength=n)
        distinct = len(np.unique(counts[counts > 0]))
        kernel_ms = fastest_ms(lambda: tensor_utils._segment_reduce(*call), args.repeats)
        oracle_ms = fastest_ms(lambda: oracle(*call), args.repeats)
        gather_ms = fastest_ms(lambda: values[index], args.repeats)
        label = f"{direction} {len(ids)} edges x {'x'.join(map(str, width))} -> {n}"
        print(f"{label:<34} {distinct:>7} {kernel_ms:>8.3f} {oracle_ms:>8.3f} {gather_ms:>8.3f} "
              f"{kernel_ms / gather_ms:>13.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
