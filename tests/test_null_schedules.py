"""Null stress schedules repeat the run without them, byte for byte.

A failure process that never fires, an elastic timeline with no membership
change and a congestion profile whose factors are 1 must each leave every
field of ``report.as_dict()`` exactly as the scenario run without the spec.
Failures and elastic membership are read only by the event-driven engine, so
they run on ``async-staleness``; congestion reaches every engine through the
RPC cost model, so it also runs on the lockstep ``uniform`` and
``cache-churn`` and the serving ``steady-poisson``.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.events.schedule import CongestionSpec, ElasticSpec, FailureSpec
from repro.scenarios import build_scenario

NULL_SPECS = {
    "failures": FailureSpec(rate=0.0),
    "elastic": ElasticSpec(),
    "congestion": CongestionSpec(latency_multiplier=1.0, bandwidth_divisor=1.0),
}
CASES = [("async-staleness", kind) for kind in NULL_SPECS] + [
    (name, "congestion") for name in ("uniform", "cache-churn", "steady-poisson")
]


@functools.lru_cache(maxsize=None)
def report_bytes(name, seed, kind=None):
    """``as_dict()`` of *name* at scale 0.05, one epoch, with one null spec or none."""
    spec = {kind: NULL_SPECS[kind]} if kind else {}
    report = build_scenario(name, seed=seed, scale=0.05, epochs=1, **spec).run()
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name, kind", CASES)
def test_null_schedule_repeats_the_run_without_it(name, kind, seed):
    assert report_bytes(name, seed, kind) == report_bytes(name, seed)
