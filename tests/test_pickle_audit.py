"""Pickle audit: every spec object that crosses a process boundary must round-trip.

The tuner's ``parallelism`` ships scenario recipes to ``ProcessPoolExecutor``
workers and gets ranked reports back; everything reachable from them — the
config and spec dataclasses, registry recipes, presets — must survive
``pickle.loads(pickle.dumps(x)) == x`` under any start method (``spawn``
inherits nothing, so equality after the round trip is the whole contract).
A config that pickles by reference to live state fails here first, not as a
hang inside a worker.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig
from repro.distributed.cost_model import CostModel
from repro.events.schedule import CongestionSpec, ElasticSpec, FailureSpec
from repro.graph.datasets import DatasetSpec, load_dataset
from repro.scenarios import SCENARIOS
from repro.serving.arrivals import ServingSpec
from repro.training.config import TrainConfig
from repro.tuning import Preset

SPEC_OBJECTS = {
    "cluster-config": ClusterConfig(
        num_machines=2, trainers_per_machine=2, batch_size=64,
        fanouts=(5, 10), seed=7,
    ),
    "cluster-config-loaded": ClusterConfig(
        num_machines=3, trainers_per_machine=1, batch_size=32, fanouts=(4,),
        seed=3, compute_multipliers=(2.0, 1.0, 1.0), rpc="batched", congestion=CongestionSpec(),
    ),
    "train-config": TrainConfig(epochs=2, hidden_dim=32, seed=1, evaluate=True),
    "prefetch-config": PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8),
    "cache-config": CacheConfig(tiers=2, admission="always", eviction="lru"),
    "cost-model-cpu": CostModel.preset("cpu"),
    "cost-model-gpu-scaled": CostModel.preset("gpu").scaled(rpc_latency_s=2.0),
    "failure-spec": FailureSpec(rate=0.05),
    "congestion-spec": CongestionSpec(),
    "elastic-spec": ElasticSpec(
        initially_inactive=(1, 3), joins=((1, 1.0e-3), (3, 1.0e-3)),
        leaves=((0, 2.0e-3),),
    ),
    "serving-spec": ServingSpec(),
    "dataset-spec": load_dataset("arxiv", scale=0.1, seed=0).spec,
    "tune-preset": Preset(
        name="audit", scenario="straggler-machine",
        overrides=(("engine", "async"), ("sync", "bounded-staleness")),
        objective="critical-path-s", score=0.0044, baseline_score=0.0047,
        improvement_percent=7.0, seed=0, strategy="grid", spec_hash="abc123",
    ),
}


@pytest.mark.parametrize("name", sorted(SPEC_OBJECTS))
def test_spec_round_trips(name):
    obj = SPEC_OBJECTS[name]
    clone = pickle.loads(pickle.dumps(obj))
    assert clone == obj
    assert type(clone) is type(obj)


def test_dataset_spec_type():
    assert isinstance(SPEC_OBJECTS["dataset-spec"], DatasetSpec)


def test_tune_report_round_trips():
    """A ranked TuneReport (candidates and all) survives pickling."""
    from repro.tuning.runner import CandidateResult, TuneReport

    report = TuneReport(
        scenario="straggler-machine", objective="critical-path-s",
        direction="min", strategy="grid", budget=None, seed=0,
        scale=0.05, epochs=1,
        space=(("sync", ("allreduce-barrier", "bounded-staleness")),),
        baseline_score=0.0047,
        evaluated=((("sync", "allreduce-barrier"),), (("sync", "bounded-staleness"),)),
        candidates=(
            CandidateResult(rank=1, overrides=(("sync", "bounded-staleness"),),
                            score=0.0044, improvement_percent=7.0),
            CandidateResult(rank=2, overrides=(("sync", "allreduce-barrier"),),
                            score=0.0047, improvement_percent=0.0),
        ),
        spec_hash="abc123",
    )
    clone = pickle.loads(pickle.dumps(report))
    assert clone == report
    assert clone.best == report.candidates[0]
    assert clone.canonical_json() == report.canonical_json()


@pytest.mark.parametrize("name", SCENARIOS.names())
def test_registered_scenarios_round_trip(name):
    scenario = SCENARIOS.build(name)
    assert pickle.loads(pickle.dumps(scenario)) == scenario

