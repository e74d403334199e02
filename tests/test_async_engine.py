"""Differential, determinism, and behavior tests for the event-driven engine.

Three pillars:

* **bit-identity** — ``AsyncClusterEngine`` with ``sync="allreduce-barrier"``
  must reproduce the lockstep :class:`ClusterEngine` exactly (losses, clocks,
  barrier waits, RPC wire counters) on the golden 2x2 workload;
* **determinism** — same seed + schedule ⇒ identical event pop order and
  identical ``ClusterReport`` across runs, with event-loop ties broken by
  ``(timestamp, rank)``; the ``trainer-flaky`` failure replay is bit-identical;
* **semantics** — bounded staleness strictly reduces the straggler critical
  path and bounds how far trainers diverge; local SGD averages replicas at
  sync points; the lockstep engine rejects async-only knobs.
"""

import json

import numpy as np
import pytest

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.events.schedule import CongestionSpec, ElasticSpec, FailureSpec
from repro.events.sync import SYNC_POLICIES
from repro.graph.datasets import load_dataset
from repro.scenarios import build_scenario
from repro.serving.arrivals import ServingSpec
from repro.training.async_engine import AsyncClusterEngine
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig
from repro.training.engines import ENGINES, build_engine, sync_policy_options

PREFETCH = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("products", scale=0.05, seed=5)


def make_cluster(dataset, **overrides):
    kwargs = dict(num_machines=2, trainers_per_machine=2, batch_size=64,
                  fanouts=(5, 10), seed=7)
    kwargs.update(overrides)
    return SimCluster(dataset, ClusterConfig(**kwargs))


def run_async(dataset, sync="allreduce-barrier", sync_options=None, cluster_kwargs=None,
              train_kwargs=None, failures=None, record_events=False, pipeline="prefetch"):
    cluster = make_cluster(dataset, **(cluster_kwargs or {}))
    config = TrainConfig(epochs=2, hidden_dim=32, seed=1, **(train_kwargs or {}))
    engine = AsyncClusterEngine(cluster, config, sync=sync, sync_options=sync_options,
                                failures=failures, record_events=record_events)
    report = engine.run(pipeline, prefetch_config=PREFETCH)
    return engine, report


def canonical(report, drop_engine_keys=False):
    """JSON round-trip of the report dump (drops wall-clock noise)."""
    data = json.loads(json.dumps(report.as_dict(), sort_keys=True))
    if drop_engine_keys:
        data.pop("engine", None)
        data.pop("sync", None)
    return data


# --------------------------------------------------------------------------- #
# Bit-identity of the allreduce-barrier policy vs. the lockstep engine
# --------------------------------------------------------------------------- #
class TestBarrierBitIdentity:
    def test_golden_2x2_workload_bit_identical(self, dataset):
        lock = ClusterEngine(make_cluster(dataset), TrainConfig(epochs=2, hidden_dim=32, seed=1))
        lock_report = lock.run("prefetch", prefetch_config=PREFETCH)
        _, async_report = run_async(dataset)
        assert canonical(async_report, drop_engine_keys=True) == canonical(lock_report)

    def test_losses_and_wire_counters_exact(self, dataset):
        lock = ClusterEngine(make_cluster(dataset), TrainConfig(epochs=2, hidden_dim=32, seed=1))
        lock_report = lock.run("prefetch", prefetch_config=PREFETCH)
        _, async_report = run_async(dataset)
        assert lock_report.report.loss_history == async_report.report.loss_history
        for a, b in zip(lock_report.trainer_stats, async_report.trainer_stats):
            assert a.rpc_stats == b.rpc_stats
            assert a.simulated_time_s == b.simulated_time_s
            assert a.barrier_wait_s == b.barrier_wait_s
            assert b.sync_stats == {}  # barrier adds no async extras

    def test_bit_identical_on_straggler_cluster(self, dataset):
        hetero = {"compute_multipliers": (2.5, 1.0)}
        lock = ClusterEngine(
            make_cluster(dataset, **hetero), TrainConfig(epochs=2, hidden_dim=32, seed=1)
        )
        lock_report = lock.run("prefetch", prefetch_config=PREFETCH)
        _, async_report = run_async(dataset, cluster_kwargs=hetero)
        assert canonical(async_report, drop_engine_keys=True) == canonical(lock_report)

    def test_bit_identical_with_step_cap(self, dataset):
        cap = {"max_steps_per_epoch": 2}
        lock = ClusterEngine(
            make_cluster(dataset), TrainConfig(epochs=2, hidden_dim=32, seed=1, **cap)
        )
        lock_report = lock.run("prefetch", prefetch_config=PREFETCH)
        _, async_report = run_async(dataset, train_kwargs=cap)
        assert canonical(async_report, drop_engine_keys=True) == canonical(lock_report)

    def test_bit_identical_on_batched_rpc_channel(self, dataset):
        """The owner-coalescing window is shared machine-wide state, so this
        pins two things at once: the barrier policy's rank-ordered round
        execution and the engine opening each step's window before the
        pipeline's fetch (both regressions would show up as swapped wire
        counters)."""
        batched = {"rpc": "batched"}
        lock = ClusterEngine(
            make_cluster(dataset, **batched), TrainConfig(epochs=2, hidden_dim=32, seed=1)
        )
        lock_report = lock.run("prefetch", prefetch_config=PREFETCH)
        _, async_report = run_async(dataset, cluster_kwargs=batched)
        assert canonical(async_report, drop_engine_keys=True) == canonical(lock_report)

    def test_baseline_pipeline_bit_identical(self, dataset):
        lock = ClusterEngine(make_cluster(dataset), TrainConfig(epochs=2, hidden_dim=32, seed=1))
        lock_report = lock.run("baseline")
        cluster = make_cluster(dataset)
        async_report = AsyncClusterEngine(
            cluster, TrainConfig(epochs=2, hidden_dim=32, seed=1)
        ).run("baseline")
        assert canonical(async_report, drop_engine_keys=True) == canonical(lock_report)

    def test_report_tagged_with_engine_and_sync(self, dataset):
        _, report = run_async(dataset)
        assert report.engine == "async"
        assert report.sync == "allreduce-barrier"
        assert report.summary()["engine"] == "async"
        assert report.as_dict()["engine"] == "async"

    def test_lockstep_report_has_no_engine_keys(self, dataset):
        lock = ClusterEngine(make_cluster(dataset), TrainConfig(epochs=1, hidden_dim=32, seed=1))
        report = lock.run("prefetch", prefetch_config=PREFETCH)
        assert report.engine is None
        assert "engine" not in report.as_dict()
        assert "engine" not in report.summary()


# --------------------------------------------------------------------------- #
# Event-order determinism
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_identical_event_order_and_report(self, dataset):
        runs = [
            run_async(dataset, sync="bounded-staleness", sync_options={"staleness": 2},
                      cluster_kwargs={"compute_multipliers": (2.5, 1.0)},
                      record_events=True)
            for _ in range(2)
        ]
        (eng_a, rep_a), (eng_b, rep_b) = runs
        assert eng_a.event_history == eng_b.event_history
        assert canonical(rep_a) == canonical(rep_b)

    def test_event_history_nonempty_and_typed(self, dataset):
        engine, _ = run_async(dataset, record_events=True)
        kinds = {kind for kind, *_ in engine.event_history}
        assert kinds == {"step-ready", "step-done"}

    def test_ties_broken_by_rank_in_history(self, dataset):
        engine, _ = run_async(dataset, record_events=True)
        history = engine.event_history
        # Simulated time never runs backwards.
        for (_, t1, _, _), (_, t2, _, _) in zip(history, history[1:]):
            assert t1 <= t2, "event timestamps must be non-decreasing"
        # Heap invariant: if event b popped after event a but was pushed
        # before a popped (seq_b < seq_a ⇒ the two were co-pending), then a
        # must sort strictly below b on (timestamp, rank, seq) — rank is the
        # tie-break at equal timestamps.  (The direct rank tie-break unit
        # test lives in test_event_loop.py; barrier releases push in rank
        # order, so seq inversions at equal timestamps don't arise here.)
        for i, (_, t_a, r_a, s_a) in enumerate(history):
            for _, t_b, r_b, s_b in history[i + 1:]:
                if s_b < s_a:
                    assert (t_a, r_a, s_a) < (t_b, r_b, s_b), (
                        "co-pending events must pop in (timestamp, rank, seq) order"
                    )
        # Barrier releases do produce simultaneous events: ties must exist.
        times = [t for _, t, _, _ in history]
        assert len(times) != len(set(times)), "a barrier run must contain timestamp ties"

    def test_flaky_replay_bit_identical(self, dataset):
        spec = FailureSpec(rate=0.1)
        runs = [
            run_async(dataset, sync="bounded-staleness", sync_options={"staleness": 3},
                      failures=spec, record_events=True)
            for _ in range(2)
        ]
        (eng_a, rep_a), (eng_b, rep_b) = runs
        assert eng_a.event_history == eng_b.event_history
        assert canonical(rep_a) == canonical(rep_b)
        kinds = {kind for kind, *_ in eng_a.event_history}
        assert "fail" in kinds and "recover" in kinds
        total_failures = sum(
            t.sync_stats.get("failures", 0.0) for t in rep_a.trainer_stats
        )
        assert total_failures >= 1
        total_downtime = sum(
            t.sync_stats.get("downtime_s", 0.0) for t in rep_a.trainer_stats
        )
        assert total_downtime > 0
        downtime_ledger = sum(
            t.components.get("downtime", 0.0) for t in rep_a.trainer_stats
        )
        assert downtime_ledger == pytest.approx(total_downtime)

    def test_different_failure_seed_changes_run(self, dataset):
        spec = FailureSpec(rate=0.1)
        _, rep_a = run_async(dataset, failures=spec,
                             cluster_kwargs={"seed": 7})
        _, rep_b = run_async(dataset, failures=spec,
                             cluster_kwargs={"seed": 8})
        assert canonical(rep_a) != canonical(rep_b)


# --------------------------------------------------------------------------- #
# Sync-policy semantics
# --------------------------------------------------------------------------- #
class TestBoundedStaleness:
    def test_strictly_reduces_straggler_critical_path(self, dataset):
        hetero = {"compute_multipliers": (2.5, 1.0)}
        lock = ClusterEngine(
            make_cluster(dataset, **hetero), TrainConfig(epochs=2, hidden_dim=32, seed=1)
        ).run("prefetch", prefetch_config=PREFETCH)
        _, stale = run_async(dataset, sync="bounded-staleness",
                             sync_options={"staleness": 2}, cluster_kwargs=hetero)
        assert stale.critical_path_time_s < lock.critical_path_time_s
        assert stale.total_barrier_wait_s <= lock.total_barrier_wait_s

    def test_hidden_sync_time_recorded(self, dataset):
        _, report = run_async(dataset, sync="bounded-staleness",
                              sync_options={"staleness": 1})
        hidden = sum(t.sync_stats.get("hidden_sync_time_s", 0.0)
                     for t in report.trainer_stats)
        assert hidden > 0

    def test_same_minibatch_count_as_lockstep(self, dataset):
        lock = ClusterEngine(
            make_cluster(dataset), TrainConfig(epochs=2, hidden_dim=32, seed=1)
        ).run("prefetch", prefetch_config=PREFETCH)
        _, stale = run_async(dataset, sync="bounded-staleness",
                             sync_options={"staleness": 4})
        assert stale.report.num_minibatches == lock.report.num_minibatches

    def test_staleness_zero_matches_barrier_losses(self, dataset):
        """K=0 serializes rounds exactly like BSP, so the numerics coincide."""
        _, barrier = run_async(dataset)
        _, ssp0 = run_async(dataset, sync="bounded-staleness", sync_options={"staleness": 0})
        assert barrier.report.loss_history == ssp0.report.loss_history

    def test_invalid_staleness_rejected(self):
        with pytest.raises(ValueError):
            SYNC_POLICIES.build("bounded-staleness", staleness=-1)


class TestLocalSGD:
    def test_runs_and_averages(self, dataset):
        engine, report = run_async(dataset, sync="local-sgd",
                                   sync_options={"sync_period": 2})
        averages = sum(t.sync_stats.get("model_averages", 0.0)
                       for t in report.trainer_stats)
        assert averages > 0
        assert report.sync == "local-sgd(H=2)"
        assert 0.0 <= report.report.final_train_accuracy <= 1.0

    def test_determinism(self, dataset):
        reports = [
            run_async(dataset, sync="local-sgd", sync_options={"sync_period": 4})[1]
            for _ in range(2)
        ]
        assert canonical(reports[0]) == canonical(reports[1])

    def test_final_model_is_consensus(self, dataset):
        engine, _ = run_async(dataset, sync="local-sgd", sync_options={"sync_period": 4})
        model = engine.final_model
        # After on_run_end every replica equals the averaged parameters.
        policy_free_params = model.state_dict()
        assert all(np.all(np.isfinite(v)) for v in policy_free_params.values())

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            SYNC_POLICIES.build("local-sgd", sync_period=0)


class TestCongestion:
    def test_congestion_inflates_critical_path(self, dataset):
        _, clear = run_async(dataset)
        _, congested = run_async(
            dataset,
            cluster_kwargs={"congestion": CongestionSpec(latency_multiplier=20.0,
                                                         bandwidth_divisor=8.0)},
        )
        assert congested.critical_path_time_s > clear.critical_path_time_s

    def test_congested_run_deterministic(self, dataset):
        kwargs = {"congestion": CongestionSpec()}
        reports = [run_async(dataset, cluster_kwargs=kwargs)[1] for _ in range(2)]
        assert canonical(reports[0]) == canonical(reports[1])


# --------------------------------------------------------------------------- #
# ENGINES registry and scenario integration
# --------------------------------------------------------------------------- #
class TestEnginesRegistry:
    def test_names(self):
        assert set(ENGINES.names()) == {"lockstep", "async", "serving"}

    # engine x an option it does not take -> a word its one-line message must keep.
    UNSUPPORTED = [
        ("lockstep", {"sync": "bounded-staleness"}, "event-driven"),
        ("lockstep", {"sync": "local-sgd"}, "sync policy"),
        ("lockstep", {"failures": FailureSpec()}, "event-driven"),
        ("lockstep", {"elastic": ElasticSpec(leaves=((0, 1e-3),))}, "event-driven"),
        ("lockstep", {"serving": ServingSpec()}, "ServingSpec"),
        ("lockstep", {"record_events": True}, "record"),
        ("async", {"serving": ServingSpec()}, "ServingSpec"),
        ("serving", {"sync": "local-sgd"}, "sync policy"),
        ("serving", {"failures": FailureSpec(rate=0.1)}, "failures"),
        ("serving", {"elastic": ElasticSpec(leaves=((0, 1e-3),))}, "event-driven"),
    ]

    @pytest.mark.parametrize(
        "engine, option, word", UNSUPPORTED,
        ids=[f"{e}-{next(iter(o))}" for e, o, _ in UNSUPPORTED],
    )
    def test_unsupported_option_raises_one_format(self, engine, option, word):
        (name, value), = option.items()
        kwargs = dict(option)
        if engine == "serving":
            kwargs.setdefault("serving", ServingSpec())
        with pytest.raises(ValueError) as excinfo:
            build_engine(engine, None, None, **kwargs)  # rejected before construction
        message = str(excinfo.value)
        assert message.startswith(f"the {engine!r} engine does not take {name} (got ")
        assert word in message and "\n" not in message

    def test_defaults_and_empty_specs_are_accepted_everywhere(self, dataset):
        config = TrainConfig(epochs=1, hidden_dim=32, seed=1)
        for engine in ("lockstep", "async"):
            built = build_engine(
                engine, make_cluster(dataset), config, sync="allreduce-barrier",
                staleness=3, sync_period=8, elastic=ElasticSpec(), record_events=False,
            )
            assert type(built) is ENGINES.get(engine)

    def test_sync_policy_options_routing(self):
        assert sync_policy_options("bounded-staleness", staleness=3) == {"staleness": 3}
        assert sync_policy_options("local-sgd", sync_period=8) == {"sync_period": 8}
        assert sync_policy_options("allreduce-barrier", staleness=3, sync_period=8) == {}

    def test_async_scenarios_materialize_async_engines(self):
        for name in ("async-staleness", "trainer-flaky", "congested-link"):
            workload = build_scenario(name, scale=0.05)
            assert isinstance(workload.engine, AsyncClusterEngine), name

    def test_async_scenarios_run_deterministically(self):
        dumps = [
            canonical(build_scenario("trainer-flaky", scale=0.05, epochs=1).run())
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_unknown_engine_lists_valid_names(self, dataset):
        cluster = make_cluster(dataset)
        config = TrainConfig(epochs=1, hidden_dim=32, seed=1)
        with pytest.raises(ValueError, match="lockstep"):
            build_engine("nope", cluster, config)
