"""Elastic membership: spec validation, determinism, re-sharding semantics.

Pins the tentpole invariants of the elastic subsystem:

* **spec seam** — ``ElasticSpec`` follows the frozen-dataclass + eager
  validation idiom and the :class:`~repro.events.schedule.ScheduleSpec`
  protocol shared with ``FailureSpec``/``CongestionSpec``;
* **determinism** — same seed ⇒ identical event history and identical
  ``ClusterReport`` for every elastic scenario, run twice from scratch;
* **bit-identity** — a spec'd-but-empty ``ElasticSpec`` is indistinguishable
  from no spec at all, on both engines;
* **semantics** — joins add capacity at the next epoch boundary (post-join
  epochs beat the held-back baseline), a fully drained machine's partition
  is adopted by a surviving host, and migration time/bytes are booked on the
  receiving trainers;
* **overrides** — ``with_overrides`` rejects unknown fields and supports the
  ``UNSET`` sentinel for explicitly clearing optional fields.
"""

import json

import numpy as np
import pytest

from repro.events.schedule import (
    SCHEDULE_SPECS,
    CongestionSpec,
    ElasticSpec,
    FailureSpec,
    ScheduleSpec,
)
from repro.scenarios import UNSET, SCENARIOS, build_scenario
from repro.training.engines import ENGINES

ELASTIC_SCENARIOS = ("scale-out-burst", "cascading-failure", "rolling-upgrade")


def canonical(report):
    return json.loads(json.dumps(report.as_dict(), sort_keys=True))


def run_scenario(name, record=False, **overrides):
    workload = build_scenario(name, seed=7, scale=0.05, **overrides)
    if record:
        workload.engine.record_events = True
    report = workload.run()
    return workload, report


class TestScheduleSpecProtocol:
    def test_registry_covers_all_three_kinds(self):
        assert sorted(SCHEDULE_SPECS) == ["congestion", "elastic", "failures"]
        assert SCHEDULE_SPECS["elastic"] is ElasticSpec
        for kind, cls in SCHEDULE_SPECS.items():
            assert issubclass(cls, ScheduleSpec)
            assert cls.kind == kind

    def test_specs_validate_and_describe(self):
        specs = (
            FailureSpec(rate=0.08),
            CongestionSpec(),
            ElasticSpec(initially_inactive=(1,), joins=((1, 1e-3),)),
        )
        for spec in specs:
            spec.validate()  # re-runs eager validation, must not raise
            assert isinstance(spec.describe(), str) and spec.describe()

    def test_materialize_routes_through_the_protocol(self):
        schedule = ElasticSpec(joins=(), leaves=((0, 1e-3),)).materialize(4, 7)
        assert schedule.events == [(1e-3, "leave", 0)]
        failures = FailureSpec(rate=0.5).materialize(4, 7)
        assert failures is not None
        congestion = CongestionSpec()
        assert congestion.materialize(4, 7) is congestion

    def test_base_protocol_methods_are_abstract(self):
        base = ScheduleSpec()
        with pytest.raises(NotImplementedError):
            base.describe()
        with pytest.raises(NotImplementedError):
            base.materialize(4, 7)


class TestElasticSpecValidation:
    def test_defaults_are_empty(self):
        spec = ElasticSpec()
        assert spec.is_empty
        assert spec.describe() == "elastic(hold 0, +0, -0)"

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="duplicate"):
            ElasticSpec(initially_inactive=(1, 1))
        with pytest.raises(ValueError, match=">= 0"):
            ElasticSpec(initially_inactive=(-1,))
        with pytest.raises(ValueError, match="joins times"):
            ElasticSpec(joins=((0, -1.0),))
        with pytest.raises(ValueError, match="jitter_s"):
            ElasticSpec(jitter_s=-0.5)
        with pytest.raises(ValueError, match="cache_policy"):
            ElasticSpec(cache_policy="discard")

    def test_schedule_validates_against_world_size(self):
        with pytest.raises(ValueError, match="out of range"):
            ElasticSpec(initially_inactive=(7,), joins=((7, 1e-3),)).materialize(4, 0)
        with pytest.raises(ValueError, match="out of range"):
            ElasticSpec(leaves=((9, 1e-3),)).materialize(4, 0)
        with pytest.raises(ValueError, match="at least one rank"):
            ElasticSpec(initially_inactive=(0, 1)).materialize(2, 0)

    def test_schedule_enforces_alternation(self):
        with pytest.raises(ValueError, match="already active"):
            ElasticSpec(joins=((0, 1e-3),)).materialize(4, 0)
        with pytest.raises(ValueError, match="already inactive"):
            ElasticSpec(initially_inactive=(1,), leaves=((1, 1e-3),)).materialize(4, 0)
        # A legal leave -> rejoin -> leave chain passes.
        spec = ElasticSpec(leaves=((0, 1e-3), (0, 3e-3)), joins=((0, 2e-3),))
        assert spec.materialize(4, 0).total_events() == 3

    def test_jitter_is_seed_deterministic(self):
        spec = ElasticSpec(initially_inactive=(1,), joins=((1, 1e-3),), jitter_s=5e-4)
        a = spec.materialize(4, 7).events
        b = spec.materialize(4, 7).events
        c = spec.materialize(4, 8).events
        assert a == b
        assert a != c
        assert all(1e-3 <= t <= 1.5e-3 for t, _, _ in a)


class TestWithOverrides:
    def test_unknown_field_raises_with_valid_keys(self):
        scenario = SCENARIOS.build("uniform")
        with pytest.raises(ValueError, match="unknown scenario field"):
            scenario.with_overrides(chaos_rate=0.5)
        with pytest.raises(ValueError, match="valid fields"):
            scenario.with_overrides(scael=0.1)  # typo surfaces the field list
        # The removed process-pool knobs are unknown fields like any other.
        for removed in ({"execution_backend": "process-pool"}, {"workers": 2}):
            with pytest.raises(ValueError, match="unknown scenario field"):
                scenario.with_overrides(**removed)

    def test_none_still_means_keep(self):
        scenario = SCENARIOS.build("trainer-flaky")
        same = scenario.with_overrides(failures=None, scale=None)
        assert same.failures == scenario.failures
        assert same.scale == scenario.scale

    def test_unset_explicitly_clears_optional_fields(self):
        scenario = SCENARIOS.build("scale-out-burst")
        assert scenario.elastic is not None
        stripped = scenario.with_overrides(elastic=UNSET)
        assert stripped.elastic is None
        flaky = SCENARIOS.build("trainer-flaky").with_overrides(failures=UNSET)
        assert flaky.failures is None

    def test_unset_is_a_singleton_with_stable_repr(self):
        import pickle

        from repro.scenarios.registry import _Unset

        assert _Unset() is UNSET
        assert pickle.loads(pickle.dumps(UNSET)) is UNSET
        assert repr(UNSET) == "UNSET"


class TestEngineRejections:
    def test_lockstep_rejects_non_empty_elastic(self):
        with pytest.raises(ValueError, match="event-driven"):
            build_scenario("uniform", scale=0.05,
                           elastic=ElasticSpec(leaves=((0, 1e-3),)))

    def test_serving_rejects_non_empty_elastic(self):
        with pytest.raises(ValueError, match="event-driven"):
            build_scenario("steady-poisson", scale=0.05,
                           elastic=ElasticSpec(leaves=((0, 1e-3),)))

    def test_empty_spec_is_accepted_everywhere(self):
        for name in ("uniform", "async-staleness", "steady-poisson"):
            workload = build_scenario(name, scale=0.05, elastic=ElasticSpec())
            assert workload.engine is not None

    def test_replica_owning_policy_rejects_elastic(self):
        workload = build_scenario(
            "congested-link", scale=0.05,
            elastic=ElasticSpec(leaves=((0, 1e-3),)),
        )
        with pytest.raises(ValueError, match="sync policy"):
            workload.run()


class TestElasticDeterminism:
    @pytest.mark.parametrize("name", ELASTIC_SCENARIOS)
    def test_same_seed_same_history_and_report(self, name):
        wl_a, rep_a = run_scenario(name, record=True)
        wl_b, rep_b = run_scenario(name, record=True)
        assert wl_a.engine.event_history == wl_b.engine.event_history
        assert canonical(rep_a) == canonical(rep_b)
        kinds = {kind for kind, *_ in wl_a.engine.event_history}
        assert "rebalance" in kinds
        assert kinds & {"join", "leave"}

    def test_empty_spec_bit_identical_to_no_spec(self):
        base = canonical(build_scenario("async-staleness", seed=7, scale=0.05).run())
        spec = canonical(build_scenario("async-staleness", seed=7, scale=0.05,
                                        elastic=ElasticSpec()).run())
        assert base == spec

    def test_no_elastic_override_strips_the_schedule(self):
        _, stripped = run_scenario("scale-out-burst", elastic=UNSET)
        for t in stripped.trainer_stats:
            assert "joins" not in t.sync_stats
            assert "migration_bytes" not in t.sync_stats
            assert t.components.get("migration", 0.0) == 0.0


class TestElasticSemantics:
    def test_scale_out_burst_joins_add_capacity(self):
        _, report = run_scenario("scale-out-burst")
        stats = {t.global_rank: t for t in report.trainer_stats}
        assert sum(t.sync_stats.get("joins", 0.0) for t in stats.values()) == 2.0
        # Held-back ranks run no steps before joining but do step afterwards.
        assert stats[1].num_steps > 0 and stats[3].num_steps > 0
        # The joiners paid for their gained seed rows.
        assert stats[1].sync_stats.get("migration_bytes", 0.0) > 0
        assert stats[1].components.get("migration", 0.0) > 0

    def test_scale_out_burst_post_join_epochs_beat_held_baseline(self):
        # Baseline: the same two ranks held out for the whole run (the joins
        # stripped), so every epoch runs at half strength.
        _, elastic = run_scenario("scale-out-burst")
        _, held = run_scenario(
            "scale-out-burst", elastic=ElasticSpec(initially_inactive=(1, 3)),
        )
        post_join = elastic.report.epoch_records[-1].simulated_time_s
        held_last = held.report.epoch_records[-1].simulated_time_s
        assert post_join < held_last

    def test_cascading_failure_drained_partition_is_adopted(self):
        workload, report = run_scenario("cascading-failure")
        cluster = workload.cluster
        # Machine 0 fully drained: its partition re-registered on machine 1.
        assert cluster.partition_host(0) == 1
        assert cluster.servers[0] is not None
        stats = {t.global_rank: t for t in report.trainer_stats}
        assert stats[0].sync_stats.get("leaves", 0.0) == 1.0
        assert stats[1].sync_stats.get("leaves", 0.0) == 1.0
        # The adopters (machine 1's trainers) paid migration time.
        assert stats[2].components.get("migration", 0.0) > 0
        assert stats[3].components.get("migration", 0.0) > 0

    def test_rolling_upgrade_every_rank_leaves_and_returns(self):
        _, report = run_scenario("rolling-upgrade")
        for t in report.trainer_stats:
            assert t.sync_stats.get("leaves", 0.0) == 1.0
            assert t.sync_stats.get("joins", 0.0) == 1.0
            assert t.num_steps > 0

    def test_migration_time_reconciles_with_sync_stats(self):
        for name in ELASTIC_SCENARIOS:
            _, report = run_scenario(name)
            for t in report.trainer_stats:
                booked = t.components.get("migration", 0.0)
                ledger = (t.sync_stats.get("migration_s", 0.0)
                          + t.sync_stats.get("restore_s", 0.0))
                assert booked == pytest.approx(ledger), (name, t.global_rank)

    def test_rebalance_preserves_seed_coverage(self):
        workload, _ = run_scenario("scale-out-burst")
        cluster = workload.cluster
        for machine in range(cluster.config.num_machines):
            partition = cluster.partitions[machine]
            train_local = np.flatnonzero(
                cluster.dataset.train_mask[partition.owned_global]
            )
            locals_ = [
                t for t in cluster.trainers if t.machine == machine
            ]
            assigned = np.sort(np.concatenate([t.seeds_local for t in locals_]))
            np.testing.assert_array_equal(assigned, np.sort(train_local))

    def test_reset_restores_original_assignment(self):
        workload, first = run_scenario("cascading-failure")
        cluster = workload.cluster
        assert cluster.partition_host(0) == 1
        cluster.reset()
        assert cluster.partition_host(0) == 0
        for server in cluster._server_objects:
            assert server.migrations == 0
