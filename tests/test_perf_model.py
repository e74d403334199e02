"""Tests for the analytical performance model (Eqs. 2-6, 9) and trade-off quadrants."""

import math

import pytest

from repro.perf import model as pm
from repro.perf import tradeoffs as tr
from repro.perf.lookahead import simulate_lookahead, steady_state_step_time
from test_golden_cluster import golden_cluster_run

NAN, INF = float("nan"), float("inf")


def comp(**kwargs):
    defaults = dict(t_sampling=0.1, t_rpc=0.5, t_copy=0.05, t_ddp=1.0, t_lookup=0.01, t_scoring=0.02)
    defaults.update(kwargs)
    return pm.StepComponents(**defaults)


class TestStepEquations:
    def test_baseline_eq2(self):
        assert pm.baseline_step_time(0.1, 0.5, 0.05, 1.0) == pytest.approx(0.1 + 0.5 + 1.0)

    def test_baseline_uses_max_of_rpc_copy(self):
        assert pm.baseline_step_time(0.1, 0.1, 0.4, 1.0) == pytest.approx(0.1 + 0.4 + 1.0)

    def test_prepare_eq3(self):
        assert pm.prepare_time(0.1, 0.01, 0.02, 0.5, 0.05) == pytest.approx(0.1 + 0.01 + 0.5)
        assert comp().t_prepare == pm.prepare_time(0.1, 0.01, 0.02, 0.5, 0.05)

    def test_prepare_scoring_dominates(self):
        assert comp(t_scoring=2.0).t_prepare == pytest.approx(0.1 + 0.01 + 2.0)

    def test_first_step_eq4(self):
        prep = comp().t_prepare
        assert pm.prefetch_first_step_time(prep, 1.0) == prep + max(prep, 1.0)

    def test_steady_step_eq5(self):
        assert pm.prefetch_steady_step_time(0.61, 1.0) == 1.0
        assert pm.prefetch_steady_step_time(1.5, 1.0) == 1.5


class TestBoundaryValidation:
    """Non-finite or negative times are rejected where they enter the model."""

    CASES = {
        "nan component": lambda: pm.predicted_speedup(comp(t_rpc=NAN)),
        "inf component": lambda: pm.total_time(comp(t_ddp=INF), 10, prefetch=True),
        "negative rpc in Eq. 6": lambda: pm.improvement_factor(
            pm.StepComponents(t_rpc=-1.0, t_ddp=1.0)),
        "nan steady state": lambda: steady_state_step_time(NAN, 1.0),
        "inf steady state": lambda: steady_state_step_time(1.0, INF),
        "zero workers": lambda: simulate_lookahead([1.0, 1.0], [1.0, 1.0], workers=0),
        "negative first prepare": lambda: simulate_lookahead([-5.0, 1.0], [1.0, 1.0]),
        "negative train time": lambda: simulate_lookahead([1.0, 1.0], [1.0, -1.0]),
        "nan train time": lambda: simulate_lookahead([1.0, 1.0], [NAN, 1.0]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rejected(self, case):
        with pytest.raises(ValueError):
            self.CASES[case]()


class TestTotalsAndSpeedups:
    def test_total_time_baseline_linear(self):
        assert pm.total_time(comp(), 10, prefetch=False) == pytest.approx(
            10 * pm.baseline_step_time(0.1, 0.5, 0.05, 1.0))

    def test_total_time_prefetch(self):
        prep = comp().t_prepare
        first, steady = pm.prefetch_first_step_time(prep, 1.0), pm.prefetch_steady_step_time(prep, 1.0)
        assert pm.total_time(comp(), 10, prefetch=True) == pytest.approx(first + 9 * steady)
        assert pm.total_time(comp(), 1, prefetch=True) == first

    def test_total_time_zero_steps(self):
        assert pm.total_time(comp(), 0, prefetch=True) == 0.0

    def test_prefetch_faster_when_overlap_possible(self):
        c = comp()  # t_prepare < t_ddp
        assert pm.total_time(c, 100, prefetch=True) < pm.total_time(c, 100, prefetch=False)

    def test_improvement_factor_eq6(self):
        c = comp(t_rpc=2.0, t_ddp=1.0)
        assert pm.improvement_factor(c) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            pm.improvement_factor(comp(t_ddp=0.0))

    def test_predicted_speedup_above_one_in_comm_bound_regime(self):
        # Baseline = 0.3 + 2.0 + 1.0 = 3.3; steady prefetch step = t_prepare = 2.31.
        c = comp(t_rpc=2.0, t_ddp=1.0, t_sampling=0.3)
        assert pm.predicted_speedup(c) == pytest.approx(3.3 / 2.31, rel=1e-2)
        assert pm.predicted_speedup(c) > 1.3

    def test_predicted_speedup_near_one_when_compute_bound(self):
        c = comp(t_rpc=0.001, t_copy=0.001, t_sampling=0.001, t_ddp=1.0)
        assert pm.predicted_speedup(c) == pytest.approx(1.0, abs=0.05)

    def test_overlap_efficiency_range(self):
        assert pm.overlap_efficiency(comp()) == pytest.approx(1.0)
        partial = pm.overlap_efficiency(comp(t_rpc=5.0))
        assert 0.0 < partial < 1.0
        assert pm.overlap_efficiency(comp(t_sampling=0, t_rpc=0, t_copy=0, t_lookup=0, t_scoring=0)) == 1.0


class TestEq9AndBreakdowns:
    def test_communication_stall(self):
        assert pm.communication_stall_time(0.5, 0.2) == pytest.approx(0.3)
        assert pm.communication_stall_time(0.1, 0.2) == 0.0

    def test_components_from_breakdown(self):
        breakdown = {"sampling": 2.0, "rpc": 4.0, "copy": 1.0, "ddp": 10.0, "allreduce": 2.0,
                     "lookup": 0.5, "scoring": 0.3, "eviction": 0.2}
        c = pm.components_from_breakdown(breakdown, num_steps=2)
        assert c.t_sampling == pytest.approx(1.0)
        assert c.t_ddp == pytest.approx(6.0)
        assert c.t_scoring == pytest.approx(0.25)
        with pytest.raises(ValueError):
            pm.components_from_breakdown(breakdown, 0)


def critical_path_mismatches(report, policy: str) -> list:
    """Per trainer: the summed critical paths of its steps vs its policy's clock seconds.

    The serial policy (Eq. 2) charges ``sampling + copy + rpc + ddp``; the
    overlapped one (Eqs. 3-5) charges ``ddp + stall``, where the run adds its
    barrier waits to ``stall`` as well.  One line per trainer that does not
    reconcile at rel 1e-12.
    """
    lines = []
    for stats, means in zip(report.trainer_stats, report.report.per_trainer_breakdown):
        clock = stats.components
        if policy == "serial":
            charged = clock["sampling"] + clock["copy"] + clock["rpc"] + clock["ddp"]
        else:
            charged = clock["ddp"] + clock.get("stall", 0.0) - stats.barrier_wait_s
        summed = means["critical_path"] * stats.num_steps
        if not math.isclose(summed, charged, rel_tol=1e-12):
            lines.append(f"trainer {stats.global_rank}: steps sum to {summed!r}, "
                         f"the clock was charged {charged!r}")
    return lines


class TestEngineAgainstModel:
    @pytest.mark.parametrize("pipeline, policy", [("baseline", "serial"),
                                                  ("prefetch", "overlapped")])
    def test_2x2_run_charges_the_model_critical_path(self, pipeline, policy):
        report = golden_cluster_run(pipeline)
        # A run is labelled with the PrefetchConfig only when its pipeline read one.
        assert report.report.config_description == {
            "baseline": "baseline", "prefetch": "f_h=0.35, gamma=0.995, delta=8",
        }[pipeline]
        assert len(report.trainer_stats) == 4
        assert all(stats.num_steps > 0 for stats in report.trainer_stats)
        assert critical_path_mismatches(report, policy) == []

    def test_mismatch_is_reported_per_trainer(self):
        report = golden_cluster_run("baseline")
        report.trainer_stats[1].components["ddp"] *= 1.001
        assert [line.split(":")[0] for line in critical_path_mismatches(report, "serial")] == [
            f"trainer {report.trainer_stats[1].global_rank}"]


class TestTradeoffQuadrants:
    def test_four_quadrants_distinct(self):
        names = {
            tr.classify_quadrant(g, d).name
            for g, d in [(0.99, 16), (0.5, 16), (0.5, 512), (0.99, 512)]
        }
        assert len(names) == 4

    def test_recommended_quadrant(self):
        info = tr.classify_quadrant(0.995, 512)
        assert info.name == "low-decay/long-interval"
        assert "recommended" in info.expected

    def test_quadrant_configs_cover_all(self):
        configs = tr.quadrant_configs()
        assert set(configs) == set(tr.QUADRANTS)
        for name, config in configs.items():
            assert tr.classify_quadrant(config.gamma, config.delta).name == name

    @pytest.mark.parametrize("gamma, delta, name", [
        (tr.LOW_DECAY_THRESHOLD, tr.LONG_INTERVAL_THRESHOLD, "low-decay/long-interval"),
        (0.8999, tr.LONG_INTERVAL_THRESHOLD, "high-decay/long-interval"),
        (tr.LOW_DECAY_THRESHOLD, tr.LONG_INTERVAL_THRESHOLD - 1, "low-decay/short-interval"),
        (0.0, 1, "high-decay/short-interval"),
        (1.0, 1024, "low-decay/long-interval"),
        (0.5, 16, "high-decay/short-interval"),
    ])
    def test_classify_quadrant_thresholds(self, gamma, delta, name):
        assert tr.classify_quadrant(gamma, delta).name == name

    def test_quadrant_table_matches_its_flags(self):
        for name, info in tr.QUADRANTS.items():
            assert info.name == name
            decay = "low-decay" if info.low_decay else "high-decay"
            interval = "long-interval" if info.long_interval else "short-interval"
            assert name == f"{decay}/{interval}"

    def test_short_intervals_carry_the_inspection_overhead(self):
        for info in tr.QUADRANTS.values():
            assert info.overhead.startswith("low") == info.long_interval

    def test_quadrant_configs_pass_their_arguments_through(self):
        configs = tr.quadrant_configs(halo_fraction=0.1, low_gamma=0.3, high_gamma=0.97,
                                      short_delta=8, long_delta=256)
        assert {c.halo_fraction for c in configs.values()} == {0.1}
        assert {(c.gamma, c.delta) for c in configs.values()} == {
            (0.97, 8), (0.3, 8), (0.3, 256), (0.97, 256)}
