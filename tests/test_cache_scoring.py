"""Tests for the scored cache policies (``repro.cache.scoring``).

Property tests for the scorer's invariants (bound ordering, decayed-count
convergence, mode monotonicity, replay determinism), the scored admission/
eviction policies, the online weight learner, and the two degree-heuristic
regression pins this PR ships: constant-degree graphs must not freeze
``degree-weighted`` admission, and the adaptive controller's re-split must
not oscillate under identical hit rates (banker's rounding).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    AdaptiveCapacityController,
    CacheTier,
    PrefetchScorer,
    ScoredAdmission,
    capture_decisions,
)
from repro.cache.scoring import DECAY, SCORERS, active_decision_log, build_scorer

DIM = 4


def make_server(num_ids: int = 200):
    return np.arange(num_ids * DIM, dtype=np.float32).reshape(num_ids, DIM)


def ids_of(*values):
    return np.asarray(values, dtype=np.int64)


def degree_mod7(ids):
    return np.asarray(ids) % 7 + 1


def run_workload(tier: CacheTier, server: np.ndarray, seed: int = 0,
                 steps: int = 40, batch: int = 6) -> None:
    """Drive a tier through a reproducible random lookup/admit stream."""
    rng = np.random.default_rng(seed)
    for step in range(steps):
        ids = np.sort(rng.choice(len(server), size=batch, replace=False))
        hit_mask, _ = tier.lookup(ids, step)
        missing = ids[~hit_mask]
        if len(missing):
            tier.admit(missing, server[missing], step)


# --------------------------------------------------------------------------- #
# Scorer properties
# --------------------------------------------------------------------------- #
class TestScorerProperties:
    def test_bounds_always_bracket_the_score(self):
        rng = np.random.default_rng(1)
        scorer = PrefetchScorer()
        scorer.bind_degree_lookup(degree_mod7)
        for step in range(50):
            ids = rng.integers(0, 100, size=8)
            scorer.observe(ids, step, rng.random(8) < 0.5)
            probe = rng.integers(0, 120, size=16)  # includes unseen ids
            scores, lower, upper = scorer.score(probe, step)
            assert np.all(lower <= scores + 1e-12)
            assert np.all(scores <= upper + 1e-12)
            assert np.all(lower >= 0.0) and np.all(upper <= 1.0)

    def test_decayed_counts_converge_to_geometric_limit(self):
        # Observing the same id once per step converges c <- c*DECAY + 1
        # toward 1 / (1 - DECAY) from below, monotonically.
        scorer = PrefetchScorer()
        limit = 1.0 / (1.0 - DECAY)
        previous = 0.0
        for step in range(200):
            scorer.observe(ids_of(7), step, np.array([True]))
            count = float(scorer.decayed_count(ids_of(7), step)[0])
            assert previous < count < limit
            previous = count
        assert count == pytest.approx(limit, rel=1e-3)

    def test_decayed_counts_decay_when_unseen(self):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(3), 0, np.array([True]))
        assert float(scorer.decayed_count(ids_of(3), 0)[0]) == pytest.approx(1.0)
        assert float(scorer.decayed_count(ids_of(3), 4)[0]) == pytest.approx(DECAY ** 4)
        # Unseen ids report zero.
        assert float(scorer.decayed_count(ids_of(99), 4)[0]) == 0.0

    def test_confidence_width_shrinks_with_observations(self):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(1), 0, np.array([True]))
        _, lo1, up1 = scorer.score(ids_of(1), 0)
        for step in range(1, 30):
            scorer.observe(ids_of(1), step, np.array([True]))
        _, lo2, up2 = scorer.score(ids_of(1), 29)
        assert (up2 - lo2) < (up1 - lo1)

    def test_registry_and_validation(self):
        assert "decayed" in SCORERS
        assert "ucb" in SCORERS  # alias
        assert isinstance(build_scorer("default"), PrefetchScorer)
        with pytest.raises(ValueError, match="mode"):
            ScoredAdmission(mode="optimistic")


# --------------------------------------------------------------------------- #
# Mode monotonicity: strict admits ⊆ conservative admits ⊆ bypass admits
# --------------------------------------------------------------------------- #
class TestModeMonotonicity:
    def _full_tier(self) -> CacheTier:
        server = make_server()
        tier = CacheTier("hot", 8, DIM, admission="scored", eviction="scored",
                         degree_of=degree_mod7)
        run_workload(tier, server, seed=3, steps=25)
        assert tier.size == tier.capacity  # the threshold comparison is live
        return tier

    def test_admit_sets_nest_across_modes(self):
        tier = self._full_tier()
        rng = np.random.default_rng(11)
        for _ in range(10):
            candidates = np.sort(rng.choice(200, size=10, replace=False))
            strict = ScoredAdmission(mode="strict").admit(tier, candidates)
            conservative = ScoredAdmission(mode="conservative").admit(tier, candidates)
            bypass = ScoredAdmission(mode="bypass").admit(tier, candidates)
            assert not np.any(strict & ~conservative)
            assert not np.any(conservative & ~bypass)
            assert bypass.all()


# --------------------------------------------------------------------------- #
# Replay determinism: same seed -> bit-identical decision ledgers
# --------------------------------------------------------------------------- #
class TestReplayDeterminism:
    def _ledger(self, seed: int):
        server = make_server()
        with capture_decisions() as log:
            tier = CacheTier("hot", 8, DIM, admission="scored", eviction="scored",
                             degree_of=degree_mod7)
            run_workload(tier, server, seed=seed)
        return [(i, r.as_dict()) for i, r in log.all_records()]

    def test_same_seed_ledgers_are_bit_identical(self):
        assert self._ledger(5) == self._ledger(5)

    def test_different_seeds_diverge(self):
        assert self._ledger(5) != self._ledger(6)

    def test_recording_is_pure_observation(self):
        # The resident set after a captured run equals the uncaptured run's.
        server = make_server()
        with capture_decisions():
            observed = CacheTier("hot", 8, DIM, admission="scored",
                                 eviction="scored", degree_of=degree_mod7)
            run_workload(observed, server, seed=9)
        plain = CacheTier("hot", 8, DIM, admission="scored", eviction="scored",
                          degree_of=degree_mod7)
        run_workload(plain, server, seed=9)
        np.testing.assert_array_equal(observed.resident_ids, plain.resident_ids)

    def test_capture_sessions_do_not_nest(self):
        with capture_decisions():
            assert active_decision_log() is not None
            with pytest.raises(RuntimeError, match="nest"):
                with capture_decisions():
                    pass  # pragma: no cover
        assert active_decision_log() is None


# --------------------------------------------------------------------------- #
# Scored policies on a live tier
# --------------------------------------------------------------------------- #
class TestScoredPolicies:
    def test_eviction_removes_lowest_upper_bound(self):
        server = make_server()
        tier = CacheTier("hot", 4, DIM, admission="always", eviction="scored",
                         degree_of=degree_mod7)
        resident = ids_of(10, 20, 30, 40)
        tier.lookup(resident, 0)
        tier.admit(resident, server[resident], 0)
        # Re-access all but node 30, so 30 has the stalest stats.
        hot = ids_of(10, 20, 40)
        for step in range(1, 6):
            tier.lookup(hot, step)
        _, _, upper = tier.scorer.score(tier.resident_ids, tier.last_step)
        weakest = int(tier.resident_ids[int(np.argmin(upper))])
        tier.lookup(ids_of(55), 6)
        tier.admit(ids_of(55), server[ids_of(55)], 6)
        assert weakest not in tier.resident_ids
        assert 55 in tier.resident_ids

    def test_ledger_records_every_action_kind(self):
        server = make_server()
        with capture_decisions() as log:
            # Strict mode so the run also exercises rejections (conservative's
            # wide upper bounds clear the low resident quantile almost always).
            tier = CacheTier("hot", 6, DIM, admission="scored-strict",
                             eviction="scored", degree_of=degree_mod7)
            run_workload(tier, server, seed=2, steps=30)
        actions = {r.action for _, r in log.all_records()}
        assert actions == {"admit", "reject", "evict"}
        for _, record in log.all_records():
            assert record.lower_bound <= record.score <= record.upper_bound
            assert record.reason
            d = record.as_dict()
            assert d["node_id"] == record.node_id

    def test_online_scorer_learns_and_is_idempotent(self):
        server = make_server()
        tier = CacheTier("hot", 8, DIM, admission="scored-online",
                         eviction="scored", degree_of=degree_mod7)
        assert tier.scorer.online
        before = tier.scorer.weights.copy()
        run_workload(tier, server, seed=4, steps=30)
        assert tier.scorer.end_epoch() is not None
        after = tier.scorer.weights.copy()
        assert not np.allclose(before, after)
        assert after.sum() == pytest.approx(1.0)
        assert np.all(after > 0)
        # Second call without traffic is a no-op (shared-tier idempotence).
        assert tier.scorer.end_epoch() is None
        np.testing.assert_array_equal(after, tier.scorer.weights)

    def test_offline_scorer_end_epoch_returns_none(self):
        tier = CacheTier("hot", 8, DIM, admission="scored", eviction="scored",
                         degree_of=degree_mod7)
        run_workload(tier, make_server(), seed=4, steps=10)
        assert not tier.scorer.online
        assert tier.scorer.end_epoch() is None


# --------------------------------------------------------------------------- #
# Regression: degree-weighted admission on constant-degree graphs
# --------------------------------------------------------------------------- #
class TestConstantDegreeRegression:
    def test_constant_degree_graph_does_not_freeze(self):
        # Every node has the same degree, so every candidate ties the
        # resident median.  The old strict '>' comparison rejected all of
        # them once the tier filled — a silent downgrade to static-degree.
        server = make_server()
        constant = lambda ids: np.full(len(np.asarray(ids)), 5, dtype=np.int64)
        tier = CacheTier("hot", 4, DIM, admission="degree-weighted",
                         eviction="lru", degree_of=constant)
        first = ids_of(0, 1, 2, 3)
        tier.lookup(first, 0)
        tier.admit(first, server[first], 0)
        assert tier.size == tier.capacity
        newcomers = ids_of(50, 51)
        tier.lookup(newcomers, 1)
        inserted = tier.admit(newcomers, server[newcomers], 1)
        assert inserted == len(newcomers)
        assert np.isin(newcomers, tier.resident_ids).all()


# --------------------------------------------------------------------------- #
# Regression: controller re-split must not oscillate (banker's rounding)
# --------------------------------------------------------------------------- #
class TestControllerRoundingRegression:
    def _controller(self, budget: int, hot_capacity: int):
        hot = CacheTier("hot", hot_capacity, DIM)
        shared = CacheTier("shared", budget - hot_capacity, DIM)
        controller = AdaptiveCapacityController(
            hot, shared, total_budget=budget,
            shared_contribution=budget - hot_capacity,
        )
        return hot, shared, controller

    @staticmethod
    def _traffic(tier: CacheTier, hits: int, misses: int) -> None:
        tier.stats.lookups += hits + misses
        tier.stats.hits += hits
        tier.stats.misses += misses

    def test_half_targets_round_half_up_not_to_even(self):
        # Equal hit rates on a budget of 5 target 2.5 hot rows.  Banker's
        # round() gave 2 (nearest even); the explicit half-up rule gives 3.
        hot, shared, controller = self._controller(budget=5, hot_capacity=3)
        self._traffic(hot, hits=10, misses=10)
        self._traffic(shared, hits=10, misses=10)
        adjustment = controller.end_epoch()
        assert adjustment is not None
        assert adjustment.hot_capacity == 3

    def test_identical_hit_rates_never_oscillate(self):
        hot, shared, controller = self._controller(budget=5, hot_capacity=3)
        capacities = []
        for _ in range(6):
            self._traffic(hot, hits=10, misses=10)
            self._traffic(shared, hits=10, misses=10)
            controller.end_epoch()
            capacities.append((hot.capacity, shared.capacity))
        assert len(set(capacities)) == 1
        assert hot.capacity + shared.capacity == 5

    def test_zero_budget_is_guarded(self):
        hot, shared, controller = self._controller(budget=0, hot_capacity=0)
        self._traffic(hot, hits=1, misses=1)
        assert controller.end_epoch() is None
        assert hot.capacity == 0 and shared.capacity == 0


class TestExplainCLI:
    """End-to-end coverage for ``repro explain`` (the ledger's CLI surface)."""

    ARGS = ["explain", "--scenario", "hot-set-drift", "--scale", "0.05",
            "--epochs", "1", "--seed", "7"]

    def test_table_output_smoke(self, capsys):
        from repro.cli import main

        assert main([*self.ARGS, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'hot-set-drift' seed=7" in out
        assert "scored tier(s)" in out
        for column in ("step", "action", "lower", "upper", "threshold", "mode"):
            assert column in out
        assert "final state:" in out

    def test_json_replay_is_byte_identical(self, capsys):
        import json

        from repro.cli import main

        assert main([*self.ARGS, "--json"]) == 0
        first = capsys.readouterr().out
        assert main([*self.ARGS, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second  # same seed => bit-identical ledger via the CLI
        records = [json.loads(line) for line in first.splitlines()]
        assert records
        for record in records:
            assert record["action"] in ("admit", "reject", "evict")
            assert {"tier_index", "step", "node_id", "score", "lower_bound",
                    "upper_bound", "threshold", "mode", "reason"} <= record.keys()

    def test_unknown_node_exits_1_with_hint(self, capsys):
        from repro.cli import main

        assert main([*self.ARGS, "--node-id", "999999999"]) == 1
        err = capsys.readouterr().err
        assert "no recorded decisions" in err and "most-decided nodes:" in err

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["explain"])
        assert args.scenario == "hot-set-drift"
        assert args.admission == "scored" and args.eviction == "scored"
        assert args.node_id is None and args.limit == 20 and not args.json
