"""Tests for the scored cache policies (``repro.cache.scoring``).

Property tests for the scorer's invariants (bound ordering, decayed-count
convergence, replay determinism), its four features and confidence width
against their formulas, the scored admission/eviction policies,
and two degree-heuristic regression pins: constant-degree graphs must not
freeze ``degree-weighted`` admission, and the adaptive controller's re-split
must not oscillate under identical hit rates (banker's rounding).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cache import (
    AdaptiveCapacityController,
    CacheTier,
    PrefetchScorer,
    ScoredAdmission,
    capture_decisions,
)
from repro.cache.scoring import (
    CONFIDENCE,
    DECAY,
    DEGREE_SCALE,
    THRESHOLD_QUANTILE,
    WEIGHTS,
    ScoredEviction,
    active_decision_log,
)

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
        scorer = PrefetchScorer(degree_of=degree_mod7)
        for step in range(50):
            ids = rng.integers(0, 100, size=8)
            scorer.observe(ids, step)
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
            scorer.observe(ids_of(7), step)
            count = float(scorer.decayed_count(ids_of(7), step)[0])
            assert previous < count < limit
            previous = count
        assert count == pytest.approx(limit, rel=1e-3)

    def test_decayed_counts_decay_when_unseen(self):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(3), 0)
        assert float(scorer.decayed_count(ids_of(3), 0)[0]) == pytest.approx(1.0)
        assert float(scorer.decayed_count(ids_of(3), 4)[0]) == pytest.approx(DECAY ** 4)
        # Unseen ids report zero.
        assert float(scorer.decayed_count(ids_of(99), 4)[0]) == 0.0

    def test_confidence_width_shrinks_with_observations(self):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(1), 0)
        _, lo1, up1 = scorer.score(ids_of(1), 0)
        for step in range(1, 30):
            scorer.observe(ids_of(1), step)
        _, lo2, up2 = scorer.score(ids_of(1), 29)
        assert (up2 - lo2) < (up1 - lo1)

    def test_weights_are_the_pinned_normalised_constants(self):
        np.testing.assert_allclose(WEIGHTS, [0.1, 0.1, 0.75, 0.05], rtol=1e-12)
        assert WEIGHTS.sum() == pytest.approx(1.0)

    def test_an_unseen_node_without_lookups_scores_the_distance_weight(self):
        # Recency, frequency and degree are 0; an unknown distance counts as 1 hop.
        scores, _, _ = PrefetchScorer().score(ids_of(5, 9), 3)
        np.testing.assert_allclose(scores, WEIGHTS[3], rtol=1e-12)

    @pytest.mark.parametrize("distance,feature", [(0, 1.0), (1, 1.0), (2, 0.5), (4, 0.25)])
    def test_the_halo_distance_feature_is_the_inverse_hop_count(self, distance, feature):
        scorer = PrefetchScorer(distance_of=lambda ids: np.full(len(ids), distance))
        scores, _, _ = scorer.score(ids_of(5), 0)
        assert scores[0] == pytest.approx(WEIGHTS[3] * feature, rel=1e-12)

    @pytest.mark.parametrize("degree,feature", [(0, 0.0), (16, 0.5), (48, 0.75)])
    def test_the_degree_feature_saturates_at_the_degree_scale(self, degree, feature):
        assert feature == pytest.approx(degree / (degree + DEGREE_SCALE))
        scorer = PrefetchScorer(degree_of=lambda ids: np.full(len(ids), degree))
        scores, _, _ = scorer.score(ids_of(5), 0)
        assert scores[0] == pytest.approx(WEIGHTS[2] * feature + WEIGHTS[3], rel=1e-12)

    @pytest.mark.parametrize("elapsed", [0, 3])
    def test_recency_and_frequency_of_one_observation(self, elapsed):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(5), 2)
        count = DECAY ** elapsed
        scores, _, _ = scorer.score(ids_of(5), 2 + elapsed)
        expected = WEIGHTS[0] * DECAY ** elapsed + WEIGHTS[1] * count / (count + 1.0) + WEIGHTS[3]
        assert scores[0] == pytest.approx(expected, rel=1e-12)

    def test_confidence_width_follows_the_ucb_formula(self):
        scorer = PrefetchScorer()
        for step in range(4):
            scorer.observe(ids_of(1), step)
        scores, lower, upper = scorer.score(ids_of(1, 2), 10)
        counts = scorer.decayed_count(ids_of(1, 2), 10)
        width = CONFIDENCE * np.sqrt(np.log(12) / (counts + 1.0))
        np.testing.assert_allclose(lower, np.maximum(0.0, scores - width), rtol=1e-12)
        np.testing.assert_allclose(upper, np.minimum(1.0, scores + width), rtol=1e-12)
        assert counts[1] == 0.0 and width[1] > width[0]

    def test_observing_nothing_changes_nothing(self):
        scorer = PrefetchScorer()
        scorer.observe(np.zeros(0, dtype=np.int64), 5)
        assert scorer.nbytes() == 0
        # The latest step is still 0: a default-step score sees the first step's width.
        _, lower, upper = scorer.score(ids_of(1))
        assert upper[0] - WEIGHTS[3] == pytest.approx(CONFIDENCE * np.sqrt(np.log(2)))

    def test_repeated_ids_in_one_lookup_count_as_occurrences(self):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(4, 4, 9, 4), 0)
        np.testing.assert_allclose(scorer.decayed_count(ids_of(4, 9), 0), [3.0, 1.0])

    def test_an_older_step_does_not_move_the_latest_step_back(self):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(1), 5)
        scorer.observe(ids_of(2), 2)
        # Default-step reads are at step 5, where node 2 has decayed three steps.
        np.testing.assert_allclose(scorer.decayed_count(ids_of(1, 2)), [1.0, DECAY ** 3])

    def test_nbytes_grows_with_the_ids_seen(self):
        scorer = PrefetchScorer()
        scorer.observe(ids_of(1, 2), 0)
        two = scorer.nbytes()
        scorer.observe(ids_of(2, 3, 4), 1)
        assert two > 0 and scorer.nbytes() == 2 * two

    def test_an_empty_tier_thresholds_at_zero(self):
        assert PrefetchScorer().resident_threshold(np.zeros(0, dtype=np.int64), 4) == 0.0

    def test_the_threshold_is_the_low_resident_quantile(self):
        scorer = PrefetchScorer(degree_of=degree_mod7)
        for step in range(6):
            scorer.observe(ids_of(step, step + 3), step)
        resident = np.arange(10, dtype=np.int64)
        scores, _, _ = scorer.score(resident, 6)
        assert scorer.resident_threshold(resident, 6) == np.quantile(scores, THRESHOLD_QUANTILE)


# --------------------------------------------------------------------------- #
# Scored admission: the upper bound against the resident threshold
# --------------------------------------------------------------------------- #
class TestScoredAdmission:
    @staticmethod
    def _offers(free: int):
        """A full scored tier given *free* extra slots, and ten-candidate offers."""
        tier = CacheTier("hot", 8, DIM, admission="scored", eviction="scored",
                         degree_of=degree_mod7)
        run_workload(tier, make_server(), seed=3, steps=25)
        assert tier.size == tier.capacity
        tier.resize(tier.capacity + free)
        rng = np.random.default_rng(11)
        for _ in range(10):
            candidates = np.sort(rng.choice(200, size=10, replace=False))
            scores, _, upper = tier.scorer.score(candidates, tier.last_step)
            threshold = tier.scorer.resident_threshold(tier.resident_ids, tier.last_step)
            yield scores, upper >= threshold, ScoredAdmission().admit(tier, candidates)

    def test_full_tier_admits_exactly_the_upper_bounds_that_clear(self):
        decided = set()
        for _, clears, mask in self._offers(free=0):
            np.testing.assert_array_equal(mask, clears)
            decided.update(mask.tolist())
        assert decided == {False, True}

    def test_free_slots_go_to_the_best_scoring_rejects(self):
        filled = 0
        for scores, clears, mask in self._offers(free=1):
            assert not np.any(clears & ~mask)
            extra = np.flatnonzero(mask & ~clears)
            assert len(extra) == (0 if clears.all() else 1)
            if len(extra):
                assert scores[extra[0]] == scores[~clears].max()
                filled += 1
        assert filled

    def test_free_capacity_admits_the_whole_offer_without_a_threshold(self):
        with capture_decisions():
            tier = CacheTier("hot", 8, DIM, admission="scored", eviction="scored",
                             degree_of=degree_mod7)
            offer = ids_of(3, 40, 41, 90, 120)
            mask = ScoredAdmission().admit(tier, offer)
        assert mask.dtype == np.bool_ and mask.all()
        assert [r.node_id for r in tier.ledger] == offer.tolist()
        for record in tier.ledger:
            assert record.action == "admit" and math.isnan(record.threshold)
            assert record.reason == "free capacity covers the whole offer"

    def test_a_zero_capacity_tier_defends_nothing(self):
        # No residents, so the threshold is 0 and every upper bound clears it;
        # the tier itself then has no slot to give.
        tier = CacheTier("hot", 0, DIM, admission="scored", eviction="scored")
        assert ScoredAdmission().admit(tier, ids_of(1, 2, 3)).all()
        assert tier.admit(ids_of(1, 2, 3), make_server()[[1, 2, 3]], 0) == 0
        assert tier.stats.rejections == 3


# --------------------------------------------------------------------------- #
# Scored eviction: the lowest upper bounds leave first
# --------------------------------------------------------------------------- #
class TestScoredEviction:
    @staticmethod
    def _full_tier(capacity: int = 8) -> CacheTier:
        tier = CacheTier("hot", capacity, DIM, admission="scored", eviction="scored",
                         degree_of=degree_mod7)
        run_workload(tier, make_server(), seed=3, steps=25)
        assert tier.size == tier.capacity
        return tier

    @pytest.mark.parametrize("num_victims", [1, 2, 3, 8, 11])
    def test_victims_have_the_lowest_upper_bounds(self, num_victims):
        tier = self._full_tier()
        _, _, upper = tier.scorer.score(tier.resident_ids, tier.last_step)
        victims = ScoredEviction().select(tier, num_victims)
        assert victims.dtype == np.int64
        assert len(np.unique(victims)) == len(victims) == min(num_victims, tier.size)
        kept = np.setdiff1d(np.arange(tier.size), victims)
        if len(kept):
            assert upper[victims].max() <= upper[kept].min()

    @pytest.mark.parametrize("capacity,num_victims", [(0, 3), (8, 0), (8, -1)])
    def test_selects_nothing_from_an_empty_tier_or_for_no_victims(self, capacity, num_victims):
        tier = self._full_tier(capacity) if capacity else CacheTier(
            "hot", 0, DIM, admission="always", eviction="scored")
        victims = ScoredEviction().select(tier, num_victims)
        assert victims.dtype == np.int64 and len(victims) == 0

    def test_ties_break_by_resident_order(self):
        # Never-observed residents without lookups share one score and width.
        tier = CacheTier("hot", 5, DIM, admission="always", eviction="scored")
        ids = ids_of(4, 8, 15, 16, 23)
        tier.seed(ids, make_server()[ids])
        np.testing.assert_array_equal(ScoredEviction().select(tier, 3), [0, 1, 2])

    def test_every_victim_is_recorded_once(self):
        with capture_decisions():
            tier = self._full_tier()
        victims = ScoredEviction().select(tier, 3)
        evicted = [r for r in tier.ledger if r.action == "evict"][-3:]
        assert [r.node_id for r in evicted] == tier.resident_ids[victims].tolist()
        for record in evicted:
            assert record.mode == "evict-lowest-upper-bound"
            assert record.reason == "lowest upper bound among residents"
            assert math.isnan(record.threshold)


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
            tier = CacheTier("hot", 6, DIM, admission="scored",
                             eviction="scored", degree_of=degree_mod7)
            run_workload(tier, server, seed=2, steps=30)
        actions = {r.action for _, r in log.all_records()}
        assert actions == {"admit", "reject", "evict"}
        for _, record in log.all_records():
            assert record.lower_bound <= record.score <= record.upper_bound
            assert record.reason
            d = record.as_dict()
            assert d["node_id"] == record.node_id
            if record.action == "reject":
                assert record.mode == "conservative"
                assert record.upper_bound < record.threshold


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
        assert "cache = 1 tier, admission=scored, eviction=scored" in out
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
        assert args.eviction == "scored" and not hasattr(args, "admission")
        assert args.node_id is None and args.limit == 20 and not args.json

    def test_any_registered_eviction_replays(self, capsys):
        from repro.cli import main

        argv = ["explain", "--eviction", "degree-weighted", "--scale", "0.05",
                "--epochs", "1", "--limit", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "admission=scored, eviction=degree-weighted" in out
        assert "(showing the last 1 of" in out
        header = next(line for line in out.splitlines() if line.startswith("step"))
        assert [c.strip() for c in header.split("|")] == [
            "step", "tier", "action", "score", "lower", "upper", "threshold", "mode", "reason"]

    def test_unknown_eviction_lists_the_registry(self, capsys):
        from repro.cache.policies import CACHE_EVICTION_POLICIES
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--eviction", "fifo"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (error,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert "argument --eviction: invalid choice: 'fifo'" in error
        choices = error.split("(choose from ")[1].rstrip(")").replace("'", "")
        assert choices.split(", ") == CACHE_EVICTION_POLICIES.names()

    def test_admission_is_not_a_flag(self, capsys):
        from repro.cli import main

        # The replay always admits with 'scored'; the flag had no other choice.
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--admission", "scored"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --admission" in capsys.readouterr().err
