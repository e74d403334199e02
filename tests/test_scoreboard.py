"""Tests for the access (S_A) and eviction (S_E) scoreboards.

The S_A cases run on the dense layout and on the compact oracle
(``tests/scoreboard_oracle.py``) alike.
"""

import numpy as np
import pytest
from scoreboard_oracle import CompactAccessScoreboard

from repro.core.scoreboard import DenseAccessScoreboard, EvictionScores


HALO = np.array([2, 5, 9, 14, 20], dtype=np.int64)

LAYOUTS = {
    "dense": lambda halo: DenseAccessScoreboard(32, halo),
    "compact": CompactAccessScoreboard,
}


@pytest.fixture(params=sorted(LAYOUTS))
def scoreboard(request):
    return LAYOUTS[request.param](HALO)


class TestAccessScoreboards:
    def test_initial_scores_zero(self, scoreboard):
        np.testing.assert_allclose(scoreboard.get(HALO), 0.0)

    def test_increment(self, scoreboard):
        scoreboard.increment(np.array([5, 5, 9]))
        np.testing.assert_allclose(scoreboard.get(np.array([5, 9, 2])), [2.0, 1.0, 0.0])

    def test_set(self, scoreboard):
        scoreboard.set(np.array([2, 20]), np.array([-1.0, 3.0]))
        np.testing.assert_allclose(scoreboard.get(np.array([2, 20])), [-1.0, 3.0])

    def test_top_candidates_by_score(self, scoreboard):
        scoreboard.set(HALO, np.array([0.0, 5.0, 2.0, 7.0, 1.0]))
        top = scoreboard.top_candidates(2)
        np.testing.assert_array_equal(np.sort(top), [5, 14])

    def test_top_candidates_respects_exclusion(self, scoreboard):
        scoreboard.set(HALO, np.array([0.0, 5.0, 2.0, 7.0, 1.0]))
        top = scoreboard.top_candidates(2, exclude=np.array([14]))
        assert 14 not in top
        assert 5 in top

    def test_top_candidates_degree_tiebreak(self, scoreboard):
        scoreboard.set(HALO, np.array([3.0, 3.0, 3.0, 0.0, 0.0]))
        degrees = np.zeros(32, dtype=np.int64)
        degrees[2], degrees[5], degrees[9] = 1, 50, 10
        top = scoreboard.top_candidates(1, degrees=degrees)
        np.testing.assert_array_equal(top, [5])

    def test_top_candidates_zero_k(self, scoreboard):
        assert len(scoreboard.top_candidates(0)) == 0

    def test_nbytes_positive(self, scoreboard):
        assert scoreboard.nbytes() > 0

    def test_compact_smaller_than_dense(self):
        dense = DenseAccessScoreboard(10_000, HALO)
        compact = CompactAccessScoreboard(HALO)
        assert compact.nbytes() < dense.nbytes()

    def test_compact_rejects_non_halo(self):
        compact = CompactAccessScoreboard(HALO)
        with pytest.raises(KeyError):
            compact.increment(np.array([3]))

    def test_dense_rejects_non_halo(self):
        # Non-halo entries of the O(|V|) array are NaN; they are never written.
        dense = DenseAccessScoreboard(32, HALO)
        for touch in (dense.increment, dense.get,
                      lambda ids: dense.set(ids, np.ones(len(ids)))):
            with pytest.raises(KeyError, match=r"nodes \[3\] are not halo nodes"):
                touch(np.array([5, 3]))
        np.testing.assert_allclose(dense.get(HALO), 0.0)

    @pytest.mark.parametrize("halo", [HALO, np.zeros(0, dtype=np.int64)])
    @pytest.mark.parametrize("kind", ["dense", "compact"])
    def test_empty_query_returns_empty(self, kind, halo):
        board = LAYOUTS[kind](halo)
        empty = np.zeros(0, dtype=np.int64)
        board.increment(empty)
        board.set(empty, np.zeros(0))
        assert board.get(empty).shape == (0,)


class TestEvictionScores:
    def test_initial_value(self):
        scores = EvictionScores(4)
        np.testing.assert_allclose(scores.values, 1.0)

    def test_decay_only_unused(self):
        scores = EvictionScores(4)
        scores.decay(np.array([True, False, True, False]), 0.5)
        np.testing.assert_allclose(scores.values, [0.5, 1.0, 0.5, 1.0])

    def test_decay_compounds(self):
        scores = EvictionScores(1)
        for _ in range(3):
            scores.decay(np.array([True]), 0.9)
        assert scores.values[0] == pytest.approx(0.9 ** 3)

    def test_below_threshold(self):
        scores = EvictionScores(3)
        scores.set(np.array([0, 1, 2]), np.array([0.1, 0.9, 0.4]))
        np.testing.assert_array_equal(scores.below_threshold(0.5), [0, 2])

    def test_get_set(self):
        scores = EvictionScores(3)
        scores.set(np.array([1]), np.array([0.25]))
        np.testing.assert_allclose(scores.get(np.array([1])), [0.25])
        np.testing.assert_allclose(scores.get(np.array([0, 2])), [1.0, 1.0])

    def test_mask_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            EvictionScores(3).decay(np.array([True]), 0.9)

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            EvictionScores(-1)

    def test_zero_capacity(self):
        scores = EvictionScores(0)
        assert len(scores.below_threshold(0.5)) == 0
