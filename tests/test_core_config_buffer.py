"""Tests for PrefetchConfig and the fixed-capacity prefetch buffer."""

import numpy as np
import pytest

from repro.core.buffer import PrefetchBuffer
from repro.core.config import (
    PAPER_DELTAS,
    PAPER_GAMMAS,
    PAPER_HALO_FRACTIONS,
    PrefetchConfig,
)


class TestPrefetchConfig:
    def test_defaults_valid(self):
        config = PrefetchConfig()
        assert 0 < config.halo_fraction <= 1
        assert config.eviction_enabled

    def test_effective_alpha_follows_eq1(self):
        config = PrefetchConfig(gamma=0.95, delta=10)
        assert config.effective_alpha == pytest.approx(0.95 ** 10)

    def test_explicit_alpha_overrides(self):
        config = PrefetchConfig(gamma=0.95, delta=10, alpha=0.5)
        assert config.effective_alpha == 0.5

    def test_buffer_capacity(self):
        config = PrefetchConfig(halo_fraction=0.25)
        assert config.buffer_capacity(1000) == 250
        assert config.buffer_capacity(0) == 0
        assert config.buffer_capacity(2) == 1  # min_buffer_slots

    def test_without_eviction(self):
        config = PrefetchConfig(halo_fraction=0.35).without_eviction()
        assert not config.eviction_enabled
        assert config.halo_fraction == 0.35

    def test_describe(self):
        assert "f_h=0.25" in PrefetchConfig(halo_fraction=0.25).describe()
        assert "no-evict" in PrefetchConfig(eviction_enabled=False).describe()

    @pytest.mark.parametrize("bad", [
        {"halo_fraction": 1.5},
        {"gamma": 0.0},
        {"gamma": 1.5},
        {"delta": 0},
        {"scoreboard": "tree"},
        {"alpha": -1.0},
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ValueError):
            PrefetchConfig(**bad)

    def test_paper_grids_nonempty(self):
        assert len(PAPER_HALO_FRACTIONS) == 4
        assert len(PAPER_DELTAS) == 6
        assert len(PAPER_GAMMAS) == 3


@pytest.fixture()
def buffer():
    ids = np.array([10, 3, 25, 7], dtype=np.int64)
    feats = np.arange(16, dtype=np.float32).reshape(4, 4)
    return PrefetchBuffer(ids, feats), ids, feats


class TestPrefetchBuffer:
    def test_capacity_and_dims(self, buffer):
        buf, ids, feats = buffer
        assert buf.capacity == 4
        assert buf.feature_dim == 4
        assert buf.nbytes() > 0

    def test_lookup_hits_and_misses(self, buffer):
        buf, ids, feats = buffer
        hit_mask, slots = buf.lookup(np.array([3, 99, 25]))
        np.testing.assert_array_equal(hit_mask, [True, False, True])
        np.testing.assert_allclose(buf.get_features(slots[[0, 2]]), feats[[1, 2]])

    def test_contains(self, buffer):
        buf, ids, _ = buffer
        np.testing.assert_array_equal(buf.contains(np.array([10, 11])), [True, False])

    def test_get_features_by_id(self, buffer):
        buf, ids, feats = buffer
        np.testing.assert_allclose(buf.get_features_by_id(np.array([7])), feats[[3]])
        with pytest.raises(KeyError):
            buf.get_features_by_id(np.array([999]))

    def test_slot_of(self, buffer):
        buf, ids, feats = buffer
        slots = buf.slot_of(ids)
        np.testing.assert_array_equal(slots, np.arange(4))
        with pytest.raises(KeyError):
            buf.slot_of(np.array([999]))

    def test_replace_keeps_capacity(self, buffer):
        buf, ids, feats = buffer
        buf.replace(np.array([0]), np.array([100]), np.full((1, 4), 7.0, dtype=np.float32))
        assert buf.capacity == 4
        assert buf.contains(np.array([100])).item()
        assert not buf.contains(np.array([10])).item()
        np.testing.assert_allclose(buf.get_features_by_id(np.array([100])), 7.0)

    def test_replace_rejects_resident_ids(self, buffer):
        buf, ids, _ = buffer
        with pytest.raises(ValueError):
            buf.replace(np.array([0]), np.array([3]), np.zeros((1, 4), dtype=np.float32))

    def test_replace_rejects_duplicate_slots(self, buffer):
        buf, _, _ = buffer
        with pytest.raises(ValueError):
            buf.replace(
                np.array([0, 0]), np.array([50, 51]), np.zeros((2, 4), dtype=np.float32)
            )

    def test_replace_misaligned_raises(self, buffer):
        buf, _, _ = buffer
        with pytest.raises(ValueError):
            buf.replace(np.array([0]), np.array([50, 51]), np.zeros((2, 4), dtype=np.float32))

    def test_replace_empty_noop(self, buffer):
        buf, ids, _ = buffer
        buf.replace(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, 4), dtype=np.float32),
        )
        np.testing.assert_array_equal(np.sort(buf.node_ids), np.sort(ids))

    def test_update_features(self, buffer):
        buf, ids, _ = buffer
        buf.update_features(np.array([25]), np.full((1, 4), 5.0, dtype=np.float32))
        np.testing.assert_allclose(buf.get_features_by_id(np.array([25])), 5.0)

    def test_duplicate_ids_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PrefetchBuffer(np.array([1, 1]), np.zeros((2, 3), dtype=np.float32))

    def test_empty_buffer(self):
        buf = PrefetchBuffer.empty(8)
        assert buf.capacity == 0
        hit_mask, slots = buf.lookup(np.array([1, 2]))
        assert not hit_mask.any()

    def test_lookup_empty_query(self, buffer):
        buf, _, _ = buffer
        hit_mask, slots = buf.lookup(np.array([], dtype=np.int64))
        assert len(hit_mask) == 0 and len(slots) == 0
