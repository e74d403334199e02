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

    def test_buffer_capacity(self):
        config = PrefetchConfig(halo_fraction=0.25)
        assert config.buffer_capacity(1000) == 250
        assert config.buffer_capacity(0) == 0
        assert config.buffer_capacity(2) == 1  # at least one slot

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
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ValueError):
            PrefetchConfig(**bad)

    @pytest.mark.parametrize("layout", ["dense", "compact"])
    def test_scoreboard_layout_is_not_a_field(self, layout):
        # One S_A layout (the dense one): the knob that chose between two is gone.
        with pytest.raises(TypeError):
            PrefetchConfig(scoreboard=layout)

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
        # Every resident id sits in the slot it was constructed in.
        hit_mask, slots = buf.lookup(ids)
        assert hit_mask.all()
        np.testing.assert_array_equal(slots, np.arange(4))

    def test_contains(self, buffer):
        buf, ids, _ = buffer
        np.testing.assert_array_equal(buf.contains(np.array([10, 11])), [True, False])

    def test_replace_keeps_capacity(self, buffer):
        buf, ids, feats = buffer
        buf.replace(np.array([0]), np.array([100]), np.full((1, 4), 7.0, dtype=np.float32))
        assert buf.capacity == 4
        assert buf.contains(np.array([100])).item()
        assert not buf.contains(np.array([10])).item()
        _, slots = buf.lookup(np.array([100]))
        np.testing.assert_allclose(buf.get_features(slots), 7.0)

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

    def test_duplicate_ids_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PrefetchBuffer(np.array([1, 1]), np.zeros((2, 3), dtype=np.float32))

    def test_empty_buffer(self):
        buf = PrefetchBuffer.empty(8)
        assert buf.capacity == 0
        hit_mask, slots = buf.lookup(np.array([1, 2]))
        assert not hit_mask.any()

    def test_empty_buffer_rejects_every_slot(self):
        buf = PrefetchBuffer.empty(8)
        assert buf.get_features(np.zeros(0, dtype=np.int64)).shape == (0, 8)
        with pytest.raises(ValueError, match="slots contains index 0"):
            buf.get_features(np.array([0]))
        with pytest.raises(ValueError, match="slots contains index 0"):
            buf.replace(np.array([0]), np.array([5]), np.zeros((1, 8), dtype=np.float32))

    def test_lookup_empty_query(self, buffer):
        buf, _, _ = buffer
        hit_mask, slots = buf.lookup(np.array([], dtype=np.int64))
        assert len(hit_mask) == 0 and len(slots) == 0
