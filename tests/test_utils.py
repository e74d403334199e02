"""Tests for repro.utils (rng, validation, logging helpers)."""

import logging

import numpy as np
import pytest

from repro.utils.logging_utils import format_table, get_logger
from repro.utils.rng import derive_seed, ensure_rng, optional_shuffle, spawn_rngs
from repro.utils.validation import (
    check_1d_int_array,
    check_2d_float_array,
    check_fraction,
    check_positive,
    check_probability,
    check_same_length,
    group_offsets,
)


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=10)
        b = ensure_rng(42).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(seq), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_independent_streams(self):
        rngs = spawn_rngs(0, 2)
        a = rngs[0].integers(0, 10**9, size=20)
        b = rngs[1].integers(0, 10**9, size=20)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = [r.integers(0, 10**6) for r in spawn_rngs(7, 3)]
        b = [r.integers(0, 10**6) for r in spawn_rngs(7, 3)]
        assert a == b

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        rng = np.random.default_rng(0)
        assert len(spawn_rngs(rng, 4)) == 4


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)

    def test_salt_changes_seed(self):
        assert derive_seed(3, 1) != derive_seed(3, 2)

    def test_none_seed_ok(self):
        assert isinstance(derive_seed(None, 1), int)


class TestOptionalShuffle:
    def test_no_rng_returns_same(self):
        arr = np.arange(10)
        out = optional_shuffle(arr, None)
        np.testing.assert_array_equal(out, arr)

    def test_shuffle_preserves_elements(self):
        arr = np.arange(50)
        out = optional_shuffle(arr, np.random.default_rng(0))
        assert sorted(out.tolist()) == arr.tolist()

    def test_not_inplace_by_default(self):
        arr = np.arange(50)
        optional_shuffle(arr, np.random.default_rng(0))
        np.testing.assert_array_equal(arr, np.arange(50))


class TestValidation:
    def test_check_positive_accepts_positive(self):
        assert check_positive(3, "x") == 3

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_check_positive_allow_zero(self):
        assert check_positive(0, "x", allow_zero=True) == 0

    def test_check_fraction_bounds(self):
        assert check_fraction(0.5, "f") == 0.5
        with pytest.raises(ValueError):
            check_fraction(1.5, "f")
        with pytest.raises(ValueError):
            check_fraction(-0.1, "f")

    def test_check_fraction_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "f", inclusive_low=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, "f", inclusive_high=False)

    def test_check_probability(self):
        assert check_probability(1.0, "p") == 1.0

    def test_check_1d_int_array_basic(self):
        out = check_1d_int_array([1, 2, 3], "ids")
        assert out.dtype == np.int64

    def test_check_1d_int_array_rejects_2d(self):
        with pytest.raises(ValueError):
            check_1d_int_array(np.zeros((2, 2), dtype=np.int64), "ids")

    def test_check_1d_int_array_rejects_negative(self):
        with pytest.raises(ValueError):
            check_1d_int_array([-1, 0], "ids")

    def test_check_1d_int_array_max_value(self):
        with pytest.raises(ValueError):
            check_1d_int_array([5], "ids", max_value=5)

    def test_check_1d_int_array_rejects_floats(self):
        with pytest.raises(TypeError):
            check_1d_int_array(np.array([1.5, 2.0]), "ids")

    @pytest.mark.parametrize(
        "array", [np.array([True, False]), np.array([1 + 0j]), np.array(["1"]), np.array([None])]
    )
    def test_check_1d_int_array_rejects_non_numeric_kinds(self, array):
        with pytest.raises(TypeError, match=f"ids must be an integer array, got dtype {array.dtype}"):
            check_1d_int_array(array, "ids")

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, np.float16, np.float64])
    def test_check_1d_int_array_coerces_every_integer_valued_dtype(self, dtype):
        out = check_1d_int_array(np.array([0, 3, 2], dtype=dtype), "ids", max_value=4)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 3, 2])

    def test_check_1d_int_array_accepts_integer_floats(self):
        out = check_1d_int_array(np.array([1.0, 2.0]), "ids")
        assert out.dtype == np.int64

    def test_check_1d_int_array_empty(self):
        assert len(check_1d_int_array([], "ids")) == 0
        with pytest.raises(ValueError):
            check_1d_int_array([], "ids", allow_empty=False)

    def test_check_2d_float_array(self):
        out = check_2d_float_array(np.ones((3, 4)), "x")
        assert out.dtype == np.float32
        with pytest.raises(ValueError):
            check_2d_float_array(np.ones(3), "x")
        with pytest.raises(ValueError):
            check_2d_float_array(np.ones((3, 4)), "x", columns=5)

    def test_check_same_length(self):
        check_same_length("a", np.arange(3), "b", np.arange(3))
        with pytest.raises(ValueError):
            check_same_length("a", np.arange(3), "b", np.arange(4))

    def test_group_offsets_of_grouped_ids_needs_no_order(self):
        order, indptr = group_offsets(np.array([1, 1, 3]), 5)
        assert order is None
        np.testing.assert_array_equal(indptr, [0, 0, 2, 2, 3, 3])

    def test_group_offsets_stable_sorts_ungrouped_ids(self):
        order, indptr = group_offsets(np.array([2, 0, 2, 0]), 3)
        np.testing.assert_array_equal(order, [1, 3, 0, 2])
        np.testing.assert_array_equal(indptr, [0, 2, 2, 4])

    def test_group_offsets_of_no_ids(self):
        order, indptr = group_offsets(np.zeros(0, dtype=np.int64), 2)
        assert order is None
        np.testing.assert_array_equal(indptr, [0, 0, 0])

    @pytest.mark.parametrize("ids", [[0, 2], [-1, 1], [1, 0, 2]])
    def test_group_offsets_rejects_out_of_range_ids(self, ids):
        with pytest.raises(ValueError, match=r"ids must lie in \[0, 2\)"):
            group_offsets(np.array(ids), 2)


class TestLogging:
    def test_get_logger_idempotent(self):
        a = get_logger("repro.test")
        b = get_logger("repro.test")
        assert a is b
        assert len(a.handlers) == 1
        assert a.level == logging.INFO

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["alpha", 1.0], ["b", 22.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "alpha" in lines[2]
        assert all(len(line) == len(lines[0]) for line in lines[2:])
