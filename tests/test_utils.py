"""Tests for repro.utils (rng, validation, table helpers)."""

import math

import numpy as np
import pytest

from repro.utils.logging_utils import format_table
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.validation import (
    check_1d_int_array,
    check_2d_float_array,
    check_duration,
    check_fraction,
    check_positive,
    group_offsets,
    sorted_lookup,
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

    def test_equal_seed_sequences_give_equal_streams(self):
        a = ensure_rng(np.random.SeedSequence(5)).random(4)
        b = ensure_rng(np.random.SeedSequence(5)).random(4)
        np.testing.assert_array_equal(a, b)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)

    def test_salt_changes_seed(self):
        assert derive_seed(3, 1) != derive_seed(3, 2)

    def test_none_seed_ok(self):
        assert isinstance(derive_seed(None, 1), int)

    def test_salt_order_matters(self):
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)

    def test_result_is_a_valid_default_rng_seed(self):
        seeds = [derive_seed(s, salt) for s in (0, 7, 2**40) for salt in range(20)]
        assert all(0 <= s < 2**63 - 1 for s in seeds)
        assert len(set(seeds)) == len(seeds)


class TestValidation:
    def test_check_positive_accepts_positive(self):
        assert check_positive(3, "x") == 3

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_check_positive_allow_zero(self):
        assert check_positive(0, "x", allow_zero=True) == 0

    def test_check_positive_allow_zero_still_rejects_negative(self):
        with pytest.raises(ValueError, match="batch_size must be >= 0, got -1"):
            check_positive(-1, "batch_size", allow_zero=True)

    def test_check_positive_message_names_the_value(self):
        with pytest.raises(ValueError, match=r"batch_size must be > 0, got -2\.5"):
            check_positive(-2.5, "batch_size")

    @pytest.mark.parametrize("seconds", [0.0, 2.5, 1e12])
    def test_check_duration_accepts_finite_non_negative(self, seconds):
        assert check_duration(seconds, "t") == seconds

    @pytest.mark.parametrize("seconds", [-1e-9, math.nan, math.inf, -math.inf])
    def test_check_duration_rejects(self, seconds):
        with pytest.raises(ValueError, match="t must be finite and non-negative"):
            check_duration(seconds, "t")

    def test_check_fraction_bounds(self):
        assert check_fraction(0.5, "f") == 0.5
        with pytest.raises(ValueError):
            check_fraction(1.5, "f")
        with pytest.raises(ValueError):
            check_fraction(-0.1, "f")

    def test_check_fraction_returns_a_float(self):
        out = check_fraction(1, "f")
        assert out == 1.0 and type(out) is float

    def test_check_fraction_rejects_nan(self):
        with pytest.raises(ValueError, match="f must lie in the unit interval"):
            check_fraction(math.nan, "f")

    def test_check_fraction_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "f", inclusive_low=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, "f", inclusive_high=False)

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


class TestSortedLookup:
    def test_positions_of_found_ids(self):
        idx, found = sorted_lookup(np.array([2, 5, 9]), np.array([9, 2, 4]))
        np.testing.assert_array_equal(found, [True, True, False])
        np.testing.assert_array_equal(idx[found], [2, 0])

    def test_query_past_the_last_id_is_not_found(self):
        idx, found = sorted_lookup(np.array([2, 5]), np.array([5, 6, 100]))
        np.testing.assert_array_equal(found, [True, False, False])
        assert idx[0] == 1

    def test_empty_sorted_ids_find_nothing(self):
        _, found = sorted_lookup(np.zeros(0, dtype=np.int64), np.array([0, 3]))
        np.testing.assert_array_equal(found, [False, False])

    def test_empty_query(self):
        idx, found = sorted_lookup(np.array([1, 4]), np.zeros(0, dtype=np.int64))
        assert len(idx) == 0 and len(found) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_a_dict_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sorted_ids = np.unique(rng.integers(0, 200, size=60))
        query = rng.integers(-5, 210, size=300)
        idx, found = sorted_lookup(sorted_ids, query)
        position = {int(v): i for i, v in enumerate(sorted_ids)}
        np.testing.assert_array_equal(found, [int(q) in position for q in query])
        np.testing.assert_array_equal(idx[found], [position[int(q)] for q in query[found]])


class TestLogging:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["alpha", 1.0], ["b", 22.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "alpha" in lines[2]
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_format_table_applies_float_fmt_to_floats_only(self):
        table = format_table(["a", "b"], [[1.23456, 1234567]], float_fmt="{:.2f}")
        assert table.splitlines()[2].split(" | ") == ["1.23", "1234567"]

    def test_format_table_header_sets_the_minimum_width(self):
        table = format_table(["a long header"], [["x"]])
        header, sep, row = table.splitlines()
        assert sep == "-" * len("a long header")
        assert row == "x".ljust(len("a long header"))

    def test_format_table_without_rows_is_header_and_separator(self):
        assert format_table(["x", "yy"], []).splitlines() == ["x | yy", "--+---"]
