"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_mode,
    check_positive_int,
    check_rank,
    check_shape,
)


class TestCheckPositiveInt:
    def test_accepts_python_int(self):
        assert check_positive_int(5, "x") == 5

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(3), "x") == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive_int(-2, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="rank"):
            check_positive_int(0, "rank")


class TestCheckShape:
    def test_tuple_passthrough(self):
        assert check_shape((2, 3, 4)) == (2, 3, 4)

    def test_list_converted(self):
        assert check_shape([5, 6]) == (5, 6)

    def test_numpy_ints(self):
        assert check_shape(np.array([2, 3])) == (2, 3)

    def test_min_order_enforced(self):
        with pytest.raises(ValueError, match="order"):
            check_shape((4,), min_order=2)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            check_shape((2, 0, 3))

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            check_shape("abc")


class TestCheckMode:
    def test_valid_mode(self):
        assert check_mode(1, 3) == 1

    def test_negative_mode_wraps(self):
        assert check_mode(-1, 3) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_mode(3, 3)

    def test_too_negative(self):
        with pytest.raises(ValueError):
            check_mode(-4, 3)

    def test_non_integer(self):
        with pytest.raises(TypeError):
            check_mode(1.5, 3)


class TestCheckRank:
    def test_valid(self):
        assert check_rank(16) == 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            check_rank(0)
