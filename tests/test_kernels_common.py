"""Tests for the shared kernel helpers."""

import numpy as np
import pytest

from repro.kernels.common import (
    chunked_imbalance,
    validate_factor,
    warp_group_imbalance,
)


class TestWarpGroupImbalance:
    def test_uniform_work_is_balanced(self):
        assert warp_group_imbalance(np.full(64, 5.0), 32) == pytest.approx(1.0)

    def test_single_heavy_unit(self):
        work = np.ones(32)
        work[0] = 32.0
        # The warp is busy for 32 units x 32 lanes while useful work is 63.
        assert warp_group_imbalance(work, 32) == pytest.approx(32 * 32 / 63.0)

    def test_group_of_one_is_balanced(self):
        rng = np.random.default_rng(0)
        assert warp_group_imbalance(rng.random(100), 1) == pytest.approx(1.0)

    def test_empty(self):
        assert warp_group_imbalance(np.empty(0), 32) == 1.0

    def test_zero_work(self):
        assert warp_group_imbalance(np.zeros(10), 4) == 1.0

    def test_never_below_one(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            work = rng.integers(1, 100, size=50).astype(float)
            assert warp_group_imbalance(work, 8) >= 1.0

    def test_invalid_group(self):
        with pytest.raises(ValueError):
            warp_group_imbalance(np.ones(4), 0)

    def test_negative_work(self):
        with pytest.raises(ValueError):
            warp_group_imbalance(np.array([-1.0]), 4)


class TestChunkedImbalance:
    def test_uniform_is_balanced(self):
        assert chunked_imbalance(np.ones(120), 12) == pytest.approx(1.0)

    def test_skewed_chunks(self):
        # All the work sits in the first chunk.
        work = np.concatenate([np.full(10, 100.0), np.zeros(90)])
        assert chunked_imbalance(work, 10) == pytest.approx(10.0)

    def test_more_chunks_than_units(self):
        assert chunked_imbalance(np.ones(3), 12) >= 1.0

    def test_single_chunk(self):
        assert chunked_imbalance(np.random.default_rng(0).random(50), 1) == pytest.approx(1.0)

    def test_empty(self):
        assert chunked_imbalance(np.empty(0), 4) == 1.0

    def test_invalid_chunks(self):
        with pytest.raises(ValueError):
            chunked_imbalance(np.ones(4), 0)


class TestValidateFactor:
    def test_accepts_matching(self):
        out = validate_factor(np.ones((5, 3)), 5, "U")
        assert out.dtype == np.float64

    def test_rejects_wrong_rows(self):
        with pytest.raises(ValueError, match="U"):
            validate_factor(np.ones((4, 3)), 5, "U")

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            validate_factor(np.ones(5), 5, "U")

