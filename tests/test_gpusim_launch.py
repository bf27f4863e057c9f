"""Tests for repro.gpusim.launch.LaunchConfig."""

import pytest

from repro.gpusim.device import TITAN_X
from repro.gpusim.launch import LaunchConfig


class TestConstruction:
    def test_for_nnz_covers_all_nonzeros(self):
        cfg = LaunchConfig.for_nnz(10_000, 16, block_size=128, threadlen=8)
        assert cfg.grid_x * cfg.block_size * cfg.threadlen >= 10_000
        assert cfg.grid_y == 16

    def test_for_nnz_exact_fit(self):
        cfg = LaunchConfig.for_nnz(1024, 4, block_size=128, threadlen=8)
        assert cfg.grid_x == 1

    def test_totals(self):
        cfg = LaunchConfig(block_size=64, grid_x=10, grid_y=2, threadlen=4)
        assert cfg.num_blocks == 20
        assert cfg.total_threads == 1280

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            LaunchConfig(block_size=0, grid_x=1)
        with pytest.raises(ValueError):
            LaunchConfig(block_size=32, grid_x=1, threadlen=0)


class TestDeviceLimits:
    def test_block_too_large(self):
        cfg = LaunchConfig(block_size=2048, grid_x=1)
        with pytest.raises(ValueError, match="exceeds device limit"):
            cfg.validate_against(TITAN_X)

    def test_non_warp_multiple(self):
        cfg = LaunchConfig(block_size=100, grid_x=1)
        with pytest.raises(ValueError, match="warp size"):
            cfg.validate_against(TITAN_X)


class TestOccupancy:
    def test_large_launch_full_occupancy(self):
        cfg = LaunchConfig.for_nnz(10_000_000, 16, block_size=256, threadlen=8)
        assert cfg.occupancy(TITAN_X) == pytest.approx(1.0)

    def test_small_launch_low_occupancy(self):
        cfg = LaunchConfig(block_size=32, grid_x=4)
        assert cfg.occupancy(TITAN_X) < 0.01

    def test_occupancy_monotone_in_grid(self):
        small = LaunchConfig(block_size=128, grid_x=10)
        big = LaunchConfig(block_size=128, grid_x=1000)
        assert big.occupancy(TITAN_X) >= small.occupancy(TITAN_X)

    def test_utilization_capped_by_active_threads(self):
        cfg = LaunchConfig(block_size=256, grid_x=10_000)
        low = cfg.utilization(TITAN_X, active_threads=100)
        high = cfg.utilization(TITAN_X, active_threads=10_000_000)
        assert low < high <= 1.0

    def test_utilization_never_zero(self):
        cfg = LaunchConfig(block_size=32, grid_x=1)
        assert cfg.utilization(TITAN_X, active_threads=0) > 0.0

    def test_negative_active_threads_rejected(self):
        cfg = LaunchConfig(block_size=32, grid_x=1)
        with pytest.raises(ValueError):
            cfg.utilization(TITAN_X, active_threads=-5)
