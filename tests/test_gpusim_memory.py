"""Tests for the coalescing and read-only cache models."""

import numpy as np
import pytest

from repro.gpusim.device import TITAN_X
from repro.gpusim.memory import AccessPattern, coalesced_traffic_bytes, readonly_cache_traffic


class TestCoalescing:
    def test_coalesced_is_exact(self):
        assert coalesced_traffic_bytes(1000, 4, AccessPattern.COALESCED, TITAN_X) == 4000

    def test_random_short_runs_waste_bandwidth(self):
        useful = 1000 * 4
        random = coalesced_traffic_bytes(
            1000, 4, AccessPattern.RANDOM, TITAN_X, contiguous_run_bytes=4
        )
        assert random > useful
        # A 4-byte gather costs a whole 32-byte sector.
        assert random == pytest.approx(1000 * 32)

    def test_random_long_runs_amortise(self):
        long_run = coalesced_traffic_bytes(
            1000, 4, AccessPattern.RANDOM, TITAN_X, contiguous_run_bytes=1024
        )
        assert long_run == pytest.approx(1000 * 4, rel=0.1)

    def test_strided_penalty_grows_then_saturates(self):
        s2 = coalesced_traffic_bytes(100, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=2)
        s8 = coalesced_traffic_bytes(100, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=8)
        s1000 = coalesced_traffic_bytes(
            100, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=1000
        )
        assert 400 < s2 < s8 <= s1000
        assert s1000 == pytest.approx(100 * 128)  # capped at one line per access

    def test_never_less_than_useful(self):
        for pattern in AccessPattern:
            got = coalesced_traffic_bytes(
                500, 8, pattern, TITAN_X, stride_elements=2, contiguous_run_bytes=8
            )
            assert got >= 500 * 8 - 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            coalesced_traffic_bytes(-1, 4, AccessPattern.COALESCED, TITAN_X)
        with pytest.raises(ValueError):
            coalesced_traffic_bytes(10, 0, AccessPattern.COALESCED, TITAN_X)
        with pytest.raises(ValueError):
            coalesced_traffic_bytes(10, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=0.5)


def unique_rows_traffic(rows, row_bytes, device):
    """The cache model with distinct rows counted by ``np.unique``."""
    accesses = float(rows.size)
    distinct = float(np.unique(rows).size)
    working_set = distinct * row_bytes
    capacity = float(device.readonly_cache_bytes_total)
    misses = distinct
    if working_set > capacity:
        misses += (accesses - distinct) * (1.0 - capacity / working_set)
    sector = min(float(device.memory_transaction_bytes), 32.0)
    return accesses - misses, misses, misses * np.ceil(row_bytes / sector) * sector


class TestReadOnlyCache:
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize(
        "rows",
        [
            np.array([7]),
            np.full(1000, 41),
            np.random.default_rng(2).integers(0, 1_000_000, 200_000),
            np.random.default_rng(3).integers(0, 300, 50_000),
            np.array([0, 999_999, 0, 999_999, 12]),
            np.random.default_rng(4).integers(0, 255_000, 64),
            np.append(np.random.default_rng(5).integers(0, 511_999, 999), 511_999),
        ],
        ids=[
            "one-element",
            "all-equal",
            "spread-1e6",
            "dense-300",
            "extremes",
            "short-wide",
            "512-rows-per-access",
        ],
    )
    def test_matches_unique_count(self, rows, dtype):
        # The spread stream overflows the cache and the others fit, so both
        # branches of the capacity-miss model are exercised; the extremes and
        # short-wide streams span over 512 rows per access, the others do not.
        rows = rows.astype(dtype)
        traffic = readonly_cache_traffic(rows, 48.0, TITAN_X)
        hits, misses, dram_bytes = unique_rows_traffic(rows, 48.0, TITAN_X)
        assert (traffic.hits, traffic.misses, traffic.dram_bytes) == (hits, misses, dram_bytes)

    def test_small_working_set_hits(self):
        # 10 distinct rows of 64 B each reused 1000x: only compulsory misses.
        rows = np.tile(np.arange(10), 1000)
        traffic = readonly_cache_traffic(rows, 64.0, TITAN_X)
        assert traffic.misses == pytest.approx(10)
        assert traffic.hit_rate > 0.99

    def test_huge_working_set_misses(self):
        rows = np.arange(500_000)  # every access distinct
        traffic = readonly_cache_traffic(rows, 64.0, TITAN_X)
        assert traffic.hit_rate == pytest.approx(0.0, abs=1e-9)
        assert traffic.dram_bytes >= 500_000 * 64

    def test_intermediate_working_set(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 100_000, size=300_000)
        traffic = readonly_cache_traffic(rows, 64.0, TITAN_X)
        assert 0.0 < traffic.hit_rate < 1.0

    def test_monotone_in_working_set(self):
        rng = np.random.default_rng(1)
        small = readonly_cache_traffic(rng.integers(0, 1_000, 100_000), 64.0, TITAN_X)
        large = readonly_cache_traffic(rng.integers(0, 1_000_000, 100_000), 64.0, TITAN_X)
        assert large.hit_rate < small.hit_rate
        assert large.dram_bytes > small.dram_bytes

    def test_custom_cache_size(self):
        rows = np.tile(np.arange(1000), 10)
        big_cache = readonly_cache_traffic(rows, 64.0, TITAN_X, cache_bytes=1e9)
        small_cache = readonly_cache_traffic(rows, 64.0, TITAN_X, cache_bytes=1e3)
        assert big_cache.misses < small_cache.misses

    def test_empty_stream(self):
        traffic = readonly_cache_traffic(np.empty(0, dtype=np.int64), 64.0, TITAN_X)
        assert traffic.accesses == 0
        assert traffic.dram_bytes == 0.0

    def test_invalid_row_bytes(self):
        with pytest.raises(ValueError):
            readonly_cache_traffic(np.arange(5), 0.0, TITAN_X)
