"""Tests for the multicore CPU cost model."""

import pytest

from repro.cpusim.cpu import CPU_I7_5820K, CpuCounters, cpu_profile, estimate_cpu_time


class TestCpuSpec:
    def test_table3_values(self):
        assert CPU_I7_5820K.physical_cores == 6
        assert CPU_I7_5820K.threads == 12
        assert CPU_I7_5820K.peak_sp_gflops == pytest.approx(56.72)
        assert CPU_I7_5820K.mem_bandwidth_gbps == pytest.approx(68.0)
        assert CPU_I7_5820K.llc_bytes == 15 * 1024**2

    def test_derived_rates(self):
        assert CPU_I7_5820K.peak_flops == pytest.approx(56.72e9)
        assert CPU_I7_5820K.achievable_bandwidth_bytes_per_s < 68e9
        assert CPU_I7_5820K.scalar_ops_per_second_per_core == pytest.approx(6.6e9)


class TestCpuCounters:
    def test_validation(self):
        with pytest.raises(ValueError):
            CpuCounters(flops=-1)
        with pytest.raises(ValueError):
            CpuCounters(imbalance_factor=0.1)
        with pytest.raises(ValueError):
            CpuCounters(parallel_fraction=1.5)


class TestEstimate:
    def _time(self, **kwargs):
        total, _ = estimate_cpu_time(CpuCounters(**kwargs), CPU_I7_5820K)
        return total

    def test_more_memory_is_slower(self):
        assert self._time(mem_read_bytes=1e9) > self._time(mem_read_bytes=1e8)

    def test_more_flops_is_slower(self):
        assert self._time(flops=1e11) > self._time(flops=1e9)

    def test_scalar_ops_bound(self):
        assert self._time(scalar_ops=1e10) > self._time(scalar_ops=1e8)

    def test_imbalance_multiplies_parallel_part(self):
        base = self._time(mem_read_bytes=1e9)
        skewed = self._time(mem_read_bytes=1e9, imbalance_factor=3.0)
        assert skewed > 2.0 * base

    def test_threads_help_compute(self):
        counters = CpuCounters(flops=1e10)
        one, _ = estimate_cpu_time(counters, CPU_I7_5820K, num_threads=1)
        many, _ = estimate_cpu_time(counters, CPU_I7_5820K, num_threads=12)
        assert many < one
        # Compute scales with the 6 physical cores, not the 12 threads.
        assert one / many <= 6.5

    def test_memory_saturates(self):
        counters = CpuCounters(mem_read_bytes=1e10)
        four, _ = estimate_cpu_time(counters, CPU_I7_5820K, num_threads=4)
        twelve, _ = estimate_cpu_time(counters, CPU_I7_5820K, num_threads=12)
        # Bandwidth saturates at ~4 threads, so more threads barely help.
        assert twelve == pytest.approx(four, rel=0.05)

    def test_used_threads_limits_scaling(self):
        few = CpuCounters(flops=1e10, used_threads=2)
        many = CpuCounters(flops=1e10)
        t_few, _ = estimate_cpu_time(few, CPU_I7_5820K)
        t_many, _ = estimate_cpu_time(many, CPU_I7_5820K)
        assert t_few > t_many

    def test_serial_fraction_amdahl(self):
        parallel = CpuCounters(flops=1e10, parallel_fraction=1.0)
        half = CpuCounters(flops=1e10, parallel_fraction=0.5)
        t_par, _ = estimate_cpu_time(parallel, CPU_I7_5820K)
        t_half, _ = estimate_cpu_time(half, CPU_I7_5820K)
        assert t_half > t_par

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            estimate_cpu_time(CpuCounters(), CPU_I7_5820K, num_threads=0)

    def test_profile_wrapper(self):
        p = cpu_profile("kernel", CpuCounters(flops=1e9), CPU_I7_5820K)
        assert p.name == "kernel"
        assert p.estimated_time_s > 0
        assert "memory" in p.breakdown
