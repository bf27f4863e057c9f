"""CPU specification, work ledger and roofline timing for CPU baselines."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

__all__ = ["CpuSpec", "CPU_I7_5820K", "CpuCounters", "estimate_cpu_time", "cpu_profile"]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a multicore CPU.

    Attributes
    ----------
    name:
        Human-readable name.
    physical_cores / threads:
        Core and hardware-thread counts; the paper runs 12 threads on 6
        cores, which helps hide memory latency but does not add FLOPs.
    clock_ghz:
        Sustained all-core clock.
    peak_sp_gflops:
        Peak single-precision GFLOP/s (Table III reports 56.72 for the
        i7-5820K; sparse kernels reach a small fraction of this).
    mem_bandwidth_gbps:
        Peak memory bandwidth (GB/s).
    achievable_bandwidth_fraction:
        Fraction of peak bandwidth irregular sparse kernels sustain.
    llc_bytes:
        Last-level cache size, used for the factor-matrix reuse model.
    scalar_ops_per_cycle:
        Sustained scalar operations per cycle per core for non-vectorised
        gather/scatter inner loops (index arithmetic, dependent loads,
        branches).  Sparse tensor baselines such as ParTI's COO kernels run
        as scalar code and are bound by this, not by the SIMD peak.
    """

    name: str
    physical_cores: int
    threads: int
    clock_ghz: float
    peak_sp_gflops: float
    mem_bandwidth_gbps: float
    achievable_bandwidth_fraction: float = 0.6
    llc_bytes: int = 15 * 1024**2
    scalar_ops_per_cycle: float = 2.0

    @property
    def peak_flops(self) -> float:
        """Peak single-precision FLOP/s."""
        return self.peak_sp_gflops * 1e9

    @property
    def achievable_bandwidth_bytes_per_s(self) -> float:
        """Sustained bandwidth for irregular streaming access, bytes/s."""
        return self.mem_bandwidth_gbps * 1e9 * self.achievable_bandwidth_fraction

    @property
    def scalar_ops_per_second_per_core(self) -> float:
        """Scalar-operation throughput of one core, ops/s."""
        return self.scalar_ops_per_cycle * self.clock_ghz * 1e9


#: The CPU of the paper's Table III (Intel Core i7-5820K, Haswell-E).
CPU_I7_5820K = CpuSpec(
    name="Intel Core i7-5820K (simulated)",
    physical_cores=6,
    threads=12,
    clock_ghz=3.3,
    peak_sp_gflops=56.72,
    mem_bandwidth_gbps=68.0,
)


@dataclass
class CpuCounters:
    """Work ledger of a CPU baseline kernel.

    Attributes
    ----------
    flops:
        Floating-point operations (vectorisable arithmetic, bound by the
        SIMD peak).
    scalar_ops:
        Scalar operations in non-vectorised inner loops (index arithmetic,
        integer division, dependent gathers); bound by
        ``CpuSpec.scalar_ops_per_cycle`` per core.
    mem_read_bytes / mem_write_bytes:
        Bytes that actually reach DRAM (after the LLC reuse model).
    parallel_fraction:
        Fraction of the work that runs in the OpenMP-parallel region
        (Amdahl); format construction and mode switching count as serial.
    imbalance_factor:
        >= 1, ratio of the busiest thread's share of work to the mean.
    used_threads:
        Threads with any work (a parallel loop over 60 slices cannot use
        more than 60 threads).
    """

    flops: float = 0.0
    scalar_ops: float = 0.0
    mem_read_bytes: float = 0.0
    mem_write_bytes: float = 0.0
    parallel_fraction: float = 1.0
    imbalance_factor: float = 1.0
    used_threads: Optional[int] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "imbalance_factor":
                if value < 1.0:
                    raise ValueError(f"imbalance_factor must be >= 1, got {value}")
            elif f.name == "parallel_fraction":
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"parallel_fraction must be in [0, 1], got {value}")
            elif value < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value}")

    @property
    def mem_total_bytes(self) -> float:
        """Total DRAM traffic."""
        return self.mem_read_bytes + self.mem_write_bytes


def estimate_cpu_time(
    counters: CpuCounters,
    cpu: CpuSpec,
    *,
    num_threads: Optional[int] = None,
) -> Tuple[float, Dict[str, float]]:
    """Roofline time estimate for a CPU ledger.

    ``time = serial + parallel / speedup`` where the parallel part is the
    roofline max of compute and memory time and the parallel speedup is
    limited by thread count, usable threads, memory-bandwidth saturation and
    the imbalance factor.
    """
    threads = num_threads if num_threads is not None else cpu.threads
    if threads <= 0:
        raise ValueError(f"num_threads must be positive, got {threads}")
    if counters.used_threads is not None:
        threads = max(1, min(threads, counters.used_threads))

    # Single-thread roofline.  A single core sustains 1/num_cores of the
    # chip's SIMD peak for vectorisable arithmetic, its scalar throughput for
    # non-vectorised inner loops, and about a quarter of the socket's
    # bandwidth.
    single_flops = cpu.peak_flops / cpu.physical_cores
    single_scalar = cpu.scalar_ops_per_second_per_core
    single_bw = cpu.achievable_bandwidth_bytes_per_s / 4.0

    compute_1t = counters.flops / single_flops
    scalar_1t = counters.scalar_ops / single_scalar
    memory_1t = counters.mem_total_bytes / single_bw
    serial_time = (1.0 - counters.parallel_fraction) * max(compute_1t, scalar_1t, memory_1t)

    # Parallel part: arithmetic scales with physical cores (capped by
    # threads), memory scales until the socket bandwidth saturates.
    cores = min(threads, cpu.physical_cores)
    par_compute = counters.parallel_fraction * compute_1t / cores
    par_scalar = counters.parallel_fraction * scalar_1t / cores
    socket_bw_gain = cpu.achievable_bandwidth_bytes_per_s / single_bw
    par_memory = counters.parallel_fraction * memory_1t / min(threads, socket_bw_gain)
    parallel_time = max(par_compute, par_scalar, par_memory) * counters.imbalance_factor

    total = serial_time + parallel_time
    breakdown = {
        "serial": serial_time,
        "compute": par_compute * counters.imbalance_factor,
        "scalar": par_scalar * counters.imbalance_factor,
        "memory": par_memory * counters.imbalance_factor,
        "threads": float(threads),
    }
    return total, breakdown


@dataclass
class CpuProfile:
    """A simulated CPU execution: ledger, estimated time and breakdown."""

    name: str
    counters: CpuCounters
    estimated_time_s: float
    breakdown: Dict[str, float] = field(default_factory=dict)


def cpu_profile(
    name: str,
    counters: CpuCounters,
    cpu: CpuSpec,
    *,
    num_threads: Optional[int] = None,
) -> CpuProfile:
    """Convenience wrapper building a :class:`CpuProfile` in one call."""
    total, breakdown = estimate_cpu_time(counters, cpu, num_threads=num_threads)
    return CpuProfile(name=name, counters=counters, estimated_time_s=total, breakdown=breakdown)
