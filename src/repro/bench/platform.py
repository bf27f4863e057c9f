"""Table III: the (simulated) experimental platform configuration."""

from __future__ import annotations

from repro.cpusim.cpu import CPU_I7_5820K
from repro.gpusim.device import TITAN_X
from repro.util.formatting import format_bytes, format_table

__all__ = ["platform_report"]


def platform_report() -> str:
    """Render the platform-configuration table (paper Table III).

    The values are the *model parameters* of the simulated devices; they
    deliberately mirror the paper's hardware so the cost models operate in
    the same regime (compute/bandwidth ratios, cache sizes, memory capacity).
    """
    cpu, gpu = CPU_I7_5820K, TITAN_X
    rows = [
        ["Microarchitecture", "Haswell (model)", "Maxwell (model)"],
        ["Frequency", f"{cpu.clock_ghz:.1f} GHz", f"{gpu.clock_ghz:.1f} GHz"],
        ["Physical cores", cpu.physical_cores, gpu.total_cores],
        [
            "Peak SP performance",
            f"{cpu.peak_sp_gflops:.2f} Gflops",
            f"{gpu.peak_flops / 1e9:.0f} Gflops",
        ],
        ["Last-level cache", format_bytes(cpu.llc_bytes), format_bytes(gpu.l2_bytes)],
        ["Memory size", "64 GB (host)", format_bytes(gpu.global_mem_bytes)],
        [
            "Memory bandwidth",
            f"{cpu.mem_bandwidth_gbps:.0f} GB/s",
            f"{gpu.mem_bandwidth_gbps:.0f} GB/s",
        ],
    ]
    return format_table(
        ["Parameters", cpu.name, gpu.name],
        rows,
        title="Table III: experimental platform configuration (simulated)",
    )
