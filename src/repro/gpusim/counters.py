"""Work ledgers recorded by simulated kernels.

Every simulated kernel produces a :class:`KernelCounters` ledger describing
the work it performed — floating-point operations, *effective* (post
coalescing) global-memory traffic, shared-memory traffic, atomics, the
degree of load imbalance, and the number of device kernel launches.  The
ledger is converted to an estimated execution time by
:func:`repro.gpusim.timing.estimate_kernel_time`.

``KernelProfile`` bundles the ledger with the launch configuration, the
estimated time and the device-memory footprint, and is the object the
benchmark harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional

__all__ = ["KernelCounters", "KernelProfile"]


@dataclass
class KernelCounters:
    """Accumulated work of one (or several fused) simulated kernel(s).

    All traffic fields are *effective* byte counts, i.e. they already account
    for coalescing waste (a random 4-byte access that transfers a 32-byte
    sector is charged 32 bytes).

    Attributes
    ----------
    flops:
        Floating-point operations (multiply and add counted separately).
    gmem_read_bytes / gmem_write_bytes:
        Effective global-memory traffic.
    smem_bytes:
        Shared-memory traffic (cheap, but contributes when kernels are not
        fused and intermediate data spills to global memory instead).
    atomic_ops:
        Number of atomic read-modify-write operations issued.
    atomic_serialized_ops:
        Atomics after applying the contention factor — what the timing model
        charges (see :mod:`repro.gpusim.atomics`).
    active_threads:
        Number of threads that actually have work; drives occupancy /
        utilisation.
    imbalance_factor:
        ``>= 1``; ratio of the busiest thread's work to the mean.  Static
        work distribution multiplies the whole kernel time by this factor.
    kernel_launches:
        Number of device kernel launches (fixed host overhead each).
    host_to_device_bytes / device_to_host_bytes:
        PCIe traffic (format conversions, result copies) charged separately.
    """

    flops: float = 0.0
    gmem_read_bytes: float = 0.0
    gmem_write_bytes: float = 0.0
    smem_bytes: float = 0.0
    atomic_ops: float = 0.0
    atomic_serialized_ops: float = 0.0
    active_threads: float = 0.0
    imbalance_factor: float = 1.0
    kernel_launches: int = 0
    host_to_device_bytes: float = 0.0
    device_to_host_bytes: float = 0.0

    def __post_init__(self) -> None:
        for name in _COUNTER_FIELDS:
            value = getattr(self, name)
            if name == "imbalance_factor":
                if value < 1.0:
                    raise ValueError(f"imbalance_factor must be >= 1, got {value}")
            elif value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    # ------------------------------------------------------------------ #
    @property
    def gmem_total_bytes(self) -> float:
        """Total effective global traffic (reads + writes)."""
        return self.gmem_read_bytes + self.gmem_write_bytes

    def merge(self, other: "KernelCounters") -> "KernelCounters":
        """Combine two ledgers (e.g. the stages of a fused kernel).

        Traffic, FLOPs and atomics add; ``active_threads`` takes the maximum
        (phases share the same grid); ``imbalance_factor`` takes the
        work-weighted maximum as a conservative bound.
        """
        if not isinstance(other, KernelCounters):
            raise TypeError("merge expects another KernelCounters")
        return KernelCounters(
            flops=self.flops + other.flops,
            gmem_read_bytes=self.gmem_read_bytes + other.gmem_read_bytes,
            gmem_write_bytes=self.gmem_write_bytes + other.gmem_write_bytes,
            smem_bytes=self.smem_bytes + other.smem_bytes,
            atomic_ops=self.atomic_ops + other.atomic_ops,
            atomic_serialized_ops=self.atomic_serialized_ops + other.atomic_serialized_ops,
            active_threads=max(self.active_threads, other.active_threads),
            imbalance_factor=max(self.imbalance_factor, other.imbalance_factor),
            kernel_launches=self.kernel_launches + other.kernel_launches,
            host_to_device_bytes=self.host_to_device_bytes + other.host_to_device_bytes,
            device_to_host_bytes=self.device_to_host_bytes + other.device_to_host_bytes,
        )

    def __add__(self, other: "KernelCounters") -> "KernelCounters":
        return self.merge(other)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (used by the benchmark harness for reporting)."""
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}


#: The ledger's field names, in declaration order: looked up once, since a
#: serving run builds thousands of ledgers.
_COUNTER_FIELDS = tuple(f.name for f in fields(KernelCounters))


@dataclass
class KernelProfile:
    """A simulated kernel execution: ledger + launch + estimated time.

    Attributes
    ----------
    name:
        Kernel name (e.g. ``"unified-spmttkrp-mode0"``).
    counters:
        The work ledger.
    estimated_time_s:
        Estimated execution time on the target device.
    device_memory_bytes:
        Peak device-memory footprint of the kernel's operands (inputs,
        outputs and any intermediate tensors).
    breakdown:
        Optional named sub-times (compute/memory/atomic/launch) for
        reporting.
    streaming:
        When the kernel executed out-of-core, the
        :class:`repro.kernels.unified.streaming.StreamedExecution` ledger
        (per-chunk counters plus the resolved transfer/compute pipeline);
        ``None`` for one-shot executions.
    sharded:
        When the kernel executed across a multi-GPU cluster, the
        :class:`repro.kernels.unified.sharded.ShardedExecution` ledger
        (per-device shard counters plus the modeled reduction); ``None``
        for single-device executions.
    """

    name: str
    counters: KernelCounters
    estimated_time_s: float
    device_memory_bytes: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    streaming: Optional[object] = None
    sharded: Optional[object] = None

    def __post_init__(self) -> None:
        if self.estimated_time_s < 0:
            raise ValueError(f"estimated_time_s must be non-negative, got {self.estimated_time_s}")
        if self.device_memory_bytes < 0:
            raise ValueError(
                f"device_memory_bytes must be non-negative, got {self.device_memory_bytes}"
            )

    def combined(self, other: "KernelProfile", *, name: Optional[str] = None) -> "KernelProfile":
        """Sequentially compose two profiles (times add, footprints max)."""
        merged_breakdown = dict(self.breakdown)
        for key, value in other.breakdown.items():
            merged_breakdown[key] = merged_breakdown.get(key, 0.0) + value
        return KernelProfile(
            name=name or f"{self.name}+{other.name}",
            counters=self.counters.merge(other.counters),
            estimated_time_s=self.estimated_time_s + other.estimated_time_s,
            device_memory_bytes=max(self.device_memory_bytes, other.device_memory_bytes),
            breakdown=merged_breakdown,
        )
