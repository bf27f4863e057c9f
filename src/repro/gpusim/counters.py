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
from typing import Dict, Optional, Sequence

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

    @classmethod
    def merged(cls, parts: Sequence["KernelCounters"]) -> "KernelCounters":
        """One ledger for ``parts`` (the chunks of a streamed kernel, the
        shards of a sharded one).

        Traffic, FLOPs, atomics and launches add, in ``parts`` order;
        ``active_threads`` takes the maximum (phases share the same grid);
        ``imbalance_factor`` takes the maximum as a conservative bound.
        Each field folds from its default, so no parts give the empty
        ledger.
        """
        totals = dict(_FIELD_DEFAULTS)
        for part in parts:
            for name in _SUMMED_FIELDS:
                totals[name] += getattr(part, name)
            totals["active_threads"] = max(totals["active_threads"], part.active_threads)
            totals["imbalance_factor"] = max(totals["imbalance_factor"], part.imbalance_factor)
        return cls(**totals)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (used by the benchmark harness for reporting)."""
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}


#: The ledger's field names, in declaration order: looked up once, since a
#: serving run builds thousands of ledgers.
_COUNTER_FIELDS = tuple(f.name for f in fields(KernelCounters))
_FIELD_DEFAULTS = {f.name: f.default for f in fields(KernelCounters)}
#: The fields :meth:`KernelCounters.merged` adds (the other two take maxima).
_SUMMED_FIELDS = tuple(
    name for name in _COUNTER_FIELDS if name not in ("active_threads", "imbalance_factor")
)


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

    @property
    def execution_path(self) -> str:
        """The driver that ran: ``"sharded"`` (a multi-GPU run, whose shards
        may stream), ``"streamed"`` (out-of-core) or ``"one-shot"``."""
        if self.sharded is not None:
            return "sharded"
        if self.streaming is not None:
            return "streamed"
        return "one-shot"
