"""Out-of-core streamed execution of the unified kernels.

The one-shot unified kernels assume the whole F-COO encoding is resident in
device memory; when it is not, the paper partitions the non-zero stream,
double-buffers the partitions through PCIe on multiple CUDA streams, and
overlaps each partition's copy with the previous partition's kernel
(Section IV-D).  This module is the shared driver for that path:

* :func:`choose_chunk_nnz` sizes the partitions so that ``num_streams``
  in-flight chunk buffers plus the resident operands (factor matrices and
  the output) fit in device memory;
* :func:`execute_streamed` models a kernel over the
  :meth:`~repro.formats.fcoo.FCOOTensor.chunk` partitioning: it prices each
  chunk with a kernel-specific callable, resolves the transfer/compute
  pipeline by booking the chunks onto the device's copy/compute resources
  with :func:`repro.gpusim.timeline.schedule_chunks`, and assembles a
  :class:`~repro.gpusim.counters.KernelProfile` whose estimated time charges
  ``max(transfer, compute)`` per pipelined chunk instead of their sum.

The driver models time and memory only.  The numbers come from one
canonical pass over the whole encoding
(:func:`repro.kernels.unified.driver.compute`), so a streamed call is
bit-identical to the one-shot kernel — ``tests/test_streaming.py`` is the
property harness proving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.formats.fcoo import FCOOTensor
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.timeline import ChunkTiming, StreamSchedule, Timeline, schedule_chunks
from repro.gpusim.timing import OutOfDeviceMemory, estimate_kernel_time
from repro.util.validation import check_positive_int

__all__ = [
    "ChunkLedger",
    "StreamedExecution",
    "choose_chunk_nnz",
    "execute_streamed",
    "should_stream",
]


#: Prices one chunk: maps the chunk's own F-COO encoding to the work ledger
#: of executing it and the launch it would be issued with.
ChunkModel = Callable[[FCOOTensor], Tuple[KernelCounters, LaunchConfig]]


def should_stream(
    fcoo: FCOOTensor,
    footprint: float,
    device: DeviceSpec,
    streamed: Optional[bool],
) -> bool:
    """The streamed/one-shot decision, shared by the kernels and CP engine.

    ``streamed=None`` auto-selects by comparing the one-shot device
    footprint against capacity; an explicit ``True``/``False`` wins.  An
    empty tensor always takes the one-shot path (there is nothing to
    stream).
    """
    if fcoo.nnz == 0:
        return False
    if streamed is not None:
        return bool(streamed)
    return footprint > device.global_mem_bytes


@dataclass(frozen=True)
class ChunkLedger:
    """Counter ledger of one streamed chunk.

    Attributes
    ----------
    index / start / stop:
        Position of the chunk in the non-zero stream.
    nnz / num_segments / carries_in:
        Chunk statistics (``carries_in`` marks a segment straddling the
        boundary with the previous chunk).
    transfer_bytes:
        Host-to-device bytes for the chunk's F-COO arrays.
    transfer_s / compute_s:
        Unoverlapped copy and kernel times of the chunk.
    counters:
        The chunk kernel's work ledger (PCIe traffic included).
    """

    index: int
    start: int
    stop: int
    nnz: int
    num_segments: int
    carries_in: bool
    transfer_bytes: float
    transfer_s: float
    compute_s: float
    counters: KernelCounters


@dataclass
class StreamedExecution:
    """Full ledger of one out-of-core kernel execution.

    Attributes
    ----------
    num_streams / chunk_nnz / threadlen:
        The streaming configuration actually used.
    chunks:
        One :class:`ChunkLedger` per executed chunk, in stream order.
    schedule:
        The resolved transfer/compute pipeline.
    """

    num_streams: int
    chunk_nnz: int
    threadlen: int
    chunks: List[ChunkLedger]
    schedule: StreamSchedule

    # ------------------------------------------------------------------ #
    @property
    def num_chunks(self) -> int:
        """Number of chunks the non-zero stream was split into."""
        return len(self.chunks)

    @property
    def total_time_s(self) -> float:
        """Pipelined makespan (what the kernel profile reports)."""
        return self.schedule.total_time_s

    @property
    def transfer_time_s(self) -> float:
        """Total unoverlapped transfer seconds."""
        return self.schedule.transfer_time_s

    @property
    def compute_time_s(self) -> float:
        """Total unoverlapped compute seconds."""
        return self.schedule.compute_time_s

    @property
    def transfer_bytes(self) -> float:
        """Total host-to-device bytes streamed."""
        return sum(c.transfer_bytes for c in self.chunks)

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the ideal overlap saving achieved (0..1)."""
        return self.schedule.overlap_efficiency

    @property
    def timeline(self) -> Optional[Timeline]:
        """The :class:`~repro.gpusim.timeline.Timeline` the pipeline was
        booked on: the device's copy and compute engines, one booking per
        chunk transfer/kernel — queryable and Chrome-trace exportable."""
        return self.schedule.timeline


def choose_chunk_nnz(
    fcoo: FCOOTensor,
    *,
    device: DeviceSpec,
    threadlen: int,
    num_streams: int,
    resident_bytes: float,
) -> int:
    """Largest threadlen-aligned chunk size whose buffers fit on the device.

    ``num_streams`` chunk buffers must be resident simultaneously next to
    the ``resident_bytes`` of factor matrices and output.  Raises
    :class:`OutOfDeviceMemory` when even a single minimal (one
    ``threadlen``-partition) chunk per stream does not fit — streaming
    cannot help when the *dense* operands alone exceed the device.
    """
    threadlen = check_positive_int(threadlen, "threadlen")
    num_streams = check_positive_int(num_streams, "num_streams")
    if fcoo.nnz == 0:
        # Nothing to stream; any size yields zero chunks.
        return threadlen
    budget = float(device.global_mem_bytes) - float(resident_bytes)
    bytes_per_nnz = fcoo.storage_bytes(threadlen) / fcoo.nnz
    min_chunk_bytes = threadlen * bytes_per_nnz
    if budget < num_streams * min_chunk_bytes:
        raise OutOfDeviceMemory(
            resident_bytes + num_streams * min_chunk_bytes,
            device.global_mem_bytes,
            what="streamed chunk buffers and resident operands",
        )
    chunk_nnz = int(budget / (num_streams * bytes_per_nnz))
    chunk_nnz = (chunk_nnz // threadlen) * threadlen
    # Never larger than the (aligned-up) stream itself, never below one
    # thread partition.
    aligned_nnz = -(-max(fcoo.nnz, 1) // threadlen) * threadlen
    return max(threadlen, min(chunk_nnz, aligned_nnz))


def execute_streamed(
    fcoo: FCOOTensor,
    chunk_model: ChunkModel,
    *,
    device: DeviceSpec,
    threadlen: int,
    num_streams: int = 2,
    chunk_nnz: Optional[int] = None,
    resident_bytes: float = 0.0,
    name: str = "unified-streamed",
) -> KernelProfile:
    """Model a unified kernel executed chunk-by-chunk through PCIe.

    Parameters
    ----------
    fcoo:
        The full (host-resident) F-COO encoding.
    chunk_model:
        Kernel-specific callable; see :data:`ChunkModel`.
    device / threadlen / num_streams / chunk_nnz:
        Streaming configuration.  ``chunk_nnz=None`` sizes chunks
        automatically with :func:`choose_chunk_nnz`; an explicit value must
        be at least ``threadlen`` and is rounded down to a ``threadlen``
        multiple.
    resident_bytes:
        Device bytes held for the whole execution (factors + output).
    name:
        Profile name; ``-streamed`` is appended.

    Returns
    -------
    KernelProfile
        The pipelined profile; ``profile.streaming`` carries the
        :class:`StreamedExecution` ledger.
    """
    num_streams = check_positive_int(num_streams, "num_streams")
    if chunk_nnz is None:
        chunk_nnz = choose_chunk_nnz(
            fcoo,
            device=device,
            threadlen=threadlen,
            num_streams=num_streams,
            resident_bytes=resident_bytes,
        )
    else:
        chunk_nnz = check_positive_int(chunk_nnz, "chunk_nnz")
        if chunk_nnz < threadlen:
            raise ValueError(
                f"chunk_nnz ({chunk_nnz}) must be at least threadlen ({threadlen}): "
                "a chunk cannot be smaller than one thread partition"
            )
        chunk_nnz = (chunk_nnz // threadlen) * threadlen

    chunks = fcoo.chunk(chunk_nnz, threadlen=threadlen)

    # Validate the device budget up front (the chunk byte sizes are pure
    # arithmetic) so an explicit over-sized chunk_nnz fails before any chunk
    # is priced.
    chunk_bytes = [float(c.tensor.storage_bytes(threadlen)) for c in chunks]
    peak_chunk_bytes = max(chunk_bytes, default=0.0)
    footprint = resident_bytes + num_streams * peak_chunk_bytes
    if footprint > device.global_mem_bytes:
        raise OutOfDeviceMemory(footprint, device.global_mem_bytes, what=name)

    ledgers: List[ChunkLedger] = []
    timings: List[ChunkTiming] = []
    merged = KernelCounters()

    for i, chunk in enumerate(chunks):
        counters, launch = chunk_model(chunk.tensor)
        transfer_bytes = chunk_bytes[i]
        counters.host_to_device_bytes += transfer_bytes
        compute_s, _ = estimate_kernel_time(
            counters, launch, device, include_transfers=False
        )
        transfer_s = transfer_bytes / device.pcie_bandwidth_bytes_per_s
        ledgers.append(
            ChunkLedger(
                index=i,
                start=chunk.start,
                stop=chunk.stop,
                nnz=chunk.nnz,
                num_segments=chunk.num_segments,
                carries_in=chunk.carries_in,
                transfer_bytes=transfer_bytes,
                transfer_s=transfer_s,
                compute_s=compute_s,
                counters=counters,
            )
        )
        timings.append(ChunkTiming(transfer_s=transfer_s, compute_s=compute_s))
        merged = merged.merge(counters)

    schedule = schedule_chunks(timings, num_streams)
    execution = StreamedExecution(
        num_streams=num_streams,
        chunk_nnz=chunk_nnz,
        threadlen=threadlen,
        chunks=ledgers,
        schedule=schedule,
    )
    return KernelProfile(
        name=f"{name}-streamed",
        counters=merged,
        estimated_time_s=schedule.total_time_s,
        device_memory_bytes=footprint,
        breakdown={
            "compute": schedule.compute_time_s,
            "transfer": schedule.transfer_time_s,
            "overlap_saved": schedule.overlap_saved_s,
            "chunks": float(len(ledgers)),
        },
        streaming=execution,
    )
