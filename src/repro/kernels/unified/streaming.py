"""Out-of-core streamed execution of the unified kernels.

The one-shot unified kernels assume the whole F-COO encoding is resident in
device memory; when it is not, the paper partitions the non-zero stream,
double-buffers the partitions through PCIe on multiple CUDA streams, and
overlaps each partition's copy with the previous partition's kernel
(Section IV-D).  This module is the shared driver for that path:

* :func:`choose_chunk_nnz` sizes the partitions so that ``num_streams``
  in-flight chunk buffers plus the resident operands (factor matrices and
  the output) fit in device memory;
* :func:`chunk_stream` splits the stream into the
  :meth:`~repro.formats.fcoo.FCOOTensor.chunk` partitioning (spans of the
  encoding, with no tensor of their own).  It depends on the
  ``threadlen`` but not on the ``BLOCK_SIZE``, so a launch sweep chunks
  each stream once per ``threadlen``;
* :func:`price_chunks` prices each chunk with a kernel-specific callable,
  resolves the transfer/compute pipeline over the device's copy and
  compute engines with :func:`repro.gpusim.timeline.schedule_chunks`, and
  assembles a :class:`~repro.gpusim.counters.KernelProfile` whose
  estimated time charges ``max(transfer, compute)`` per pipelined chunk
  instead of their sum.

The driver models time and memory only.  The numbers come from one
canonical pass over the whole encoding
(:func:`repro.kernels.unified.driver.compute`), so a streamed call is
bit-identical to the one-shot kernel — ``tests/test_streaming.py`` is the
property harness proving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from repro.formats.fcoo import FCOOChunk, FCOOTensor
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.timeline import ChunkTiming, StreamSchedule, schedule_chunks
from repro.gpusim.timing import OutOfDeviceMemory, estimate_kernel_time
from repro.util.validation import check_positive_int

__all__ = [
    "ChunkLedger",
    "StreamChunking",
    "StreamedExecution",
    "choose_chunk_nnz",
    "chunk_stream",
    "price_chunks",
    "should_stream",
]


#: Prices one chunk: maps the chunk (a span of the streamed encoding) to the
#: work ledger of executing it and the launch it would be issued with.
ChunkModel = Callable[[FCOOChunk], Tuple[KernelCounters, LaunchConfig]]

#: What the streamed path runs over: a whole encoding, or a span of one (a
#: shard that does not fit its device).
Stream = Union[FCOOTensor, FCOOChunk]


def should_stream(
    fcoo: Stream,
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
    def overlap_efficiency(self) -> float:
        """Fraction of the ideal overlap saving achieved (0..1)."""
        return self.schedule.overlap_efficiency


def choose_chunk_nnz(
    fcoo: Stream,
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


class StreamChunking(NamedTuple):
    """A stream's chunks for one device and ``threadlen``, each chunk's
    host-to-device bytes, and the device footprint: the resident operands
    plus ``num_streams`` buffers of the largest chunk."""

    num_streams: int
    chunk_nnz: int
    threadlen: int
    chunks: List[FCOOChunk]
    chunk_bytes: List[float]
    footprint: float


def chunk_stream(
    fcoo: Stream,
    *,
    device: DeviceSpec,
    threadlen: int,
    num_streams: int = 2,
    chunk_nnz: Optional[int] = None,
    resident_bytes: float = 0.0,
    name: str = "unified-streamed",
) -> StreamChunking:
    """Split ``fcoo`` into the chunks a streamed kernel pipelines.

    ``chunk_nnz=None`` sizes chunks automatically with
    :func:`choose_chunk_nnz` (``num_streams`` buffers next to the
    ``resident_bytes`` of factors and output); an explicit value must be at
    least ``threadlen`` and is rounded down to a ``threadlen`` multiple.
    Raises :class:`OutOfDeviceMemory` when the chunks do not fit the
    device.
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
    chunk_bytes = [float(c.storage_bytes(threadlen)) for c in chunks]
    peak_chunk_bytes = max(chunk_bytes, default=0.0)
    footprint = resident_bytes + num_streams * peak_chunk_bytes
    if footprint > device.global_mem_bytes:
        raise OutOfDeviceMemory(footprint, device.global_mem_bytes, what=name)
    return StreamChunking(num_streams, chunk_nnz, threadlen, chunks, chunk_bytes, footprint)


def price_chunks(
    chunking: StreamChunking,
    chunk_model: ChunkModel,
    *,
    device: DeviceSpec,
    name: str = "unified-streamed",
) -> KernelProfile:
    """The pipelined profile of ``chunking``'s chunks, each priced with
    ``chunk_model`` (see :data:`ChunkModel`); ``name`` gets ``-streamed``
    appended, and ``profile.streaming`` carries the
    :class:`StreamedExecution` ledger."""
    ledgers: List[ChunkLedger] = []
    timings: List[ChunkTiming] = []

    for i, chunk in enumerate(chunking.chunks):
        counters, launch = chunk_model(chunk)
        transfer_bytes = chunking.chunk_bytes[i]
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

    schedule = schedule_chunks(timings, chunking.num_streams)
    execution = StreamedExecution(
        num_streams=chunking.num_streams,
        chunk_nnz=chunking.chunk_nnz,
        threadlen=chunking.threadlen,
        chunks=ledgers,
        schedule=schedule,
    )
    return KernelProfile(
        name=f"{name}-streamed",
        counters=KernelCounters.merged([ledger.counters for ledger in ledgers]),
        estimated_time_s=schedule.total_time_s,
        device_memory_bytes=chunking.footprint,
        breakdown={
            "compute": schedule.compute_time_s,
            "transfer": schedule.transfer_time_s,
            "overlap_saved": schedule.overlap_saved_s,
            "chunks": float(len(ledgers)),
        },
        streaming=execution,
    )
