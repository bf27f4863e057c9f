"""Exhaustive sweep of the unified kernels' tuning parameters.

The paper's Figure 5 sweeps the launch parameters ``(BLOCK_SIZE,
threadlen)``; the out-of-core streamed execution path adds two more axes —
the number of CUDA streams and the chunk size — which matter whenever the
tensor is (or is forced) out-of-core, and the multi-GPU sharded path adds a
device-count axis.  The sweep covers the full cross product; the classic
two-parameter surface is the minimum over the streaming and device axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec, InterconnectSpec, PCIE3_P2P
from repro.gpusim.counters import KernelProfile
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import operation_spec
from repro.kernels.unified.driver import model, resolve_encoding
from repro.tensor.sparse import SparseTensor
from repro.util.formatting import format_table
from repro.util.validation import check_rank

__all__ = [
    "TuningResult",
    "tune_unified",
    "DEFAULT_BLOCK_SIZES",
    "DEFAULT_THREADLENS",
    "DEFAULT_NUM_STREAMS",
    "DEFAULT_CHUNK_SIZES",
    "DEFAULT_DEVICE_COUNTS",
]

#: The sweep ranges used in the paper's Figure 5.
DEFAULT_BLOCK_SIZES: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024)
DEFAULT_THREADLENS: Tuple[int, ...] = (8, 16, 32, 48, 64)

#: Default streaming axes: a single auto-sized configuration, so the classic
#: two-parameter sweep stays exactly as cheap as before.
DEFAULT_NUM_STREAMS: Tuple[int, ...] = (2,)
DEFAULT_CHUNK_SIZES: Tuple[Optional[int], ...] = (None,)

#: Default device-count axis: single-GPU, so the classic sweep is unchanged.
DEFAULT_DEVICE_COUNTS: Tuple[int, ...] = (1,)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a launch-parameter sweep.

    Attributes
    ----------
    operation / mode / rank:
        What was tuned.
    block_sizes / threadlens:
        The classic launch-parameter axes.
    num_streams / chunk_sizes:
        The streaming axes (singletons unless the sweep explored the
        out-of-core configuration space; ``None`` chunk size means
        auto-sized to the device memory budget).
    device_counts:
        The multi-GPU axis (a singleton ``(1,)`` unless the sweep explored
        sharded execution across a simulated cluster).
    times_grid:
        ``(len(block_sizes), len(threadlens), len(num_streams),
        len(chunk_sizes), len(device_counts))`` array of simulated times.
    """

    operation: OperationKind
    mode: int
    rank: int
    block_sizes: Tuple[int, ...]
    threadlens: Tuple[int, ...]
    num_streams: Tuple[int, ...]
    chunk_sizes: Tuple[Optional[int], ...]
    times_grid: np.ndarray
    device_counts: Tuple[int, ...] = (1,)

    # ------------------------------------------------------------------ #
    @property
    def times_full(self) -> np.ndarray:
        """The 4-D ``(BLOCK_SIZE, threadlen, num_streams, chunk)`` surface
        (best over the device-count axis)."""
        return self.times_grid.min(axis=4)

    @property
    def times(self) -> np.ndarray:
        """The ``(BLOCK_SIZE, threadlen)`` surface (best over the other axes)."""
        return self.times_grid.min(axis=(2, 3, 4))

    @property
    def best(self) -> Tuple[int, int]:
        """The ``(BLOCK_SIZE, threadlen)`` pair with the lowest simulated time."""
        i, j = np.unravel_index(int(np.argmin(self.times)), self.times.shape)
        return self.block_sizes[i], self.threadlens[j]

    @property
    def best_config(self) -> Tuple[int, int, int, Optional[int]]:
        """The ``(BLOCK_SIZE, threadlen, num_streams, chunk_nnz)`` optimum."""
        i, j, s, c = np.unravel_index(
            int(np.argmin(self.times_full)), self.times_full.shape
        )
        return (
            self.block_sizes[i],
            self.threadlens[j],
            self.num_streams[s],
            self.chunk_sizes[c],
        )

    @property
    def best_full_config(self) -> Tuple[int, int, int, Optional[int], int]:
        """The full optimum including the device count."""
        i, j, s, c, d = np.unravel_index(
            int(np.argmin(self.times_grid)), self.times_grid.shape
        )
        return (
            self.block_sizes[i],
            self.threadlens[j],
            self.num_streams[s],
            self.chunk_sizes[c],
            self.device_counts[d],
        )

    @property
    def best_time(self) -> float:
        """The lowest simulated time over the sweep."""
        return float(self.times_grid.min())

    def render(self, *, title: str = "") -> str:
        """ASCII rendering of the sweep surface (rows: BLOCK_SIZE, cols: threadlen)."""
        headers = ["BLOCK_SIZE \\ threadlen"] + [str(t) for t in self.threadlens]
        times = self.times
        rows = []
        for i, bs in enumerate(self.block_sizes):
            rows.append([bs] + [float(times[i, j]) for j in range(len(self.threadlens))])
        text = format_table(
            headers, rows, title=title or f"{self.operation.value} tuning surface (s)"
        )
        if len(self.num_streams) > 1 or len(self.chunk_sizes) > 1:
            bs, tl, ns, cn = self.best_config
            text += (
                f"\nbest streaming configuration: num_streams={ns}, "
                f"chunk_nnz={'auto' if cn is None else cn} "
                f"(at BLOCK_SIZE={bs}, threadlen={tl})"
            )
        if len(self.device_counts) > 1:
            bs, tl, _ns, _cn, dc = self.best_full_config
            text += (
                f"\nbest device count: {dc} GPU(s) "
                f"(at BLOCK_SIZE={bs}, threadlen={tl})"
            )
        return text


def tune_unified(
    tensor: Union[SparseTensor, FCOOTensor],
    operation: Union[OperationKind, str],
    mode: int,
    *,
    rank: int = 16,
    device: DeviceSpec = TITAN_X,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    threadlens: Sequence[int] = DEFAULT_THREADLENS,
    num_streams: Sequence[int] = DEFAULT_NUM_STREAMS,
    chunk_sizes: Sequence[Optional[int]] = DEFAULT_CHUNK_SIZES,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    interconnect: InterconnectSpec = PCIE3_P2P,
    streamed: Optional[bool] = None,
) -> TuningResult:
    """Sweep the unified-kernel tuning parameters on one tensor.

    Covers all three unified kernels (SpTTM, SpMTTKRP, SpTTMc).  Each cell
    is priced by the kernel's cost model
    (:func:`repro.kernels.unified.driver.model`) alone, so the sweep runs
    no numerics.  ``tensor`` may be an :class:`FCOOTensor` already encoded
    for ``operation`` on ``mode`` (checked as the kernels check it);
    otherwise it is encoded once, since the encoding does not depend on
    the launch parameters.

    ``num_streams`` / ``chunk_sizes`` extend the sweep with the streamed
    execution axes; they only influence the result when the kernel actually
    streams (``streamed=True``, or auto-fallback on an over-capacity
    tensor).  ``device_counts`` extends it with the multi-GPU axis: a count
    above one shards the kernel across a homogeneous cluster of ``device``
    joined by ``interconnect``.  ``streamed`` is forwarded to the cost
    model unchanged, as the kernels forward it.  A configuration that does
    not fit on the device (its chunk buffers exceed capacity) is recorded
    as ``inf`` rather than aborting the sweep.
    """
    operation = OperationKind.coerce(operation)
    rank = check_rank(rank)
    if not num_streams:
        raise ValueError("num_streams must contain at least one entry")
    if not chunk_sizes:
        raise ValueError("chunk_sizes must contain at least one entry")
    if not device_counts:
        raise ValueError("device_counts must contain at least one entry")
    fcoo = resolve_encoding(tensor, operation, mode)
    op = operation_spec(fcoo, operation, rank)

    clusters = {
        int(d): (
            None
            if int(d) <= 1
            else ClusterSpec.homogeneous(device, int(d), interconnect=interconnect)
        )
        for d in device_counts
    }
    times = np.zeros(
        (
            len(block_sizes),
            len(threadlens),
            len(num_streams),
            len(chunk_sizes),
            len(device_counts),
        ),
        dtype=np.float64,
    )

    def price(block_size, threadlen, n_streams, chunk_nnz, n_devices) -> KernelProfile:
        return model(
            fcoo,
            op,
            device=device,
            block_size=int(block_size),
            threadlen=int(threadlen),
            ctx=ExecContext(
                streamed=streamed,
                num_streams=int(n_streams),
                chunk_nnz=None if chunk_nnz is None else int(chunk_nnz),
                cluster=clusters[int(n_devices)],
            ),
        )

    def streaming_axes_matter(profile: KernelProfile) -> bool:
        """Whether num_streams / chunk_nnz can influence this cell's time."""
        if streamed is True or profile.streaming is not None:
            return True
        return profile.sharded is not None and profile.sharded.has_streaming_shards

    for i, block_size in enumerate(block_sizes):
        for j, threadlen in enumerate(threadlens):
            for d, n_devices in enumerate(device_counts):
                first = None
                try:
                    first = price(
                        block_size, threadlen, num_streams[0], chunk_sizes[0], n_devices
                    )
                    times[i, j, 0, 0, d] = first.estimated_time_s
                except OutOfDeviceMemory:
                    # Infeasible configuration (e.g. num_streams chunk
                    # buffers exceed capacity): record it, keep sweeping.
                    times[i, j, 0, 0, d] = np.inf
                if first is not None and not streaming_axes_matter(first):
                    # The kernel never streamed, so the streaming axes
                    # cannot change the outcome.
                    times[i, j, :, :, d] = first.estimated_time_s
                    continue
                for s, n_streams in enumerate(num_streams):
                    for c, chunk_nnz in enumerate(chunk_sizes):
                        if (s, c) == (0, 0):
                            continue
                        try:
                            times[i, j, s, c, d] = price(
                                block_size, threadlen, n_streams, chunk_nnz, n_devices
                            ).estimated_time_s
                        except OutOfDeviceMemory:
                            times[i, j, s, c, d] = np.inf

    return TuningResult(
        operation=operation,
        mode=fcoo.mode,
        rank=rank,
        block_sizes=tuple(int(b) for b in block_sizes),
        threadlens=tuple(int(t) for t in threadlens),
        num_streams=tuple(int(n) for n in num_streams),
        chunk_sizes=tuple(None if c is None else int(c) for c in chunk_sizes),
        times_grid=times,
        device_counts=tuple(int(d) for d in device_counts),
    )
