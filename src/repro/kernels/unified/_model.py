"""Cost-model helpers shared by the unified kernels.

The unified kernels differ only in the width of their per-non-zero product
(1 column group for SpTTM, ``R`` for SpMTTKRP, ``R_1·R_2·...`` for SpTTMc)
and in how many product-mode index streams they read; everything else —
tensor streaming, factor access through the read-only cache, segmented scan,
output scatter — is common and modelled here.

A priced span's terms split in two.  :func:`span_terms` derives the ones
that do not depend on the launch (index/value stream bytes, factor-row
gathers, output scatter) once per span and device;
:func:`unified_kernel_counters` adds the launch-dependent ones (start flags,
segmented scan, active threads) for one launch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from repro.formats.fcoo import FCOOChunk, FCOOTensor
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.memory import (
    AccessPattern,
    coalesced_traffic_bytes,
    readonly_cache_traffic_from_counts,
)
from repro.gpusim.scan import segmented_scan_counters

__all__ = [
    "SpanTerms",
    "span_terms",
    "index_value_stream_bytes",
    "factor_access_bytes",
    "output_scatter_bytes",
    "unified_kernel_counters",
    "unified_device_footprint",
]

#: Bytes per factor and output value (the kernels' single precision).
_VALUE_BYTES = 4


@dataclass(frozen=True)
class SpanTerms:
    """The launch-invariant terms of one priced span on one device.

    Attributes
    ----------
    nnz / num_segments:
        The span's non-zeros and local reduction segments.
    stream_bytes:
        Coalesced reads of the span's index and value arrays.
    factor_bytes:
        DRAM bytes of each product mode's factor-row gathers.
    scatter_bytes:
        Global writes of the reduced per-segment results.
    """

    nnz: int
    num_segments: int
    stream_bytes: float
    factor_bytes: Tuple[float, ...]
    scatter_bytes: float


def index_value_stream_bytes(span: FCOOChunk, device: DeviceSpec) -> float:
    """Global reads for streaming the span's index and value arrays.

    Consecutive threads read consecutive array elements, so every stream is
    perfectly coalesced; the whole tensor is read exactly once per kernel
    thanks to kernel fusion (the product, scan and accumulate stages share
    the data in registers / shared memory).  The flag arrays, whose ``sf``
    part depends on ``threadlen``, are added per launch.
    """
    source = span.source
    index_bytes = source.index_dtype.itemsize * source.product_indices.shape[1]
    value_bytes = source.value_dtype.itemsize
    return coalesced_traffic_bytes(
        span.nnz, index_bytes + value_bytes, AccessPattern.COALESCED, device
    )


def factor_access_bytes(
    accesses: int, distinct_rows: int, rank: int, device: DeviceSpec
) -> float:
    """Global reads for gathering factor-matrix rows selected by a product mode.

    Each of ``accesses`` non-zeros reads one row (``rank`` float32 values)
    of the factor matrix, ``distinct_rows`` rows in all.  The unified
    kernels route these reads through the read-only data cache, backed by
    the L2.
    """
    row_bytes = float(rank * _VALUE_BYTES)
    cache_bytes = float(device.readonly_cache_bytes_total + device.l2_bytes)
    traffic = readonly_cache_traffic_from_counts(
        accesses, distinct_rows, row_bytes, device, cache_bytes=cache_bytes
    )
    return traffic.dram_bytes


def output_scatter_bytes(num_rows: int, row_width: int, device: DeviceSpec) -> float:
    """Global writes of the reduced per-segment (float32) results."""
    return coalesced_traffic_bytes(
        num_rows * row_width,
        _VALUE_BYTES,
        AccessPattern.COALESCED,
        device,
        contiguous_run_bytes=row_width * _VALUE_BYTES,
    )


def span_terms(
    span: FCOOChunk,
    distinct_rows: Sequence[int],
    *,
    rank: int,
    output_width: int,
    device: DeviceSpec,
) -> SpanTerms:
    """The launch-invariant terms of ``span`` on ``device``.

    ``distinct_rows`` holds each product mode's distinct factor rows over
    the span (one entry per dense factor matrix that is gathered);
    ``rank`` is the columns of each gathered row and ``output_width`` the
    columns of each reduced segment.
    """
    return SpanTerms(
        nnz=span.nnz,
        num_segments=span.num_segments,
        stream_bytes=index_value_stream_bytes(span, device),
        factor_bytes=tuple(
            factor_access_bytes(span.nnz, distinct, rank, device)
            for distinct in distinct_rows
        ),
        scatter_bytes=output_scatter_bytes(span.num_segments, output_width, device),
    )


def unified_kernel_counters(
    terms: SpanTerms,
    launch: LaunchConfig,
    device: DeviceSpec,
    *,
    output_width: int,
    flops_per_nnz_per_column: float = 2.0,
    fused: bool = True,
) -> KernelCounters:
    """Assemble the full ledger of one unified kernel execution.

    Parameters
    ----------
    terms:
        The priced span's launch-invariant terms (:func:`span_terms`).
    launch:
        Launch configuration (block size, threadlen, grid).
    device:
        Target device.
    output_width:
        Columns of each reduced segment.
    flops_per_nnz_per_column:
        Arithmetic per non-zero per output column (2 for a multiply-add,
        higher when several factor rows are combined).
    fused:
        Whether the product/scan/accumulate stages run as one kernel
        (the unified default).  ``False`` is used by the fusion ablation.
    """
    nnz = terms.nnz
    # The flag arrays: one bf bit per non-zero, one sf bit per partition.
    read = terms.stream_bytes
    read += nnz / 8.0 + -(-nnz // launch.threadlen) / 8.0
    for factor_bytes in terms.factor_bytes:
        read += factor_bytes
    written = terms.scatter_bytes
    # The scan stage's ledger becomes the kernel's: the other stages'
    # traffic is added to it in stage order, so a priced kernel builds one
    # ledger.
    counters = segmented_scan_counters(
        num_elements=nnz,
        num_segments=terms.num_segments,
        rank=output_width,
        launch=launch,
        device=device,
        fused=fused,
    )
    counters.gmem_read_bytes = read + counters.gmem_read_bytes
    counters.gmem_write_bytes = written + counters.gmem_write_bytes
    counters.flops += flops_per_nnz_per_column * nnz * output_width
    counters.active_threads = float(
        min(launch.total_threads, max(1, -(-nnz // launch.threadlen)) * launch.grid_y)
    )
    counters.kernel_launches += 1 if fused else 2
    counters.imbalance_factor = 1.0  # non-zero partitioning is perfectly balanced
    return counters


def unified_device_footprint(
    span: Union[FCOOTensor, FCOOChunk],
    launch: LaunchConfig,
    factor_bytes: float,
    output_bytes: float,
) -> float:
    """Device-memory footprint of one unified kernel (inputs + outputs).

    The one-shot strategy keeps no intermediate tensors; only the F-COO
    arrays, the dense factor matrices and the output are resident.
    """
    return float(span.storage_bytes(launch.threadlen) + factor_bytes + output_bytes)
