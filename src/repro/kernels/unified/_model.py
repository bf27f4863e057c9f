"""Cost-model helpers shared by the unified kernels.

The unified kernels differ only in the width of their per-non-zero product
(1 column group for SpTTM, ``R`` for SpMTTKRP, ``R_1·R_2·...`` for SpTTMc)
and in how many product-mode index streams they read; everything else —
tensor streaming, factor access through the read-only cache, segmented scan,
output scatter — is common and modelled here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.formats.fcoo import FCOOTensor
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.memory import AccessPattern, coalesced_traffic_bytes, readonly_cache_traffic
from repro.gpusim.scan import segmented_scan_counters

__all__ = [
    "tensor_stream_bytes",
    "factor_access_bytes",
    "output_scatter_bytes",
    "unified_kernel_counters",
    "unified_device_footprint",
]

#: Bytes per factor and output value (the kernels' single precision).
_VALUE_BYTES = 4


def tensor_stream_bytes(
    fcoo: FCOOTensor,
    launch: LaunchConfig,
    device: DeviceSpec,
) -> float:
    """Global reads for streaming the F-COO arrays (indices, values, flags).

    Consecutive threads read consecutive array elements, so every stream is
    perfectly coalesced; the whole tensor is read exactly once per kernel
    thanks to kernel fusion (the product, scan and accumulate stages share
    the data in registers / shared memory).
    """
    nnz = fcoo.nnz
    index_bytes = fcoo.index_dtype.itemsize * fcoo.product_indices.shape[1]
    value_bytes = fcoo.value_dtype.itemsize
    bf_bytes = nnz / 8.0
    sf_bytes = fcoo.num_partitions(launch.threadlen) / 8.0
    read = coalesced_traffic_bytes(
        nnz, index_bytes + value_bytes, AccessPattern.COALESCED, device
    )
    read += bf_bytes + sf_bytes
    return read


def factor_access_bytes(row_indices: np.ndarray, rank: int, device: DeviceSpec) -> float:
    """Global reads for gathering factor-matrix rows selected by a product mode.

    Each non-zero reads one row (``rank`` float32 values) of the factor
    matrix whose row index comes from the product-mode index stream.  The
    unified kernels route these reads through the read-only data cache,
    backed by the L2.
    """
    row_bytes = float(rank * _VALUE_BYTES)
    cache_bytes = float(device.readonly_cache_bytes_total + device.l2_bytes)
    traffic = readonly_cache_traffic(row_indices, row_bytes, device, cache_bytes=cache_bytes)
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


def unified_kernel_counters(
    fcoo: FCOOTensor,
    factor_row_streams: Sequence[np.ndarray],
    rank: int,
    output_rows: int,
    output_width: int,
    launch: LaunchConfig,
    device: DeviceSpec,
    *,
    flops_per_nnz_per_column: float = 2.0,
    fused: bool = True,
) -> KernelCounters:
    """Assemble the full ledger of one unified kernel execution.

    Parameters
    ----------
    fcoo:
        The encoded tensor.
    factor_row_streams:
        One row-index stream per dense factor matrix that is gathered (for
        SpTTM a single stream, for SpMTTKRP/SpTTMc one per product mode).
    rank:
        Number of columns of each gathered factor matrix.
    output_rows / output_width:
        Shape of the reduced result written to global memory.
    launch:
        Launch configuration (block size, threadlen, grid).
    device:
        Target device.
    flops_per_nnz_per_column:
        Arithmetic per non-zero per output column (2 for a multiply-add,
        higher when several factor rows are combined).
    fused:
        Whether the product/scan/accumulate stages run as one kernel
        (the unified default).  ``False`` is used by the fusion ablation.
    """
    nnz = fcoo.nnz
    read = tensor_stream_bytes(fcoo, launch, device)
    for stream in factor_row_streams:
        read += factor_access_bytes(stream, rank, device)
    written = output_scatter_bytes(output_rows, output_width, device)
    # The scan stage's ledger becomes the kernel's: the other stages'
    # traffic is added to it in stage order, so a priced kernel builds one
    # ledger.
    counters = segmented_scan_counters(
        num_elements=nnz,
        num_segments=fcoo.num_segments,
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
    fcoo: FCOOTensor,
    launch: LaunchConfig,
    factor_bytes: float,
    output_bytes: float,
) -> float:
    """Device-memory footprint of one unified kernel (inputs + outputs).

    The one-shot strategy keeps no intermediate tensors; only the F-COO
    arrays, the dense factor matrices and the output are resident.
    """
    return float(fcoo.storage_bytes(launch.threadlen) + factor_bytes + output_bytes)
