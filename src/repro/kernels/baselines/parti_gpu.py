"""ParTI!'s GPU kernels (the paper's GPU baseline).

Two kernels are reproduced, following the descriptions in the paper's
Sections III-B and V and in Li et al. (IA^3 2016):

* :func:`parti_gpu_spttm` — *fiber-parallel* SpTTM.  Work is partitioned by
  output fiber: a two-dimensional thread block assigns one x-lane per fiber
  and spreads the rank across the y dimension, so the exposed parallelism
  equals the number of non-empty fibers (540 for mode-2 of brainq!) and a
  lane's work equals its fiber's length — the source of the load imbalance,
  warp divergence and mode sensitivity the paper criticises.  The thread
  block shape depends on the rank, which degrades coalescing as the rank
  grows (Figure 8).

* :func:`parti_gpu_spmttkrp` — COO SpMTTKRP.  ParTI parallelises over
  non-zeros but (i) reads all mode indices of every non-zero (COO), (ii)
  materialises the intermediate semi-sparse tensor of the two-step
  formulation (Figure 3a), and (iii) resolves write conflicts with atomic
  additions into the output rows, which serialise heavily because every
  output row receives one update per non-zero of its slice.  The
  intermediate tensor is also what makes ParTI run out of device memory on
  the large tensors (Section V-A, Figure 9).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.formats.storage_cost import coo_storage_bytes
from repro.gpusim.atomics import atomic_cost_ops
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.memory import AccessPattern, coalesced_traffic_bytes, readonly_cache_traffic
from repro.gpusim.timing import check_device_fit, profile_from_counters
from repro.kernels.common import MTTKRPResult, SpTTMResult, validate_factor, warp_group_imbalance
from repro.kernels.reference.coo_reference import reference_spttm
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode

__all__ = ["parti_gpu_spttm", "parti_gpu_spmttkrp"]

#: Extra work factor ParTI's rank-dependent 2-D thread blocks pay per unit of
#: rank growth: warp divergence plus strided accesses when the block shape
#: changes with the rank (paper Section IV-D).  Calibrated so the rank sweep
#: of Figure 8 grows at roughly the reported rate.
_RANK_DIVERGENCE_SLOPE = 1.0 / 32.0


def parti_gpu_spttm(
    tensor: SparseTensor,
    matrix: np.ndarray,
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 512,
) -> SpTTMResult:
    """Fiber-parallel SpTTM as implemented in ParTI! on GPUs.

    Numerically identical to the unified kernel; the profile reflects the
    fiber-centric execution.
    """
    mode = check_mode(mode, tensor.order)
    matrix = validate_factor(matrix, tensor.shape[mode], "matrix")
    rank = matrix.shape[1]

    output = reference_spttm(tensor, matrix, mode)

    fiber_nnz = tensor.fiber_counts(mode)
    nfibs = int(fiber_nnz.shape[0])
    nnz = tensor.nnz

    # Thread-block layout: (block_size / rank) fibers per block along x,
    # rank along y.  Grid covers all fibers.
    fibers_per_block = max(block_size // max(rank, 1), 1)
    grid_x = max(-(-nfibs // fibers_per_block), 1)
    launch = LaunchConfig(block_size=block_size, grid_x=grid_x, grid_y=1, threadlen=1)

    counters = KernelCounters()
    # Tensor reads: each lane walks its own fiber, so consecutive lanes read
    # addresses a fiber apart — random gathers of (index + value) pairs with
    # a contiguous run equal to the fiber length.
    mean_fiber = float(fiber_nnz.mean()) if nfibs else 0.0
    counters.gmem_read_bytes += coalesced_traffic_bytes(
        nnz,
        8,
        AccessPattern.RANDOM,
        device,
        contiguous_run_bytes=max(mean_fiber * 8.0, 8.0),
    )
    # Fiber metadata (sCOO-style coordinates and fiber pointers).
    counters.gmem_read_bytes += nfibs * (tensor.order - 1 + 1) * 4.0
    # Factor rows: the y-threads of a block read consecutive columns of the
    # same row, which coalesces well; reuse only through the L2 (ParTI does
    # not route these loads through the read-only cache).
    factor_traffic = readonly_cache_traffic(
        np.asarray(tensor.mode_indices(mode)),
        rank * 4.0,
        device,
        cache_bytes=float(device.l2_bytes),
    )
    counters.gmem_read_bytes += factor_traffic.dram_bytes
    # Output fibers written once each, coalesced.
    counters.gmem_write_bytes += nfibs * rank * 4.0
    counters.flops += 2.0 * nnz * rank
    counters.kernel_launches += 1
    counters.active_threads = float(max(nfibs * rank, 1))
    # Load imbalance: lanes of a warp own different fibers and wait for the
    # longest one; additionally the rank-dependent block shape causes
    # divergence that grows with the rank.
    lanes_per_warp = max(device.warp_size // max(min(rank, device.warp_size), 1), 1)
    imbalance = warp_group_imbalance(fiber_nnz, lanes_per_warp)
    rank_penalty = 1.0 + _RANK_DIVERGENCE_SLOPE * rank
    counters.imbalance_factor = float(imbalance * rank_penalty)

    footprint = (
        coo_storage_bytes(tensor.nnz, tensor.order)
        + matrix.shape[0] * rank * 4.0
        + output.storage_bytes()
    )
    profile = profile_from_counters(
        f"parti-gpu-spttm-mode{mode}",
        counters,
        launch,
        device,
        device_memory_bytes=footprint,
    )
    return SpTTMResult(output=output, profile=profile)


def parti_gpu_spmttkrp(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 256,
) -> MTTKRPResult:
    """Two-step COO SpMTTKRP with atomic updates, as in ParTI! on GPUs.

    Step 1 multiplies along the last product mode producing the intermediate
    semi-sparse tensor ``Y`` (Figure 3a); step 2 multiplies ``Y`` by the
    remaining factor and atomically accumulates into the output rows.

    Raises
    ------
    repro.gpusim.OutOfDeviceMemory
        When the COO tensor plus the intermediate tensor do not fit in
        device memory — the failure the paper reports for nell1/delicious.
    """
    mode = check_mode(mode, tensor.order)
    order = tensor.order
    if len(factors) != order:
        raise ValueError(f"need one factor per mode ({order}), got {len(factors)}")
    product_modes = [m for m in range(order) if m != mode]
    mats = {
        m: validate_factor(factors[m], tensor.shape[m], f"factors[{m}]") for m in product_modes
    }
    ranks = {mat.shape[1] for mat in mats.values()}
    if len(ranks) != 1:
        raise ValueError(f"product-mode factors must share one rank, got {sorted(ranks)}")
    rank = ranks.pop()

    nnz = tensor.nnz
    # ParTI uses 64-bit index types on the GPU (its linearised fiber indices
    # overflow 32 bits on the large tensors), which is part of why its
    # footprint exceeds device memory on nell1/delicious (Figure 9).
    coo_bytes = coo_storage_bytes(nnz, order, index_bytes=8)

    # ------------------------------------------------------------------ #
    # Footprint / OOM check first: COO + factors + intermediate + output.
    # ------------------------------------------------------------------ #
    last_product = product_modes[-1]
    intermediate_fibers = tensor.num_fibers(last_product) if nnz else 0
    intermediate_bytes = intermediate_fibers * (rank * 4.0 + (order - 1) * 8.0)
    factor_bytes = sum(tensor.shape[m] * rank * 4.0 for m in product_modes)
    output_bytes = tensor.shape[mode] * rank * 4.0
    footprint = coo_bytes + factor_bytes + intermediate_bytes + output_bytes
    check_device_fit(footprint, device, what=f"ParTI-GPU SpMTTKRP on mode {mode}")

    # ------------------------------------------------------------------ #
    # Numerical result via the two-step formulation (matches the one-shot
    # result exactly; verified in the tests).
    # ------------------------------------------------------------------ #
    output = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
    idx = np.asarray(tensor.indices)
    values = np.asarray(tensor.values)
    if nnz:
        # Step 1: partial = X ×_{last_product} U_last  (kept fiber-wise).
        other = [m for m in range(order) if m != last_product]
        fiber_keys, fiber_inverse = np.unique(idx[:, other], axis=0, return_inverse=True)
        step1 = values[:, None] * mats[last_product][idx[:, last_product], :]
        intermediate = np.zeros((fiber_keys.shape[0], rank), dtype=np.float64)
        np.add.at(intermediate, fiber_inverse, step1)
        # Step 2: multiply by the remaining product-mode factors and
        # accumulate into the output mode rows.
        partial = intermediate
        out_pos = other.index(mode)
        for m in product_modes:
            if m == last_product:
                continue
            pos = other.index(m)
            partial = partial * mats[m][fiber_keys[:, pos], :]
        np.add.at(output, fiber_keys[:, out_pos], partial)

    # ------------------------------------------------------------------ #
    # Simulated cost: two kernels, intermediate round trip, atomics.
    # ------------------------------------------------------------------ #
    launch = LaunchConfig.for_nnz(max(nnz, 1), rank, block_size=block_size, threadlen=1)

    counters = KernelCounters()
    # Step 1 reads the full COO (64-bit indices + value) and the last factor.
    counters.gmem_read_bytes += coalesced_traffic_bytes(
        nnz, order * 8 + 4, AccessPattern.COALESCED, device
    )
    counters.gmem_read_bytes += readonly_cache_traffic(
        idx[:, last_product] if nnz else np.empty(0, dtype=np.int64),
        rank * 4.0,
        device,
        cache_bytes=float(device.l2_bytes),
    ).dram_bytes
    # Step 1 resolves collisions on the intermediate fibers with atomics and
    # writes the intermediate tensor.
    if nnz:
        fiber_update_counts = np.bincount(fiber_inverse)
        counters.atomic_ops += float(nnz) * rank
        counters.atomic_serialized_ops += atomic_cost_ops(
            float(nnz) * rank, fiber_update_counts, device
        )
    counters.gmem_write_bytes += intermediate_bytes

    # Step 2 reads the intermediate back, reads the remaining factors and
    # atomically accumulates into the output rows.
    counters.gmem_read_bytes += intermediate_bytes
    counters.kernel_launches += 0
    if nnz:
        for m in product_modes:
            if m == last_product:
                continue
            counters.gmem_read_bytes += readonly_cache_traffic(
                fiber_keys[:, other.index(m)],
                rank * 4.0,
                device,
                cache_bytes=float(device.l2_bytes),
            ).dram_bytes
        slice_update_counts = np.bincount(fiber_keys[:, out_pos])
        n_step2_atomics = float(fiber_keys.shape[0]) * rank
        counters.atomic_ops += n_step2_atomics
        counters.atomic_serialized_ops += atomic_cost_ops(
            n_step2_atomics, slice_update_counts[slice_update_counts > 0], device
        )
    counters.gmem_write_bytes += output_bytes

    counters.flops += 2.0 * nnz * rank * max(len(product_modes), 1)
    counters.kernel_launches += 2
    counters.active_threads = float(max(nnz, 1))
    counters.imbalance_factor = 1.0

    profile = profile_from_counters(
        f"parti-gpu-spmttkrp-mode{mode}",
        counters,
        launch,
        device,
        device_memory_bytes=footprint,
    )
    return MTTKRPResult(output=output, profile=profile)
