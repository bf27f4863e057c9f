"""Unified one-shot SpMTTKRP on the F-COO format (paper Sections IV-B/C/D).

Computes, for a third-order tensor and ``mode = 0`` (the paper's mode-1),

``M(i, :) = Σ_j Σ_k X(i, j, k) · (B(j, :) ∗ C(k, :))``

directly on the non-zeros (one-shot, Figure 3b): each non-zero gathers one
row from every product-mode factor through the read-only cache, forms their
Hadamard product scaled by the value, and a segmented scan over the F-COO
bit-flags reduces the contributions of each output slice without atomic
updates.  The implementation generalises to any order (the Hadamard product
simply runs over all product modes) and any target mode.

When the operands exceed device memory the kernel falls back to (or is
forced onto, via ``ctx=ExecContext(streamed=True)``) the out-of-core model
of :mod:`repro.kernels.unified.streaming`: the non-zero stream is chunked on
``threadlen``-aligned boundaries and the chunks are pipelined through PCIe
on ``num_streams`` CUDA streams.  The output is the one-shot kernel's on
every path (:mod:`repro.kernels.unified.driver`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.kernels.common import MTTKRPResult, validate_factor
from repro.kernels.unified.driver import OperationSpec, resolve_encoding, run_unified, scatter_rows
from repro.tensor.sparse import SparseTensor

__all__ = ["unified_spmttkrp", "spmttkrp_footprint", "spmttkrp_operands", "spmttkrp_spec"]


def spmttkrp_spec(fcoo: FCOOTensor, rank: int) -> OperationSpec:
    """The SpMTTKRP operation: a Hadamard product of ``rank``-wide rows."""
    shape = fcoo.shape
    product_modes = fcoo.roles.product_modes
    return OperationSpec(
        kernel="spmttkrp",
        product="hadamard_segment_sums",
        rank=rank,
        output_width=rank,
        # Hadamard across P product modes costs P multiplies per column plus
        # the segmented add: charge 2 + (P - 1) FLOPs per non-zero per column.
        flops_per_nnz_per_column=2.0 + (len(product_modes) - 1),
        factor_bytes=sum(shape[m] * rank * 4.0 for m in product_modes),
        output_bytes=shape[fcoo.mode] * rank * 4.0,
        reduction="allreduce",
        assemble=scatter_rows,
    )


def spmttkrp_footprint(
    fcoo: FCOOTensor,
    rank: int,
    *,
    block_size: int = 128,
    threadlen: int = 8,
) -> Tuple[float, float]:
    """One-shot device footprint of :func:`unified_spmttkrp`.

    Returns ``(footprint_bytes, resident_bytes)`` where ``resident_bytes``
    is the factor-matrix + output portion that stays on the device even on
    the streamed path.  Shared with :class:`repro.algorithms.cp.UnifiedGPUEngine`
    so the engine's transfer accounting uses the exact numbers the kernel's
    streamed/one-shot decision uses.
    """
    op = spmttkrp_spec(fcoo, rank)
    launch = op.launch(fcoo.nnz, block_size=block_size, threadlen=threadlen)
    return op.footprint(fcoo, launch), op.resident_bytes


def spmttkrp_operands(
    tensor: Union[SparseTensor, FCOOTensor],
    factors: Sequence[np.ndarray],
    mode: int,
) -> Tuple[FCOOTensor, OperationSpec, List[np.ndarray]]:
    """One SpMTTKRP call's encoding, operation and validated product-mode
    factors: the arguments of :func:`~repro.kernels.unified.driver.compute`."""
    fcoo = resolve_encoding(tensor, OperationKind.SPMTTKRP, mode)
    shape = fcoo.shape
    order = fcoo.order
    if len(factors) != order:
        raise ValueError(f"need one factor per mode ({order}), got {len(factors)}")
    mats = [
        validate_factor(factors[m], shape[m], f"factors[{m}]")
        for m in fcoo.roles.product_modes
    ]
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"product-mode factors must share one rank, got {sorted(ranks)}")
    return fcoo, spmttkrp_spec(fcoo, ranks.pop()), mats


def unified_spmttkrp(
    tensor: Union[SparseTensor, FCOOTensor],
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> MTTKRPResult:
    """Compute MTTKRP with the unified F-COO algorithm.

    Parameters
    ----------
    tensor:
        The sparse input, either a :class:`SparseTensor` or an
        :class:`FCOOTensor` already encoded for SpMTTKRP on ``mode``.
    factors:
        One dense factor matrix per tensor mode (shape ``(I_m, R)``); the
        entry at ``mode`` is ignored (it is the one being recomputed in
        CP-ALS).
    mode:
        Output mode (0-based).
    device, block_size, threadlen, fused:
        As in :func:`repro.kernels.unified.spttm.unified_spttm`.
    ctx:
        The :class:`~repro.context.ExecContext` carrying the out-of-core
        (``streamed`` / ``num_streams`` / ``chunk_nnz``) and multi-GPU
        (``cluster``) controls; sharded partial outputs merge
        through a modeled ring all-reduce.

    Returns
    -------
    MTTKRPResult
        The dense ``(I_mode, R)`` result and the simulated kernel profile
        (``profile.streaming`` holds the per-chunk ledger on the streamed
        path).
    """
    output, profile = run_unified(
        *spmttkrp_operands(tensor, factors, mode),
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )
    return MTTKRPResult(output=output, profile=profile)
