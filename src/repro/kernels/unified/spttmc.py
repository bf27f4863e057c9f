"""Unified SpTTMc: the tensor-times-matrix-chain kernel (paper Equation 4).

SpTTMc is the workhorse of the HOOI/Tucker decomposition: for target mode
``n`` it multiplies the tensor by every factor matrix except ``U_n`` along
the corresponding modes and returns the mode-``n`` unfolding of the result,

``Y_(n)(i, :) += X(i, j, k) · (U_2(j, :) ⊗ U_3(k, :))``  (third order, n=0).

Under the unified mode classification (Table I) SpTTMc looks exactly like
SpMTTKRP — product modes are all modes except ``n``, the index mode is ``n``
— except that the per-non-zero combination of factor rows is a Kronecker
product (output width ``Π R_m``) instead of a Hadamard product (width
``R``).  The same F-COO encoding, non-zero partitioning and segmented scan
therefore apply unchanged, which is precisely the unification the paper
claims.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.kernels.common import TTMcResult, validate_factor
from repro.kernels.unified.driver import OperationSpec, resolve_encoding, run_unified, scatter_rows
from repro.tensor.sparse import SparseTensor

__all__ = ["unified_spttmc", "spttmc_operands", "spttmc_spec"]


def spttmc_spec(fcoo: FCOOTensor, ranks: Sequence[int]) -> OperationSpec:
    """The SpTTMc operation: a Kronecker product of one row per product
    mode, ``ranks[i]`` wide for the ``i``-th product mode."""
    shape = fcoo.shape
    out_width = math.prod(ranks)
    return OperationSpec(
        kernel="spttmc",
        product="kron_segment_sums",
        rank=max(ranks),
        output_width=out_width,
        # The Kronecker product performs one multiply per output column
        # plus the segmented add.
        flops_per_nnz_per_column=3.0,
        factor_bytes=sum(shape[m] * r * 4.0 for m, r in zip(fcoo.roles.product_modes, ranks)),
        output_bytes=shape[fcoo.mode] * out_width * 4.0,
        reduction="allreduce",
        assemble=scatter_rows,
    )


def spttmc_operands(
    tensor: Union[SparseTensor, FCOOTensor],
    factors: Sequence[np.ndarray],
    mode: int,
) -> Tuple[FCOOTensor, OperationSpec, List[np.ndarray]]:
    """One SpTTMc call's encoding, operation and validated product-mode
    factors: the arguments of :func:`~repro.kernels.unified.driver.compute`."""
    fcoo = resolve_encoding(tensor, OperationKind.SPTTMC, mode)
    shape = fcoo.shape
    order = fcoo.order
    if len(factors) != order:
        raise ValueError(f"need one factor per mode ({order}), got {len(factors)}")
    product_modes = fcoo.roles.product_modes
    mats = [validate_factor(factors[m], shape[m], f"factors[{m}]") for m in product_modes]
    return fcoo, spttmc_spec(fcoo, [m.shape[1] for m in mats]), mats


def unified_spttmc(
    tensor: Union[SparseTensor, FCOOTensor],
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> TTMcResult:
    """Compute TTMc with the unified F-COO algorithm on the simulated GPU.

    Parameters
    ----------
    tensor:
        Sparse input tensor or a pre-encoded :class:`FCOOTensor` (the
        encoding is shared with SpMTTKRP — ``OperationKind.SPTTMC``).
    factors:
        One dense factor per mode (the entry at ``mode`` is ignored); factor
        ``m`` has shape ``(I_m, R_m)`` and the ranks may differ per mode.
    mode:
        Target mode whose unfolding is produced.
    ctx:
        The :class:`~repro.context.ExecContext` carrying the out-of-core
        (``streamed`` / ``num_streams`` / ``chunk_nnz``) and multi-GPU
        (``cluster`` / ``devices``) controls, as in
        :func:`repro.kernels.unified.spttm.unified_spttm` (the partial
        unfoldings merge through a modeled ring all-reduce).

    Returns
    -------
    TTMcResult
        The ``(I_mode, Π_{m != mode} R_m)`` unfolded result and the profile
        (``profile.streaming`` holds the per-chunk ledger on the streamed
        path).
    """
    output, profile = run_unified(
        *spttmc_operands(tensor, factors, mode),
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )
    return TTMcResult(output=output, profile=profile)
