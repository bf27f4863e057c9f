"""Unified SpTTM: sparse tensor-times-matrix on the F-COO format.

Computes ``Y = X ×_mode U`` (paper Equation 3) where ``X`` is sparse and
``U`` dense.  The result is semi-sparse: one dense fiber of length ``R`` per
non-empty fiber of ``X`` along ``mode``.

Algorithm (paper Section IV-D, Figure 4):

* the tensor is F-COO encoded for SpTTM on ``mode`` — product-mode indices
  (``mode`` itself) stored, the other modes compressed to the bit-flag;
* every thread takes ``threadlen`` consecutive non-zeros and multiplies each
  value by the factor row ``U[k, :]`` fetched through the read-only cache;
* a segmented scan over the bit-flags reduces the partial fibers, and the
  per-fiber results are written out coalesced;
* everything runs in one fused kernel launch — no intermediate data.

Tensors whose F-COO footprint exceeds device memory are modeled out-of-core
via :mod:`repro.kernels.unified.streaming` (automatically, or on request with
``ctx=ExecContext(streamed=True)``): the non-zero stream is chunked on
``threadlen``-aligned boundaries and the cost model overlaps each chunk's
PCIe copy with the previous chunk's kernel.  The fibers themselves always
come from one canonical pass (:mod:`repro.kernels.unified.driver`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.formats.semisparse import SemiSparseTensor
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.kernels.common import SpTTMResult, validate_factor
from repro.kernels.unified.driver import OperationSpec, resolve_encoding, run_unified
from repro.tensor.sparse import SparseTensor

__all__ = ["unified_spttm", "spttm_operands", "spttm_spec"]


def _fibers(fcoo: FCOOTensor, sums: np.ndarray) -> SemiSparseTensor:
    """Semi-sparse output: one dense fiber of the reduced sums per segment."""
    out_shape = list(fcoo.shape)
    out_shape[fcoo.mode] = sums.shape[1]
    return SemiSparseTensor(
        shape=tuple(out_shape),
        dense_mode=fcoo.mode,
        fiber_coords=fcoo.segment_index_coords,
        fiber_values=sums,
    )


def spttm_spec(fcoo: FCOOTensor, rank: int) -> OperationSpec:
    """The SpTTM operation: each non-zero scales one ``rank``-wide row of
    the ``(I_mode, rank)`` factor."""
    segments = fcoo.num_segments
    return OperationSpec(
        kernel="spttm",
        product="hadamard_segment_sums",
        rank=rank,
        output_width=rank,
        flops_per_nnz_per_column=2.0,
        factor_bytes=fcoo.shape[fcoo.mode] * rank * 4.0,
        output_bytes=segments * rank * 4.0 + segments * (fcoo.order - 1) * 4.0,
        # The semi-sparse output stays partitioned across the devices (the
        # next pipeline stage consumes it in place); only the fibers
        # straddling a shard boundary exchange with a neighbour.
        reduction="boundary",
        assemble=_fibers,
    )


def spttm_operands(
    tensor: Union[SparseTensor, FCOOTensor],
    matrix: np.ndarray,
    mode: int,
) -> Tuple[FCOOTensor, OperationSpec, List[np.ndarray]]:
    """One SpTTM call's encoding, operation and validated factor: the
    arguments of :func:`~repro.kernels.unified.driver.compute`."""
    fcoo = resolve_encoding(tensor, OperationKind.SPTTM, mode)
    matrix = validate_factor(matrix, fcoo.shape[fcoo.mode], "matrix")
    return fcoo, spttm_spec(fcoo, matrix.shape[1]), [matrix]


def unified_spttm(
    tensor: Union[SparseTensor, FCOOTensor],
    matrix: np.ndarray,
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> SpTTMResult:
    """Compute SpTTM with the unified F-COO algorithm on the simulated GPU.

    Parameters
    ----------
    tensor:
        The sparse input, either as a :class:`SparseTensor` (encoded
        on the fly) or as an :class:`FCOOTensor` already encoded for SpTTM
        on ``mode`` (the CP/Tucker drivers pre-encode once per mode).
    matrix:
        Dense factor ``U`` of shape ``(I_mode, R)``.
    mode:
        Product mode (0-based).
    device:
        Simulated GPU.
    block_size, threadlen:
        The tunable launch parameters of Figure 5 / Table V.
    fused:
        Keep the product/scan/accumulate stages in one kernel (the unified
        default); ``False`` models the unfused variant for the ablation
        benchmark.
    ctx:
        The :class:`~repro.context.ExecContext` carrying the execution
        controls:

        * ``streamed`` — ``None`` (default) auto-selects: one-shot when the
          operands fit in device memory, out-of-core streaming otherwise.
          ``True`` forces streaming, ``False`` forces one-shot (raising
          :class:`~repro.gpusim.timing.OutOfDeviceMemory` when it does not
          fit).  An empty tensor always takes the one-shot path.
        * ``num_streams`` — CUDA streams (in-flight chunk buffers) for the
          streamed path; 1 disables the transfer/compute overlap.
        * ``chunk_nnz`` — non-zeros per streamed chunk (at least
          ``threadlen``; rounded down to a ``threadlen`` multiple); ``None``
          sizes chunks to fill the device memory budget.
        * ``cluster`` — a :class:`~repro.gpusim.cluster.ClusterSpec` of
          one or several nodes: the non-zero stream shards across its
          devices on ``threadlen``-aligned boundaries, each shard runs on
          its own device (falling back to the streamed path per-device
          when it does not fit); the semi-sparse output stays partitioned
          across the devices and only the fibers straddling a shard
          boundary exchange with a neighbour (``profile.sharded`` carries
          the per-device ledger).

    Returns
    -------
    SpTTMResult
        The semi-sparse result and the simulated kernel profile
        (``profile.streaming`` holds the per-chunk ledger on the streamed
        path).
    """
    output, profile = run_unified(
        *spttm_operands(tensor, matrix, mode),
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )
    return SpTTMResult(output=output, profile=profile)
