"""The one driver behind the three unified F-COO kernels.

The paper's kernels are one algorithm (Section IV): they share the F-COO
non-zero partitioning, the factor-row gathers through the read-only cache
and the segmented scan, and differ only in the per-non-zero product.  An
:class:`OperationSpec` captures that difference, and :func:`run_unified`
executes any spec in two independent halves:

* :func:`model` builds the one-shot, streamed or sharded
  :class:`~repro.gpusim.counters.KernelProfile` (counters, modeled seconds,
  device-fit checks) from the encoding's index streams alone.  It runs
  first, so a configuration that raises
  :class:`~repro.gpusim.timing.OutOfDeviceMemory` does no numeric work.
* :func:`compute` runs the backend's product stage once over the whole
  encoding, in the canonical in-order reduction, and assembles the output.
  The numbers therefore do not depend on the execution path: streamed,
  sharded and multi-node calls are bit-identical to one-shot.

Callers that price and compute apart (the decomposition drivers' modeled
and numeric passes, serving) call the two halves themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import Backend, get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import resolve_cluster
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.timing import profile_from_counters
from repro.kernels.unified._model import unified_device_footprint, unified_kernel_counters
from repro.kernels.unified.sharded import execute_sharded
from repro.kernels.unified.streaming import execute_streamed, should_stream
from repro.obs.metrics import observe_kernel_profile
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode

__all__ = [
    "OperationSpec",
    "compute",
    "model",
    "resolve_encoding",
    "run_unified",
    "scatter_rows",
]


@dataclass(frozen=True)
class OperationSpec:
    """What distinguishes one unified kernel call from another.

    Attributes
    ----------
    kernel:
        Short kernel name (``"spttm"``, ``"spmttkrp"``, ``"spttmc"``): the
        metrics label and the ``unified-<kernel>-mode<n>`` profile name.
    product:
        The backend's product-stage method: ``"hadamard_segment_sums"`` or
        ``"kron_segment_sums"``.
    rank:
        Columns of each gathered factor row (the launch's ``grid_y``).
    output_width:
        Columns of each reduced segment.
    flops_per_nnz_per_column:
        Arithmetic charged per non-zero per output column.
    factor_bytes / output_bytes:
        The dense factors and output that stay resident on every device
        next to the F-COO arrays.  ``output_bytes`` is also what an
        all-reduce of the partial outputs moves.
    reduction:
        How sharded partial outputs merge: ``"allreduce"`` or
        ``"boundary"`` (see
        :func:`~repro.kernels.unified.sharded.execute_sharded`).
    assemble:
        Maps the encoding and its ``(num_segments, output_width)`` sums to
        the kernel's output.
    """

    kernel: str
    product: str
    rank: int
    output_width: int
    flops_per_nnz_per_column: float
    factor_bytes: float
    output_bytes: float
    reduction: str
    assemble: Callable[[FCOOTensor, np.ndarray], Any]

    @property
    def resident_bytes(self) -> float:
        """Device bytes held for the whole execution (factors + output)."""
        return self.factor_bytes + self.output_bytes

    def launch(self, nnz: int, *, block_size: int, threadlen: int) -> LaunchConfig:
        """The launch covering ``nnz`` non-zeros (at least one partition)."""
        return LaunchConfig.for_nnz(
            max(nnz, 1), self.rank, block_size=block_size, threadlen=threadlen
        )

    def footprint(self, encoding: FCOOTensor, launch: LaunchConfig) -> float:
        """One-shot device footprint of ``encoding`` plus the dense operands."""
        return unified_device_footprint(
            encoding, launch, self.factor_bytes, self.output_bytes
        )


def resolve_encoding(
    tensor: Union[SparseTensor, FCOOTensor], operation: OperationKind, mode: int
) -> FCOOTensor:
    """``tensor`` F-COO encoded for ``operation`` on ``mode``.

    A pre-built :class:`FCOOTensor` is checked, not rebuilt, and raises
    ``ValueError`` when it was encoded for another operation or mode.
    SpTTMc also accepts an SpMTTKRP encoding: the two share their mode
    roles (Table I).
    """
    if not isinstance(tensor, FCOOTensor):
        return FCOOTensor.from_sparse(tensor, operation, check_mode(mode, tensor.order))
    accepted = {operation}
    if operation is OperationKind.SPTTMC:
        accepted.add(OperationKind.SPMTTKRP)
    if tensor.operation not in accepted or tensor.mode != check_mode(mode, tensor.order):
        raise ValueError(
            f"the provided FCOOTensor is encoded for {tensor.operation.value} on mode "
            f"{tensor.mode}, not {operation.value} on mode {mode}"
        )
    return tensor


def _row_streams(encoding: FCOOTensor) -> List[np.ndarray]:
    """The per-non-zero factor row indices, one stream per product mode."""
    return [
        encoding.product_mode_indices(pos).astype(np.int64)
        for pos in range(len(encoding.roles.product_modes))
    ]


def scatter_rows(fcoo: FCOOTensor, sums: np.ndarray) -> np.ndarray:
    """Dense ``(I_mode, width)`` output: each segment's sums land on the
    index-mode row stored in the segment table (SpMTTKRP, SpTTMc)."""
    output = np.zeros((fcoo.shape[fcoo.mode], sums.shape[1]), dtype=np.float64)
    np.add.at(output, fcoo.segment_index_coords[:, 0], sums)
    return output


def model(
    fcoo: FCOOTensor,
    op: OperationSpec,
    *,
    device: DeviceSpec,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: ExecContext = DEFAULT_CONTEXT,
) -> KernelProfile:
    """Counters and modeled seconds of one kernel call; no numeric work.

    A non-empty encoding shards across the context's cluster when there is
    one.  The whole encoding, or each shard on its own device, runs one-shot,
    or streamed when ``ctx.streamed`` forces it or the one-shot footprint
    does not fit the device.
    """
    name = f"unified-{op.kernel}-mode{fcoo.mode}"
    device, cluster = resolve_cluster(device, ctx.cluster, ctx.devices)

    def counters(encoding: FCOOTensor, launch: LaunchConfig, dev: DeviceSpec) -> KernelCounters:
        return unified_kernel_counters(
            encoding,
            _row_streams(encoding),
            op.rank,
            output_rows=encoding.num_segments,
            output_width=op.output_width,
            launch=launch,
            device=dev,
            flops_per_nnz_per_column=op.flops_per_nnz_per_column,
            fused=fused,
        )

    def on_device(encoding: FCOOTensor, dev: DeviceSpec) -> KernelProfile:
        launch = op.launch(encoding.nnz, block_size=block_size, threadlen=threadlen)
        footprint = op.footprint(encoding, launch)
        if not should_stream(encoding, footprint, dev, ctx.streamed):
            return profile_from_counters(
                name,
                counters(encoding, launch, dev),
                launch,
                dev,
                device_memory_bytes=footprint,
            )

        def chunk_model(chunk: FCOOTensor) -> Tuple[KernelCounters, LaunchConfig]:
            chunk_launch = op.launch(chunk.nnz, block_size=block_size, threadlen=threadlen)
            return counters(chunk, chunk_launch, dev), chunk_launch

        return execute_streamed(
            encoding,
            chunk_model,
            device=dev,
            threadlen=threadlen,
            num_streams=ctx.num_streams,
            chunk_nnz=ctx.chunk_nnz,
            resident_bytes=op.resident_bytes,
            name=name,
        )

    if cluster is not None and fcoo.nnz:
        return execute_sharded(
            fcoo,
            on_device,
            cluster=cluster,
            threadlen=threadlen,
            output_bytes=op.output_bytes,
            output_width=op.output_width,
            reduction=op.reduction,
            name=name,
        )
    return on_device(fcoo, device)


def compute(
    fcoo: FCOOTensor,
    op: OperationSpec,
    mats: Sequence[np.ndarray],
    backend: Backend,
) -> Any:
    """The output of one kernel call; no modeled time.

    One backend product-stage call over every non-zero, in the canonical
    in-order reduction, then ``op.assemble``: the answer of the one-shot
    kernel on any path.
    """
    product = getattr(backend, op.product)
    sums = product(
        fcoo.values, mats, _row_streams(fcoo), fcoo.segment_ids, fcoo.num_segments
    )
    return op.assemble(fcoo, sums)


def run_unified(
    fcoo: FCOOTensor,
    op: OperationSpec,
    mats: Sequence[np.ndarray],
    *,
    device: DeviceSpec,
    block_size: int,
    threadlen: int,
    fused: bool,
    ctx: Optional[ExecContext],
) -> Tuple[Any, KernelProfile]:
    """Model, then compute, one unified kernel call: ``(output, profile)``."""
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    profile = model(
        fcoo,
        op,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )
    output = compute(fcoo, op, mats, get_backend(ctx.backend))
    if ctx.metrics is not None:
        observe_kernel_profile(ctx.metrics, kernel=op.kernel, nnz=fcoo.nnz, profile=profile)
    return output, profile
