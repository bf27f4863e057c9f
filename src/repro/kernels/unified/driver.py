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
  It is one :class:`Pricing` (the terms that do not depend on the launch,
  derived once) and one :meth:`Pricing.launch`; the launch tuner prices a
  whole sweep from one :class:`Pricing`.
* :func:`compute` runs the backend's product stage once over the whole
  encoding, in the canonical in-order reduction, and assembles the output.
  The numbers therefore do not depend on the execution path: streamed,
  sharded and multi-node calls are bit-identical to one-shot.

Callers that price and compute apart (the decomposition drivers' modeled
and numeric passes, serving) call the two halves themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import Backend, get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.formats.fcoo import FCOOChunk, FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import resolve_cluster
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.memory import count_distinct_rows
from repro.gpusim.timing import profile_from_counters
from repro.kernels.unified._model import (
    SpanTerms,
    span_terms,
    unified_device_footprint,
    unified_kernel_counters,
)
from repro.kernels.unified.sharded import execute_sharded
from repro.kernels.unified.streaming import (
    StreamChunking,
    chunk_stream,
    price_chunks,
    should_stream,
)
from repro.obs.metrics import observe_kernel_profile
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode

__all__ = [
    "OperationSpec",
    "Pricing",
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

    def footprint(
        self, encoding: Union[FCOOTensor, FCOOChunk], launch: LaunchConfig
    ) -> float:
        """One-shot device footprint of ``encoding`` (or a span of one) plus
        the dense operands."""
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
    index-mode row stored in the segment table (SpMTTKRP, SpTTMc).

    A plain assignment has a scatter-add into zeros' bits: one index mode
    makes each segment's row unique, and a ``0.0``-seeded segment sum is
    never ``-0.0``, so ``0.0 + s`` is ``s`` (a NaN keeps its payload)."""
    output = np.zeros((fcoo.shape[fcoo.mode], sums.shape[1]), dtype=np.float64)
    output[fcoo.segment_index_coords[:, 0]] = sums
    return output


class Pricing:
    """The launch-invariant pricing of one kernel call, derived once.

    For one ``(encoding, op, device, ctx)`` it resolves the cluster and the
    profile name, and on first use prices each span it runs (the whole
    encoding, a shard or a streamed chunk) on its device: the coalesced
    index/value stream bytes, the output-scatter bytes and the factor-row
    gathers, which follow from each product mode's distinct rows over the
    span.  :meth:`launch` adds the launch-dependent terms (flags, scan,
    footprint, time) for one ``(BLOCK_SIZE, threadlen)``, in the order a
    fresh :func:`model` call adds them, so every modeled second is the
    same.  A streamed span's chunking, which depends on the ``threadlen``
    but not on the ``BLOCK_SIZE``, is derived once per ``threadlen``.  The
    memoised terms live as long as the pricing: one :func:`model` call, or
    one tuner sweep.
    """

    def __init__(
        self,
        fcoo: FCOOTensor,
        op: OperationSpec,
        *,
        device: DeviceSpec,
        ctx: ExecContext = DEFAULT_CONTEXT,
    ) -> None:
        self.fcoo = fcoo
        self.op = op
        self.ctx = ctx
        self.name = f"unified-{op.kernel}-mode{fcoo.mode}"
        self.device, self.cluster = resolve_cluster(device, ctx.cluster)
        self._whole = fcoo.chunk_span(0, fcoo.nnz)
        self._terms: Dict[Tuple[int, int], Tuple[DeviceSpec, SpanTerms]] = {}
        self._chunkings: Dict[Tuple[int, int, int], Tuple[DeviceSpec, StreamChunking]] = {}

    def distinct_rows(self, span: FCOOChunk) -> Tuple[int, ...]:
        """Each product mode's distinct factor rows over ``span``, a span of
        the priced encoding, counted from the encoding's own index columns."""
        columns = self.fcoo.product_indices[span.source_start : span.source_start + span.nnz]
        if not span.nnz:
            return (0,) * columns.shape[1]
        return tuple(count_distinct_rows(columns[:, pos]) for pos in range(columns.shape[1]))

    def _span_terms(self, span: FCOOChunk, device: DeviceSpec) -> SpanTerms:
        """``span``'s terms on ``device``, derived once per span.  A span
        runs on one device per pricing (its shard's), so the device is
        matched by identity and never hashed."""
        key = (span.source_start, span.nnz)
        priced = self._terms.get(key)
        if priced is not None and priced[0] is device:
            return priced[1]
        terms = span_terms(
            span,
            self.distinct_rows(span),
            rank=self.op.rank,
            output_width=self.op.output_width,
            device=device,
        )
        self._terms[key] = (device, terms)
        return terms

    def _chunking(self, span: FCOOChunk, device: DeviceSpec, threadlen: int) -> StreamChunking:
        """``span``'s streamed chunking on ``device``, derived once per
        ``threadlen`` and matched to the device by identity, as
        :meth:`_span_terms` matches it."""
        key = (span.source_start, span.nnz, threadlen)
        chunked = self._chunkings.get(key)
        if chunked is not None and chunked[0] is device:
            return chunked[1]
        chunking = chunk_stream(
            span,
            device=device,
            threadlen=threadlen,
            num_streams=self.ctx.num_streams,
            chunk_nnz=self.ctx.chunk_nnz,
            resident_bytes=self.op.resident_bytes,
            name=self.name,
        )
        self._chunkings[key] = (device, chunking)
        return chunking

    def launch(
        self, *, block_size: int = 128, threadlen: int = 8, fused: bool = True
    ) -> KernelProfile:
        """Counters and modeled seconds of the call at one launch.

        A non-empty encoding shards across the context's cluster when there
        is one.  The whole encoding, or each shard on its own device, runs
        one-shot, or streamed when ``ctx.streamed`` forces it or the
        one-shot footprint does not fit the device.
        """
        op, ctx = self.op, self.ctx

        def counters(span: FCOOChunk, config: LaunchConfig, dev: DeviceSpec) -> KernelCounters:
            return unified_kernel_counters(
                self._span_terms(span, dev),
                config,
                dev,
                output_width=op.output_width,
                flops_per_nnz_per_column=op.flops_per_nnz_per_column,
                fused=fused,
            )

        def on_device(span: FCOOChunk, dev: DeviceSpec) -> KernelProfile:
            config = op.launch(span.nnz, block_size=block_size, threadlen=threadlen)
            footprint = op.footprint(span, config)
            if not should_stream(span, footprint, dev, ctx.streamed):
                return profile_from_counters(
                    self.name,
                    counters(span, config, dev),
                    config,
                    dev,
                    device_memory_bytes=footprint,
                )

            def chunk_model(chunk: FCOOChunk) -> Tuple[KernelCounters, LaunchConfig]:
                chunk_config = op.launch(chunk.nnz, block_size=block_size, threadlen=threadlen)
                return counters(chunk, chunk_config, dev), chunk_config

            return price_chunks(
                self._chunking(span, dev, threadlen), chunk_model, device=dev, name=self.name
            )

        if self.cluster is not None and self.fcoo.nnz:
            return execute_sharded(
                self.fcoo,
                on_device,
                cluster=self.cluster,
                threadlen=threadlen,
                output_bytes=op.output_bytes,
                output_width=op.output_width,
                reduction=op.reduction,
                name=self.name,
            )
        return on_device(self._whole, self.device)


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

    One :class:`Pricing` and one :meth:`Pricing.launch`: a non-empty
    encoding shards across the context's cluster when there is one, and
    the whole encoding, or each shard on its own device, runs one-shot or
    streamed.
    """
    return Pricing(fcoo, op, device=device, ctx=ctx).launch(
        block_size=block_size, threadlen=threadlen, fused=fused
    )


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
