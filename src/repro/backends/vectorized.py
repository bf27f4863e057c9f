"""The vectorized backend: the reference's products, summed by a CSR product.

``np.add.at``, the reference's segment sum, runs an interpreter loop per
element, and ``np.add.reduceat`` sums pairwise, which changes the bits from
segment length 4 on.  This backend keeps the reference's per-non-zero
products and sums them with a SciPy CSR matrix of ones whose row ``s``
lists the stream positions of segment ``s``; for F-COO ids its row pointer
is the bit-flag array compressed to its set positions.  SciPy's
CSR-times-dense product starts each row at ``0.0`` and adds ``1.0 * x`` per
entry in column order.  ``1.0 * x`` is ``x``, so each sum is ``0.0 + x0 +
x1 + ...`` in stream order: ``np.add.at``'s association, hence its bits,
signed zeros included.

The stream is cut into fixed blocks of :data:`BLOCK_BYTES` of partials,
whatever the segment lengths, as the paper's kernel cuts it into fixed
partitions, so the ``(nnz, width)`` partials are never all formed at once
and a block stays cache-sized.  A segment that crosses a block boundary
carries its running sum into the next block, where it is the first entry
of that segment's CSR row.  Each block's partials sit in rows ``1..m`` of
one buffer, and row 0 holds the block's first segment's sum so far: the
carry, or ``+0.0`` for a segment that starts in the block.  A ``0.0``-seeded
sequential sum is never ``-0.0`` in round-to-nearest, so ``0.0 + carry``
is ``carry``, and so is ``0.0 + 0.0``: the split sum has the unsplit sum's
bits, signed zeros and NaNs included.  Unsorted ids (F-COO never produces
them) take the reference's scatter-add.  The Kronecker partials are the
reference's elements in product-mode-major column order (see
:func:`_mode_major_kron_products`); the reduced result is put back in the
canonical column order once.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.backends.reference import ReferenceBackend

__all__ = ["VectorizedBackend"]

#: Bytes of float64 partials formed and summed per block of the stream.
BLOCK_BYTES = 512 << 10


class VectorizedBackend(ReferenceBackend):
    """The reference's products, summed block by block with a CSR product."""

    name = "vectorized"

    def segment_reduce(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        matrix = values[:, None] if values.ndim == 1 else values
        sums = self._blocked_sums(
            lambda out, block, *_: np.copyto(out, block),
            matrix.shape[-1],
            matrix,
            (),
            (),
            segment_ids,
            num_segments,
        )
        return sums[:, 0] if values.ndim == 1 else sums

    def hadamard_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        width = mats[0].shape[1] if mats else 1
        return self._blocked_sums(
            self._hadamard_products, width, values, mats, rows, segment_ids, num_segments
        )

    def kron_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        ranks = [mat.shape[1] for mat in mats]
        width = math.prod(ranks)
        sums = self._blocked_sums(
            _mode_major_kron_products, width, values, mats, rows, segment_ids, num_segments
        )
        # Reorder the columns once, to the canonical earlier-modes-fastest
        # (a view, not a copy, for fewer than two product modes).
        axes = (0, *range(len(ranks), 0, -1))
        return sums.reshape(sums.shape[0], *ranks).transpose(axes).reshape(sums.shape)

    def _hadamard_products(
        self,
        out: np.ndarray,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
    ) -> None:
        """:meth:`slice_products` with its last stage written into ``out``."""
        partial = self.slice_products(values, mats[:-1], rows[:-1])
        if mats:
            np.multiply(partial, np.take(mats[-1], rows[-1], axis=0), out=out)
        else:
            out[:] = partial

    def _blocked_sums(
        self,
        products: Callable[..., None],
        width: int,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Per-segment sums of the ``width``-column partials that
        ``products(out, values, mats, rows)`` writes into ``out``, formed
        one fixed block at a time."""
        values, segment_ids, num_segments = self._validated(values, segment_ids, num_segments)
        rows = self._as_streams(rows)
        out = np.zeros((num_segments, width), dtype=np.float64)
        n = segment_ids.shape[0]
        if not n:
            return out
        if np.any(segment_ids[1:] < segment_ids[:-1]):
            # F-COO never produces unsorted ids: the reference's scatter-add.
            partials = np.empty((n, width), dtype=np.float64)
            products(partials, values, mats, rows)
            np.add.at(out, segment_ids, partials)
            return out
        per_block = min(n, max(1, BLOCK_BYTES // (8 * max(width, 1))))
        # Row 0 is the carry and rows 1..m the block's partials, so each CSR
        # row lists ascending columns; the index arrays are int32, which
        # SciPy takes without a scan.
        buffer = np.empty((per_block + 1, width), dtype=np.float64)
        columns = np.arange(per_block + 1, dtype=np.int32)
        ones = np.ones(per_block + 1)
        for lo in range(0, n, per_block):
            hi = min(lo + per_block, n)
            size = hi - lo + 1
            # Rows 1..size-1: a contiguous row range, so the products'
            # reshapes of it are views and their writes land in `buffer`.
            products(buffer[1:size], values[lo:hi], mats, [r[lo:hi] for r in rows])
            ids = segment_ids[lo:hi]
            first, last = int(ids[0]), int(ids[-1])
            # The first segment's sum so far: a carry from the previous
            # block, or the +0.0 `out` starts with.
            buffer[0] = out[first]
            indptr = np.searchsorted(ids, np.arange(first, last + 2)).astype(np.int32)
            indptr += 1
            indptr[0] = 0
            ones_csr = csr_matrix(
                (ones[:size], columns[:size], indptr), shape=(last - first + 1, size)
            )
            out[first : last + 1] = ones_csr @ buffer[:size]
        return out


def _mode_major_kron_products(
    out: np.ndarray, values: np.ndarray, mats: Sequence[np.ndarray], rows: Sequence[np.ndarray]
) -> None:
    """:meth:`ReferenceBackend.kron_products`, written into ``out`` with its
    columns in product-mode-major order (later modes vary fastest).

    The stages are the reference's, value first and then the last product
    mode to the first, and each element multiplies the same two operands,
    so it has the same bits.  Only the layout differs: the new factor's
    column is the slow axis, so the inner loop runs over the running
    partial's width instead of over one factor's few columns.  The last
    stage writes into ``out``, which must be C-contiguous.
    """
    partial = np.asarray(values, dtype=np.float64)[:, None]
    for stage, (mat, row_idx) in enumerate(zip(reversed(mats), reversed(rows)), 1):
        picked = np.take(mat, row_idx, axis=0)
        nnz, width = partial.shape
        dest = out.reshape(nnz, picked.shape[1], width) if stage == len(mats) else None
        partial = np.multiply(partial[:, None, :], picked[:, :, None], out=dest)
        partial = partial.reshape(nnz, picked.shape[1] * width)
    if not mats:
        out[:] = partial
