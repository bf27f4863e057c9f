"""The vectorized backend: the reference's products, summed by a CSR product.

``np.add.at``, the reference's segment sum, runs an interpreter loop per
element, and ``np.add.reduceat`` sums pairwise, which changes the bits from
segment length 4 on.  This backend keeps the reference's per-non-zero
products and sums them with a SciPy CSR matrix whose row ``s`` lists the
stream positions of segment ``s``; for F-COO ids its row pointer is the
bit-flag array compressed to its set positions.  SciPy's CSR-times-dense
product starts each row at ``0.0`` and adds ``a * x`` per entry in column
order, where ``a`` is the entry's data.  For the Hadamard sums and plain
reductions the data is all ones, and ``1.0 * x`` is ``x``, so each sum is
``0.0 + x0 + x1 + ...`` in stream order: ``np.add.at``'s association,
hence its bits, signed zeros included.

The stream is cut into fixed blocks of :data:`BLOCK_BYTES` of partials,
whatever the segment lengths, as the paper's kernel cuts it into fixed
partitions, so the ``(nnz, width)`` partials are never all formed at once
and a block stays cache-sized.  A segment that crosses a block boundary
carries its running sum into the next block, where it is the first entry
of that segment's CSR row, with data ``1.0``.  A block's buffer holds the
carries in its first rows and the block's partials after them; a carry is
the block's first segment's sum so far, or ``+0.0`` for a segment that
starts in the block.  A ``0.0``-seeded sequential sum is never ``-0.0`` in
round-to-nearest, so ``0.0 + carry`` is ``carry``, and so is ``0.0 +
0.0``: the split sum has the unsplit sum's bits, signed zeros and NaNs
included.  Unsorted ids (F-COO never produces them) take the reference's
scatter-add.

The Kronecker sums (SpTTMc, and the fiber rows of HOOI's dimension tree,
whose 2-D values carry one row per stream entry) never form the
reference's last stage, the multiply by the first product mode's factor,
which is the widest.  A block forms the partials of the later modes only
(the values alone for one product mode), in product-mode-major column
order (see :func:`_mode_major_kron_products`), and the CSR matrix has one
group of rows per column ``c`` of the first mode's factor, whose data are
the non-zeros' entries in column ``c``.  Each entry's ``a * x`` is then the
reference's last-stage product (IEEE multiplication commutes), added in
the reference's order.  This needs one condition beyond the order: SciPy's
CSR kernel rounds ``a * x`` before it adds it (no fused multiply-add),
which ``tests/test_backends.py`` checks on a sum that a fused multiply-add
changes.  The reduced ``(groups, segments, width)`` result is put in the
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
        )[0]
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
        )[0]

    def kron_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        # The first product mode's factor is the CSR data, and the blocks
        # form the later modes' partials only, the value columns fastest.
        formed = [mat.shape[1] for mat in mats[1:]]
        value_width = values.shape[1] if np.ndim(values) == 2 else 1
        sums = self._blocked_sums(
            _mode_major_kron_products,
            math.prod(formed) * value_width,
            values,
            # One row per factor column, so a block's gathers are contiguous.
            [np.ascontiguousarray(np.transpose(mat)) for mat in mats],
            rows,
            segment_ids,
            num_segments,
            fold=bool(mats),
        )
        # Reorder the columns once, to the canonical value columns slowest
        # and earlier modes fastest.
        groups, segments, width = sums.shape
        axes = (1, len(formed) + 2, *range(len(formed) + 1, 1, -1), 0)
        return (
            sums.reshape(groups, segments, *formed, value_width)
            .transpose(axes)
            .reshape(segments, groups * width)
        )

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
        fold: bool = False,
    ) -> np.ndarray:
        """Per-segment sums of the ``width``-column partials that
        ``products(out, values, mats, rows)`` writes into ``out``, formed
        one fixed block at a time, as a ``(groups, segments, width)`` array.

        Without ``fold`` there is one group and the CSR data is all ones.
        With ``fold``, ``mats[0]`` is a factor with one row per column and
        ``products`` gets ``mats[1:]``: group ``c`` sums each partial times
        its non-zero's entry in column ``c`` of that factor.
        """
        values, segment_ids, num_segments = self._validated(values, segment_ids, num_segments)
        rows = self._as_streams(rows)
        if fold:
            (factor, *mats), (factor_rows, *rows) = mats, rows
        groups = factor.shape[0] if fold else 1
        out = np.zeros((groups, num_segments, width), dtype=np.float64)
        n = segment_ids.shape[0]
        if not n:
            return out
        if np.any(segment_ids[1:] < segment_ids[:-1]):
            # F-COO never produces unsorted ids: the reference's scatter-add.
            partials = np.empty((n, width), dtype=np.float64)
            products(partials, values, mats, rows)
            if fold:
                partials = partials * np.take(factor, factor_rows, axis=1)[:, :, None]
            np.add.at(out, (slice(None), segment_ids), partials)
            return out
        per_block = min(n, max(1, BLOCK_BYTES // (8 * max(width, 1))))
        # Rows 0..groups-1 are the carries and the next rows the block's
        # partials.  Group c's CSR entries are its carry, with data 1.0, and
        # then the non-zeros, with data 1.0 or their factor entry in column
        # c; each group's entries list ascending columns.  The index arrays
        # are int32, which SciPy takes without a scan.
        buffer = np.empty((groups + per_block, width), dtype=np.float64)
        data = np.ones((groups, per_block + 1))
        columns = np.empty((groups, per_block + 1), dtype=np.int32)
        columns[:, 0] = np.arange(groups)
        columns[:, 1:] = np.arange(groups, groups + per_block)
        group = np.arange(groups, dtype=np.int32)[:, None]
        for lo in range(0, n, per_block):
            hi = min(lo + per_block, n)
            size = hi - lo + 1
            block = buffer[groups : groups + size - 1]
            products(block, values[lo:hi], mats, [r[lo:hi] for r in rows])
            if fold:
                data[:, 1:size] = np.take(factor, factor_rows[lo:hi], axis=1)
            ids = segment_ids[lo:hi]
            first, last = int(ids[0]), int(ids[-1])
            segments = last - first + 1
            # The first segment's sums so far: carries from the previous
            # block, or the +0.0 `out` starts with.
            buffer[:groups] = out[:, first]
            starts = np.searchsorted(ids, np.arange(first, last + 1)).astype(np.int32)
            starts += 1
            starts[0] = 0
            indptr = np.empty(groups * segments + 1, dtype=np.int32)
            # Group g's rows follow the `size` entries of each group before it.
            indptr[:-1] = (starts + group * size).ravel()
            indptr[-1] = groups * size
            matrix = csr_matrix(
                (data[:, :size].ravel(), columns[:, :size].ravel(), indptr),
                shape=(groups * segments, groups + size - 1),
            )
            sums = matrix @ buffer[: groups + size - 1]
            out[:, first : last + 1] = sums.reshape(groups, segments, width)
        return out


def _mode_major_kron_products(
    out: np.ndarray, values: np.ndarray, mats: Sequence[np.ndarray], rows: Sequence[np.ndarray]
) -> None:
    """:meth:`ReferenceBackend.kron_products` of the factors whose columns
    are the rows of ``mats``, written into ``out`` with its columns in
    product-mode-major order (later modes vary faster, and the columns of
    2-D ``values`` fastest).

    The stages are the reference's, value first and then the last product
    mode to the first, and each element multiplies the same two operands
    in the same order, so it has the same bits.  Only the layout differs:
    the partial is held one column per row, so each stage's inner loop
    runs over the block's non-zeros, and the new factor's column is the
    slow axis.  One transposing copy writes the partials into ``out``.
    """
    partial = np.asarray(values, dtype=np.float64)
    partial = partial[None, :] if partial.ndim == 1 else partial.T
    for mat, row_idx in zip(reversed(mats), reversed(rows)):
        picked = np.take(mat, row_idx, axis=1)
        partial = (partial[None, :, :] * picked[:, None, :]).reshape(-1, partial.shape[1])
    out[:] = partial.T
