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
signed zeros included.  The stream is summed in blocks of whole segments of
about :data:`BLOCK_BYTES` of partials, so the ``(nnz, width)`` partials are
never all formed at once.  Unsorted ids (F-COO never produces them) take
one block over the whole stream.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.backends.reference import ReferenceBackend

__all__ = ["VectorizedBackend"]

#: Bytes of float64 partials formed and summed per block of segments.
BLOCK_BYTES = 4 << 20


class VectorizedBackend(ReferenceBackend):
    """The reference's products, summed block by block with a CSR product."""

    name = "vectorized"

    def segment_reduce(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        matrix = values[:, None] if values.ndim == 1 else values
        sums = self._blocked_sums(
            lambda block, *_: block, matrix.shape[-1], matrix, (), (), segment_ids, num_segments
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
            self.slice_products, width, values, mats, rows, segment_ids, num_segments
        )

    def kron_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        width = math.prod(mat.shape[1] for mat in mats)
        return self._blocked_sums(
            self.kron_products, width, values, mats, rows, segment_ids, num_segments
        )

    def _blocked_sums(
        self,
        products: Callable[..., np.ndarray],
        width: int,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Per-segment sums of the ``width``-column partials
        ``products(values, mats, rows)``, formed one block at a time."""
        values, segment_ids, num_segments = self._validated(values, segment_ids, num_segments)
        rows = self._as_streams(rows)
        out = np.zeros((num_segments, width), dtype=np.float64)
        n = segment_ids.shape[0]
        if np.any(segment_ids[1:] < segment_ids[:-1]):
            order = np.argsort(segment_ids, kind="stable")
            segment_ids, starts, per_block = segment_ids[order], np.array([n]), n
        else:
            order = np.arange(n)
            starts = np.append(np.flatnonzero(np.diff(segment_ids)) + 1, n)
            per_block = max(1, BLOCK_BYTES // (8 * max(width, 1)))
        lo = 0
        while lo < n:
            # The block ends at the first segment start `per_block` or more
            # positions on, so it holds whole segments.
            hi = int(starts[np.searchsorted(starts, min(lo + per_block, n))])
            ids = segment_ids[lo:hi]
            first, last = int(ids[0]), int(ids[-1])
            indptr = np.searchsorted(ids, np.arange(first, last + 2))
            ones = csr_matrix((np.ones(hi - lo), order[lo:hi] - lo, indptr))
            out[first : last + 1] = ones @ products(values[lo:hi], mats, [r[lo:hi] for r in rows])
            lo = hi
        return out
