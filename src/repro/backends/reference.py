"""The reference backend: the repository's original interpreted numpy path.

This is the *definition* of correctness for every other backend: a strictly
sequential ``np.add.at`` scatter-add for the segment reduction and plain
left-to-right array products for the per-non-zero partials — exactly the
code the unified kernels ran before the backend interface existed.  It is
deliberately unclever; its job is to be obviously equivalent to a serial
loop over the non-zero stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.base import Backend
from repro.gpusim.scan import segment_reduce as _canonical_segment_reduce

__all__ = ["ReferenceBackend"]


class ReferenceBackend(Backend):
    """Strictly sequential numpy execution (the canonical numeric order)."""

    name = "reference"

    def segment_reduce(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        return _canonical_segment_reduce(values, segment_ids, num_segments)

    def slice_products(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
    ) -> np.ndarray:
        partial = np.asarray(values, dtype=np.float64)[:, None]
        for mat, row_idx in zip(mats, rows):
            partial = partial * np.take(mat, row_idx, axis=0)
        return partial

    def kron_products(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
    ) -> np.ndarray:
        partial = np.asarray(values, dtype=np.float64)
        if partial.ndim == 1:
            partial = partial[:, None]
        nnz = partial.shape[0]
        for pos in range(len(mats) - 1, -1, -1):
            picked = mats[pos][np.asarray(rows[pos]), :]
            width = partial.shape[1] * picked.shape[1]
            partial = (partial[:, :, None] * picked[:, None, :]).reshape(nnz, width)
        return partial

    def dense_hadamard(self, grams: Sequence[np.ndarray], rank: int) -> np.ndarray:
        v = np.ones((rank, rank), dtype=np.float64)
        for gram in grams:
            v *= gram
        return v
