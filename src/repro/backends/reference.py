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
        nnz = np.asarray(values).shape[0]
        if nnz == 0 and mats:
            # reshape(0, -1) is ill-defined; build the empty result directly.
            width = 1
            for mat in mats:
                width *= mat.shape[1]
            return np.zeros((0, width), dtype=np.float64)
        partial = np.asarray(values, dtype=np.float64)[:, None]
        for pos in range(len(mats) - 1, -1, -1):
            picked = mats[pos][np.asarray(rows[pos]), :]
            partial = (partial[:, :, None] * picked[:, None, :]).reshape(nnz, -1)
        return partial

    def dense_hadamard(self, grams: Sequence[np.ndarray], rank: int) -> np.ndarray:
        v = np.ones((rank, rank), dtype=np.float64)
        for gram in grams:
            v *= gram
        return v
