"""Semi-sparse tensors and the sCOO layout (Li et al., IA^3 2016).

The result of SpTTM is *semi-sparse*: its product mode is dense (every
non-empty fiber of the output carries ``R`` values, one per column of the
factor matrix) while the other modes keep the input's sparsity pattern.  Li
et al. introduced the sCOO format to store exactly this: coordinates are kept
only for the sparse modes (one row per non-empty fiber) and the dense mode is
a contiguous ``(num_fibers, R)`` value block.

In this reproduction ``SemiSparseTensor`` plays two roles:

* it is the output type of every SpTTM kernel (unified and baselines), and
* it is the *intermediate tensor* materialised by the two-step fiber-centric
  SpMTTKRP that the paper criticises in Figure 3(a) — its ``storage_bytes``
  is what Figure 9's memory-consumption comparison charges to ParTI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode, check_shape

__all__ = ["SemiSparseTensor"]


@dataclass(frozen=True)
class SemiSparseTensor:
    """A tensor with one dense mode and sparse remaining modes (sCOO).

    Attributes
    ----------
    shape:
        Logical shape of the semi-sparse tensor.  ``shape[dense_mode]`` is
        the length of the dense fibers (``R`` for an SpTTM output).
    dense_mode:
        The mode whose fibers are dense.
    fiber_coords:
        ``(num_fibers, order - 1)`` coordinates of the non-empty fibers in
        the sparse modes, ordered by ``sparse_modes``.
    fiber_values:
        ``(num_fibers, shape[dense_mode])`` dense values of each fiber.
    """

    shape: Tuple[int, ...]
    dense_mode: int
    fiber_coords: np.ndarray
    fiber_values: np.ndarray

    def __post_init__(self) -> None:
        shape = check_shape(self.shape)
        dense_mode = check_mode(self.dense_mode, len(shape))
        coords = np.asarray(self.fiber_coords, dtype=np.int64)
        values = np.asarray(self.fiber_values, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != len(shape) - 1:
            raise ValueError(
                f"fiber_coords must have shape (num_fibers, {len(shape) - 1}), got {coords.shape}"
            )
        if values.ndim != 2 or values.shape != (coords.shape[0], shape[dense_mode]):
            raise ValueError(
                f"fiber_values must have shape ({coords.shape[0]}, {shape[dense_mode]}), "
                f"got {values.shape}"
            )
        sparse_sizes = [s for m, s in enumerate(shape) if m != dense_mode]
        if coords.shape[0]:
            if (coords < 0).any() or (coords >= np.asarray(sparse_sizes)).any():
                raise ValueError("fiber coordinate out of bounds")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dense_mode", dense_mode)
        object.__setattr__(self, "fiber_coords", coords)
        object.__setattr__(self, "fiber_values", values)

    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Tensor order."""
        return len(self.shape)

    @property
    def sparse_modes(self) -> Tuple[int, ...]:
        """The modes that keep a sparse index (all but ``dense_mode``)."""
        return tuple(m for m in range(self.order) if m != self.dense_mode)

    @property
    def num_fibers(self) -> int:
        """Number of stored (non-empty) dense fibers."""
        return int(self.fiber_coords.shape[0])

    @property
    def fiber_length(self) -> int:
        """Length of each dense fiber (the dense mode's size)."""
        return int(self.shape[self.dense_mode])

    def storage_bytes(self, *, index_bytes: int = 4, value_bytes: int = 4) -> int:
        """Bytes needed to store the sCOO representation on the device."""
        coord_bytes = self.num_fibers * (self.order - 1) * index_bytes
        val_bytes = self.num_fibers * self.fiber_length * value_bytes
        return int(coord_bytes + val_bytes)

    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ndarray (guarded against huge shapes)."""
        total = 1.0
        for s in self.shape:
            total *= float(s)
        if total > (1 << 28):
            raise MemoryError(
                f"refusing to densify semi-sparse tensor of shape {self.shape}"
            )
        out = np.zeros(self.shape, dtype=np.float64)
        if self.num_fibers == 0:
            return out
        index: list = [None] * self.order
        for pos, m in enumerate(self.sparse_modes):
            index[m] = self.fiber_coords[:, pos]
        index[self.dense_mode] = slice(None)
        # Build an advanced-indexing tuple that scatters each fiber at once.
        # NumPy keeps the broadcast (fiber) axis in place only when the
        # advanced indices are contiguous; when the dense slice leads
        # (dense_mode == 0) the result is (fiber_length, num_fibers) and the
        # value block must be transposed.
        values = self.fiber_values
        if self.dense_mode == 0 and self.order > 1:
            values = values.T
        out[tuple(index)] = values
        return out

    def to_sparse(self, *, tol: float = 0.0) -> SparseTensor:
        """Convert to coordinate form, dropping entries with ``|v| <= tol``."""
        if self.num_fibers == 0:
            return SparseTensor.empty(self.shape)
        r = self.fiber_length
        nnz = self.num_fibers * r
        indices = np.zeros((nnz, self.order), dtype=np.int64)
        for pos, m in enumerate(self.sparse_modes):
            indices[:, m] = np.repeat(self.fiber_coords[:, pos], r)
        indices[:, self.dense_mode] = np.tile(np.arange(r, dtype=np.int64), self.num_fibers)
        values = self.fiber_values.reshape(-1)
        mask = np.abs(values) > tol
        return SparseTensor(
            indices[mask], values[mask], self.shape, sum_duplicates=False, sort=True
        )

    def allclose(
        self, other: "SemiSparseTensor", *, rtol: float = 1e-8, atol: float = 1e-10
    ) -> bool:
        """Compare two semi-sparse tensors (same dense mode, fibers and values)."""
        if not isinstance(other, SemiSparseTensor):
            raise TypeError("allclose expects another SemiSparseTensor")
        if self.shape != other.shape or self.dense_mode != other.dense_mode:
            return False
        a = self.canonicalized()
        b = other.canonicalized()
        if a.num_fibers != b.num_fibers:
            return False
        if not np.array_equal(a.fiber_coords, b.fiber_coords):
            return False
        return bool(np.allclose(a.fiber_values, b.fiber_values, rtol=rtol, atol=atol))

    def canonicalized(self) -> "SemiSparseTensor":
        """Return a copy with fibers sorted lexicographically by coordinate."""
        if self.num_fibers == 0:
            return self
        # The fiber coordinates as a tensor of their own, in stored order:
        # its segment order over every mode is the canonical order.
        coords = SparseTensor(
            self.fiber_coords,
            np.zeros(self.num_fibers),
            [self.shape[m] for m in self.sparse_modes],
            sum_duplicates=False,
            sort=False,
        )
        perm = coords.segment_order(range(coords.order))
        return SemiSparseTensor(
            shape=self.shape,
            dense_mode=self.dense_mode,
            fiber_coords=self.fiber_coords[perm],
            fiber_values=self.fiber_values[perm],
        )
