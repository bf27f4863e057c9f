"""Plain coordinate (COO) storage, as used by ParTI's GPU SpMTTKRP.

``COOTensor`` is a thin, explicitly-laid-out view over
:class:`repro.tensor.SparseTensor`: one integer index array per mode plus a
value array, i.e. exactly what the paper's Figure 2(a) shows and what the
Table II cost model charges (``4 bytes × order`` of indices plus 4 bytes of
value per non-zero with 32-bit indices / single precision).

The class exists (rather than using ``SparseTensor`` directly in the
baselines) because the storage *layout* matters to the cost models: COO keeps
every index of every non-zero resident in GPU global memory, which is the
memory-footprint disadvantage F-COO removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode

__all__ = ["COOTensor"]


@dataclass(frozen=True)
class COOTensor:
    """Coordinate-format sparse tensor with per-mode index arrays.

    Attributes
    ----------
    shape:
        Tensor dimensions.
    mode_index_arrays:
        Tuple with one ``(nnz,)`` index array per mode.
    values:
        ``(nnz,)`` value array.
    index_dtype / value_dtype:
        Storage dtypes; the paper (and ParTI) use 32-bit indices and
        single-precision values, which is the default here and what the
        Table II byte counts assume.
    sort_mode:
        The mode whose index varies slowest in the stored order (ParTI sorts
        the non-zeros by the output mode before launching SpMTTKRP so that
        atomically-updated rows are clustered).
    """

    shape: Tuple[int, ...]
    mode_index_arrays: Tuple[np.ndarray, ...]
    values: np.ndarray
    index_dtype: np.dtype
    value_dtype: np.dtype
    sort_mode: int

    # ------------------------------------------------------------------ #
    @classmethod
    def from_sparse(
        cls,
        tensor: SparseTensor,
        *,
        sort_mode: int = 0,
        index_dtype: np.dtype | type = np.uint32,
        value_dtype: np.dtype | type = np.float32,
    ) -> "COOTensor":
        """Lay out a :class:`SparseTensor` in COO arrays sorted by ``sort_mode``.

        The non-zeros are sorted lexicographically with ``sort_mode`` as the
        primary key and the remaining modes (in increasing order) as
        secondary keys — the ordering ParTI assumes.  That order is
        :meth:`SparseTensor.slice_order`; each column is gathered through it,
        without a sorted copy of the tensor.
        """
        sort_mode = check_mode(sort_mode, tensor.order)
        index_dtype = np.dtype(index_dtype)
        value_dtype = np.dtype(value_dtype)
        for dim in tensor.shape:
            if dim > np.iinfo(index_dtype).max + 1:
                raise ValueError(
                    f"mode of size {dim} does not fit in index dtype {index_dtype}"
                )
        perm = tensor.slice_order(sort_mode)
        idx = np.asarray(tensor.indices)
        arrays = tuple(np.take(idx[:, m], perm).astype(index_dtype) for m in range(tensor.order))
        values = np.asarray(tensor.values)[perm].astype(value_dtype)
        return cls(
            shape=tensor.shape,
            mode_index_arrays=arrays,
            values=values,
            index_dtype=index_dtype,
            value_dtype=value_dtype,
            sort_mode=sort_mode,
        )

    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Tensor order."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self.values.shape[0])

    def mode_indices(self, mode: int) -> np.ndarray:
        """Index array of one mode."""
        mode = check_mode(mode, self.order)
        return self.mode_index_arrays[mode]

    def storage_bytes(self) -> int:
        """Total bytes of the index and value arrays actually stored."""
        total = self.values.nbytes
        for arr in self.mode_index_arrays:
            total += arr.nbytes
        return int(total)

    def to_sparse(self) -> SparseTensor:
        """Convert back to the master :class:`SparseTensor` representation."""
        if self.nnz == 0:
            return SparseTensor.empty(self.shape)
        indices = np.stack([a.astype(np.int64) for a in self.mode_index_arrays], axis=1)
        return SparseTensor(
            indices,
            self.values.astype(np.float64),
            self.shape,
            sum_duplicates=False,
            sort=True,
        )
