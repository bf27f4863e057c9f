"""Coordinate-format sparse tensors.

:class:`SparseTensor` is the master in-memory representation used throughout
the library.  It stores one row of mode indices per non-zero (``indices`` of
shape ``(nnz, order)``) plus a ``values`` vector, mirroring the classical COO
format the paper starts from (Section III-A).  Every specialised storage
format (F-COO, CSF, sCOO) in :mod:`repro.formats` is constructed from a
``SparseTensor`` and can be converted back for verification.

Design notes
------------
* Indices are always ``int64``; values default to ``float64`` but any real
  floating dtype is accepted.  Mixed conventions are a classic source of
  silent bugs in sparse codes, so the constructor canonicalises aggressively.
* All bulk operations are vectorised NumPy (no per-non-zero Python loops),
  following the HPC guide's "vectorise the hot loops" rule — several of the
  tensors used by the benchmarks have 10^5–10^6 non-zeros.
* The class is immutable in spirit: methods return new objects and never
  mutate ``self`` (the underlying arrays are, however, shared when safe, to
  avoid gratuitous copies).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sps

from repro.util.validation import check_mode, check_shape

__all__ = ["SparseTensor"]


class SparseTensor:
    """A sparse tensor stored in coordinate (COO) form.

    Parameters
    ----------
    indices:
        Integer array of shape ``(nnz, order)``; row ``z`` holds the mode
        indices of the ``z``-th non-zero.
    values:
        Array of shape ``(nnz,)`` with the non-zero values.
    shape:
        Tensor dimensions.  Must bound every index.
    sum_duplicates:
        When ``True`` (default) duplicate coordinates are merged by summing
        their values, which is the semantics FROSTT files and the paper's
        datasets assume.  Each group's values are added in stored order into
        a float64 zero, and the result is sorted as with ``sort``.
    sort:
        When ``True`` (default) non-zeros are sorted lexicographically by
        mode index ``(mode 0, mode 1, ...)``.  Sorted order is what the COO
        kernels in the paper (and ParTI) assume.  The rows are packed into
        one int64 key whenever the shape's product fits in 2**62, and one
        stable sort of it gives the order (:func:`_lexsort_rows`).  A tensor
        built with both flags off keeps the given order and is not taken to
        be sorted.
    """

    __slots__ = ("_indices", "_values", "_shape", "_content_key", "_is_sorted")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int],
        *,
        sum_duplicates: bool = True,
        sort: bool = True,
    ) -> None:
        shape = check_shape(shape, min_order=1)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values)
        if values.dtype.kind not in "fiu":
            raise TypeError(f"values must be numeric, got dtype {values.dtype}")
        values = values.astype(np.float64, copy=False) if values.dtype.kind in "iu" else values
        if indices.ndim != 2:
            if indices.size == 0:
                indices = indices.reshape(0, len(shape))
            else:
                raise ValueError(
                    f"indices must be a 2-D array of shape (nnz, order), got ndim={indices.ndim}"
                )
        if indices.shape[1] != len(shape):
            raise ValueError(
                f"indices has {indices.shape[1]} columns but shape has order {len(shape)}"
            )
        if values.ndim != 1 or values.shape[0] != indices.shape[0]:
            raise ValueError(
                f"values must be 1-D with one entry per non-zero: "
                f"got values shape {values.shape}, indices shape {indices.shape}"
            )
        if indices.shape[0]:
            mins = indices.min(axis=0)
            maxs = indices.max(axis=0)
            if (mins < 0).any():
                bad = int(np.argmax(mins < 0))
                raise ValueError(f"negative index found in mode {bad}")
            if (maxs >= np.asarray(shape)).any():
                bad = int(np.argmax(maxs >= np.asarray(shape)))
                raise ValueError(
                    f"index {int(maxs[bad])} out of bounds for mode {bad} of size {shape[bad]}"
                )

        if sum_duplicates and indices.shape[0]:
            indices, values = _sum_duplicates(indices, values, shape)
            # _sum_duplicates returns data already sorted lexicographically.
        elif sort and indices.shape[0]:
            order = _lexsort_rows(indices, shape)
            indices = indices[order]
            values = values[order]

        self._indices = indices
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        self._shape = shape
        self._content_key: Union[str, None] = None
        # Known to be in canonical order only when sorted here (or trivially).
        self._is_sorted = bool(sum_duplicates or sort or indices.shape[0] < 2)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, array: np.ndarray, *, tol: float = 0.0) -> "SparseTensor":
        """Build a sparse tensor from a dense array, dropping entries with
        ``abs(value) <= tol``."""
        array = np.asarray(array, dtype=np.float64)
        mask = np.abs(array) > tol
        coords = np.argwhere(mask)
        values = array[mask]
        return cls(coords, values, array.shape, sum_duplicates=False, sort=True)

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "SparseTensor":
        """An all-zero tensor of the given shape."""
        shape = check_shape(shape)
        return cls(
            np.empty((0, len(shape)), dtype=np.int64),
            np.empty((0,), dtype=np.float64),
            shape,
            sum_duplicates=False,
            sort=False,
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def indices(self) -> np.ndarray:
        """``(nnz, order)`` int64 array of coordinates (read-only view)."""
        view = self._indices.view()
        view.setflags(write=False)
        return view

    @property
    def values(self) -> np.ndarray:
        """``(nnz,)`` float64 array of non-zero values (read-only view)."""
        view = self._values.view()
        view.setflags(write=False)
        return view

    @property
    def shape(self) -> Tuple[int, ...]:
        """Tensor dimensions."""
        return self._shape

    @property
    def order(self) -> int:
        """Number of modes (the tensor order / number of dimensions)."""
        return len(self._shape)

    # Alias familiar to NumPy users.
    ndim = order

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self._indices.shape[0])

    @property
    def size(self) -> int:
        """Total number of entries (dense size), ``prod(shape)``."""
        return int(np.prod(np.asarray(self._shape, dtype=np.float64)))

    @property
    def density(self) -> float:
        """Fraction of entries that are non-zero (``nnz / prod(shape)``)."""
        denom = float(np.prod(np.asarray(self._shape, dtype=np.float64)))
        return self.nnz / denom if denom else 0.0

    @property
    def content_key(self) -> str:
        """Short hex digest identifying the tensor's exact content.

        Hashes the shape, coordinates and values, so two tensors share a key
        exactly when they are numerically identical (after the constructor's
        canonicalisation).  This is the cache key the serving layer's
        :class:`~repro.serve.cache.PreprocCache` uses to recognise repeat
        submissions of the same tensor — two tenants uploading the same data
        hit the same cache entry regardless of how they name it.  Computed
        lazily and memoised, which relies on the class's immutability
        contract (see the module design notes): mutating a constructor
        argument in place after building the tensor is unsupported
        everywhere in the library — here it would leave a stale digest.
        """
        if self._content_key is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.asarray(self._shape, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(self._indices).tobytes())
            digest.update(self._values.tobytes())
            self._content_key = digest.hexdigest()
        return self._content_key

    def segment_order(self, index_modes: Sequence[int]) -> np.ndarray:
        """The stable permutation sorting the non-zeros by ``index_modes``
        first (``index_modes[0]`` primary) and then by the other modes in
        increasing order.

        This is the order of every F-COO encoding: each segment (a fiber for
        SpTTM, a slice for SpMTTKRP and SpTTMc) is one contiguous run.  COO
        stores its non-zeros in it too, with its sort mode as the one index
        mode.  Canonical order already ranks the other modes that way, so on
        a tensor its constructor sorted, index modes ``(0, ..., k-1)`` need
        no sort at all and any others take one stable sort of their own
        packed key.  A tensor the constructor did not sort takes
        :func:`_lexsort_rows` over the index modes and then the rest.
        """
        index_modes = tuple(check_mode(m, self.order) for m in index_modes)
        if len(set(index_modes)) != len(index_modes):
            raise ValueError(f"index_modes must be distinct, got {index_modes}")
        if not self._is_sorted:
            rest = tuple(m for m in range(self.order) if m not in index_modes)
            return _lexsort_rows(self._indices, self._shape, index_modes + rest)
        if index_modes == tuple(range(len(index_modes))):
            return np.arange(self.nnz)
        return _lexsort_rows(self._indices, self._shape, index_modes)

    def mode_indices(self, mode: int) -> np.ndarray:
        """The index column of one mode, as a read-only ``(nnz,)`` view."""
        mode = check_mode(mode, self.order)
        view = self._indices[:, mode].view()
        view.setflags(write=False)
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensor(shape={self._shape}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialise the tensor as a dense ndarray.

        Guarded against accidentally expanding huge tensors: refuses to
        allocate more than ~2 GiB.
        """
        if self.size > (1 << 28):
            raise MemoryError(
                f"refusing to densify a tensor with {self.size} entries "
                f"(shape {self._shape}); use the sparse kernels instead"
            )
        out = np.zeros(self._shape, dtype=np.float64)
        if self.nnz:
            out[tuple(self._indices.T)] = self._values
        return out

    def unfold(self, mode: int) -> sps.csr_matrix:
        """Mode-``mode`` matricization as a SciPy CSR matrix.

        Follows the Kolda–Bader convention also used by the paper's
        Figure 1: element ``(i_0, ..., i_{N-1})`` lands in row ``i_mode`` and
        column ``sum_{m != mode} i_m * prod_{l < m, l != mode} I_l`` (earlier
        modes vary fastest).
        """
        mode = check_mode(mode, self.order)
        rows = self._indices[:, mode]
        cols = self.unfolded_column_indices(mode)
        ncols = int(np.prod([s for m, s in enumerate(self._shape) if m != mode], dtype=np.float64))
        mat = sps.coo_matrix(
            (self._values, (rows, cols)), shape=(self._shape[mode], ncols)
        )
        return mat.tocsr()

    def unfolded_column_indices(self, mode: int) -> np.ndarray:
        """Column index of every non-zero in the mode-``mode`` unfolding.

        This is the ``z`` index of the paper's Equation (6); it is exactly
        the quantity that overflows 32-bit integers for large tensors, which
        is why F-COO never materialises it (Section III-A).
        """
        mode = check_mode(mode, self.order)
        other = [m for m in range(self.order) if m != mode]
        cols = np.zeros(self.nnz, dtype=np.int64)
        stride = 1
        for m in other:  # earlier modes vary fastest
            cols += self._indices[:, m] * stride
            stride *= self._shape[m]
        return cols

    # ------------------------------------------------------------------ #
    # Reordering / transformation
    # ------------------------------------------------------------------ #
    def sort_by_modes(self, mode_order: Sequence[int]) -> "SparseTensor":
        """Return a copy whose non-zeros are sorted lexicographically by the
        given mode priority (first mode in ``mode_order`` is the slowest
        varying / primary sort key).

        F-COO for an operation with index mode ``i`` requires the non-zeros
        sorted with the index modes as the primary keys so that fibers /
        slices occupy contiguous runs (paper Figure 2).
        """
        mode_order = [check_mode(m, self.order) for m in mode_order]
        if sorted(mode_order) != list(range(self.order)):
            raise ValueError(
                f"mode_order must be a permutation of 0..{self.order - 1}, got {mode_order}"
            )
        if self.nnz == 0:
            return self
        perm = _lexsort_rows(self._indices, self._shape, mode_order)
        return SparseTensor(
            self._indices[perm],
            self._values[perm],
            self._shape,
            sum_duplicates=False,
            sort=False,
        )

    def scale(self, alpha: float) -> "SparseTensor":
        """Return ``alpha * self`` (same sparsity pattern)."""
        return SparseTensor(
            self._indices,
            self._values * float(alpha),
            self._shape,
            sum_duplicates=False,
            sort=False,
        )

    # ------------------------------------------------------------------ #
    # Structure queries (used by cost models and baselines)
    # ------------------------------------------------------------------ #
    def fiber_counts(self, mode: int) -> np.ndarray:
        """Number of non-zeros in each *non-empty* mode-``mode`` fiber.

        A mode-``mode`` fiber is obtained by fixing all indices except
        ``mode``; two non-zeros belong to the same fiber iff they agree on
        every other mode.  The returned vector has one entry per non-empty
        fiber.  ParTI's fiber-parallel SpTTM assigns one fiber per thread
        group, so the spread of this distribution is exactly the load
        imbalance the paper criticises (Section III-B / V-A).
        """
        mode = check_mode(mode, self.order)
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int64)
        other = [m for m in range(self.order) if m != mode]
        key = _composite_key(self._indices, other, self._shape)
        _, counts = np.unique(key, return_counts=True)
        return counts

    def num_fibers(self, mode: int) -> int:
        """Number of non-empty mode-``mode`` fibers."""
        return int(self.fiber_counts(mode).shape[0])

    def slice_counts(self, mode: int) -> np.ndarray:
        """Number of non-zeros in each non-empty slice obtained by fixing ``mode``."""
        mode = check_mode(mode, self.order)
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int64)
        _, counts = np.unique(self._indices[:, mode], return_counts=True)
        return counts

    def num_slices(self, mode: int) -> int:
        """Number of non-empty slices along ``mode`` (distinct indices in that mode)."""
        return int(self.slice_counts(mode).shape[0])

    def norm(self) -> float:
        """Frobenius norm of the tensor."""
        return float(np.linalg.norm(self._values))

    # ------------------------------------------------------------------ #
    # Comparison helpers (primarily for tests)
    # ------------------------------------------------------------------ #
    def allclose(self, other: "SparseTensor", *, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Numerically compare two sparse tensors (pattern + values).

        Both operands are canonicalised (duplicates summed, sorted) before
        comparison, and explicit zeros are ignored.
        """
        if not isinstance(other, SparseTensor):
            raise TypeError("allclose expects another SparseTensor")
        if self._shape != other._shape:
            return False
        a = _canonical(_drop_zeros(self))
        b = _canonical(_drop_zeros(other))
        if a.nnz != b.nnz:
            return False
        if a.nnz == 0:
            return True
        if not np.array_equal(a._indices, b._indices):
            return False
        return bool(np.allclose(a._values, b._values, rtol=rtol, atol=atol))

    def to_coords_dict(self) -> Dict[Tuple[int, ...], float]:
        """Return ``{coordinate tuple: value}`` — convenient in small tests."""
        return {
            tuple(int(i) for i in row): float(v)
            for row, v in zip(self._indices, self._values)
        }


# ---------------------------------------------------------------------- #
# Module-private helpers
# ---------------------------------------------------------------------- #
#: Largest span one packed sort key covers, so every key fits in int64.
_KEY_SPAN = 1 << 62


def _packed_keys(
    indices: np.ndarray, sizes: Sequence[int], order: Optional[Sequence[int]] = None
) -> List[Tuple[np.ndarray, int]]:
    """The columns ``order`` of ``indices`` (default: all) packed into as
    few int64 keys as fit, primary first, each with its span.

    Column ``m`` holds values in ``[0, sizes[m])``.  Consecutive columns
    share one key while the product of their sizes stays within 2**62, and
    a column that would pass it starts the next key, so comparing the keys
    in turn compares the rows lexicographically, for any sizes.
    """
    if order is None:
        order = range(indices.shape[1])
    keys = []
    key, span = None, 0
    for m in order:
        size = int(sizes[m])
        if key is not None and span * size <= _KEY_SPAN:
            key = key * size
            key += indices[:, m]
            span *= size
        else:
            if key is not None:
                keys.append((key, span))
            key, span = indices[:, m], size
    if key is not None:
        keys.append((key, span))
    return keys


def _stable_argsort(key: np.ndarray, span: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of an int64 ``key`` with values in
    ``[0, span)``.

    When ``span`` shifted past the positions' bits still fits in int64, it
    sorts the composites ``key << bits | position`` and masks the positions
    back out: every composite is distinct, so any sort of them yields the
    stable permutation, and NumPy sorts int64 with its SIMD sort.  A wider
    ``key`` takes the stable argsort itself.
    """
    bits = (key.shape[0] - 1).bit_length()
    if span << bits > 1 << 63:
        return np.argsort(key, kind="stable")
    composite = key << bits
    composite |= np.arange(key.shape[0])
    composite = np.sort(composite)
    composite &= (1 << bits) - 1
    return composite


def _argsort_packed(keys: List[Tuple[np.ndarray, int]], nnz: int) -> np.ndarray:
    """The stable permutation sorting ``nnz`` rows by their :func:`_packed_keys`."""
    if not keys:
        return np.arange(nnz)
    if len(keys) == 1:
        return _stable_argsort(*keys[0])
    # Only a span beyond 2**62 gets here.  np.lexsort sorts by the LAST key
    # as primary, so reverse.
    return np.lexsort([key for key, _ in reversed(keys)])


def _lexsort_rows(
    indices: np.ndarray, sizes: Sequence[int], order: Optional[Sequence[int]] = None
) -> np.ndarray:
    """The stable permutation sorting the rows of ``indices``
    lexicographically by the columns ``order`` (default: all, first column
    primary), column ``m`` holding values in ``[0, sizes[m])``.

    The columns are packed into int64 keys (:func:`_packed_keys`).  One key
    takes one :func:`_stable_argsort`; only columns whose sizes multiply
    past 2**62 make several keys, which take one ``np.lexsort``.  Either
    way the permutation is the one ``np.lexsort`` gives over the raw
    columns.

    It sorts the constructor's ``sort``, :meth:`SparseTensor.sort_by_modes`,
    :func:`_canonical`, and :meth:`SparseTensor.segment_order` (every
    order of a tensor its constructor did not sort, and a non-prefix one of
    a tensor it did).
    """
    return _argsort_packed(_packed_keys(indices, sizes, order), indices.shape[0])


def _composite_key(indices: np.ndarray, modes: Iterable[int], shape: Sequence[int]) -> np.ndarray:
    """Collapse the given modes of each coordinate into a single int64 key.

    Used for fiber identification.  Overflow is avoided by falling back to a
    void-view based unique when the product of the selected mode sizes does
    not fit in int64.
    """
    modes = list(modes)
    sizes = [shape[m] for m in modes]
    total = 1.0
    for s in sizes:
        total *= float(s)
    if total < 2**62:
        key = np.zeros(indices.shape[0], dtype=np.int64)
        stride = 1
        for m in modes:
            key += indices[:, m] * stride
            stride *= shape[m]
        return key
    # Fall back to a structured view (rare: only for astronomically large shapes).
    sub = np.ascontiguousarray(indices[:, modes])
    return np.unique(sub.view([("", sub.dtype)] * sub.shape[1]), return_inverse=True)[1]


def _sum_duplicates(
    indices: np.ndarray, values: np.ndarray, shape: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge duplicate coordinates by summing their values.

    Returns arrays sorted lexicographically by coordinate.  The rows are
    sorted once on their packed keys, and a group of duplicates starts
    where a sorted key differs from the one before it.  Each group's values
    are added in stored order into a float64 zero (``np.add.at``).
    """
    if indices.shape[0] == 0:
        return indices, values
    keys = _packed_keys(indices, shape)
    order = _argsort_packed(keys, indices.shape[0])
    group_start = np.zeros(indices.shape[0], dtype=bool)
    group_start[0] = True
    for key, _ in keys:
        key = key[order]
        group_start[1:] |= key[1:] != key[:-1]
    group_ids = np.cumsum(group_start) - 1
    n_groups = int(group_ids[-1]) + 1
    summed = np.zeros(n_groups, dtype=np.float64)
    np.add.at(summed, group_ids, values[order])
    return indices[order[group_start]], summed


def _canonical(t: SparseTensor) -> SparseTensor:
    """Return ``t`` with its non-zeros in canonical lexicographic order."""
    if t.nnz == 0:
        return t
    perm = _lexsort_rows(t._indices, t.shape)
    if np.array_equal(perm, np.arange(t.nnz)):
        return t
    return SparseTensor(
        t._indices[perm], t._values[perm], t.shape, sum_duplicates=False, sort=False
    )


def _drop_zeros(t: SparseTensor) -> SparseTensor:
    """Return a copy of ``t`` without explicitly stored zeros."""
    mask = t.values != 0.0
    if mask.all():
        return t
    return SparseTensor(
        np.asarray(t.indices)[mask],
        np.asarray(t.values)[mask],
        t.shape,
        sum_duplicates=False,
        sort=False,
    )
