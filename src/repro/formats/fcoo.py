"""F-COO: the flagged coordinate storage format (paper Section IV-B).

F-COO is the paper's unified sparse tensor format.  For a given operation
(SpTTM / SpMTTKRP / SpTTMc) and target mode it stores, per non-zero:

* the indices of the **product modes** only (they address rows of the dense
  factor matrices during the Hadamard / Kronecker product), and
* the non-zero **value**,

and compresses the **index modes** down to two flag arrays:

* ``bf`` (bit-flag) — one bit per non-zero; set when the non-zero starts a
  new *segment*, i.e. its index-mode coordinates differ from the previous
  non-zero's.  A segment is a fiber for SpTTM and a slice for
  SpMTTKRP/SpTTMc.  The bit-flag is what lets the unified kernels run a
  segmented scan instead of atomic updates.
* ``sf`` (start-flag) — one bit per thread partition (``threadlen``
  non-zeros each); set when the partition's first non-zero starts a new
  segment, i.e. no segment spans the boundary with the previous partition.
  Thread 0's flag is always set.

The format additionally keeps a small per-*segment* table of the index-mode
coordinates (one entry per non-empty fiber/slice, not per non-zero) so the
kernel knows where to scatter each reduced segment in the output.  This is
the same information ParTI's sCOO output format stores and it is not charged
to the per-non-zero storage cost of Table II.

The encoding requires the non-zeros to be sorted with the index modes as the
primary sort keys, so that every fiber/slice occupies one contiguous run.
:meth:`FCOOTensor.from_sparse` takes that order as one permutation,
:meth:`SparseTensor.segment_order`, and gathers the stored columns straight
from it, without a sorted copy of the tensor.  On a tensor its constructor
sorted, index modes that lead canonical order (mode 0 of SpMTTKRP and SpTTMc,
SpTTM on the last mode) need no sort, and any others take one stable sort of
their packed int64 key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.formats.mode_encoding import ModeRoles, OperationKind, mode_roles
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_positive_int

__all__ = ["FCOOTensor", "FCOOChunk"]


class _NonZeroStream:
    """A run of an F-COO non-zero stream: a whole :class:`FCOOTensor`, or
    one :class:`FCOOChunk` of it.

    Both are sized and split the same way.  A span cut from either is O(1)
    to make: its statistics come from the encoding's segment ids at the
    span's two ends, and no array is copied.  Subclasses provide ``nnz``
    and :meth:`_position`.
    """

    def _position(self) -> Tuple["FCOOTensor", int]:
        """The encoding this stream's arrays lie in, and the stream's first
        non-zero in it."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Partitioning
    # ------------------------------------------------------------------ #
    def num_partitions(self, threadlen: int) -> int:
        """Number of per-thread partitions when each thread takes ``threadlen`` non-zeros."""
        threadlen = check_positive_int(threadlen, "threadlen")
        return int(-(-self.nnz // threadlen)) if self.nnz else 0

    def chunk(self, chunk_nnz: int, *, threadlen: int = 1) -> List["FCOOChunk"]:
        """Split the non-zero stream into :class:`FCOOChunk` slices.

        Parameters
        ----------
        chunk_nnz:
            Maximum non-zeros per chunk; must be a multiple of
            ``threadlen`` so chunk boundaries coincide with per-thread
            partition boundaries (a partition never straddles two device
            buffers).
        threadlen:
            The per-thread work size the chunks will be executed with.

        Returns
        -------
        list of FCOOChunk
            Contiguous, non-overlapping chunks covering all non-zeros (an
            empty list for an empty stream), positioned relative to this
            stream.  A segment that straddles a chunk boundary appears as
            the last local segment of one chunk and the first
            (``carries_in``) local segment of the next; both map to the
            same segment of this stream, so summing per-chunk partial
            results per segment reproduces the one-shot reduction.
        """
        chunk_nnz = check_positive_int(chunk_nnz, "chunk_nnz")
        threadlen = check_positive_int(threadlen, "threadlen")
        if chunk_nnz % threadlen != 0:
            raise ValueError(
                f"chunk_nnz ({chunk_nnz}) must be a multiple of threadlen ({threadlen})"
            )
        return [
            self.chunk_span(start, start + chunk_nnz, threadlen=threadlen)
            for start in range(0, self.nnz, chunk_nnz)
        ]

    def chunk_span(self, start: int, stop: int, *, threadlen: int = 1) -> "FCOOChunk":
        """One :class:`FCOOChunk` covering the non-zero range ``[start, stop)``.

        The building block :meth:`chunk` and the capability-weighted shard
        partitioner share: ``start`` must be a ``threadlen`` multiple (chunk
        boundaries must coincide with per-thread partition boundaries) and
        ``stop`` is clamped to the stream length.  ``start == stop`` yields
        an *empty* chunk — the weighted partitioner uses these as
        placeholders so shard position keeps matching device slot even when
        a very slow device is allocated no work.
        """
        threadlen = check_positive_int(threadlen, "threadlen")
        nnz = self.nnz
        if not 0 <= start <= nnz:
            raise ValueError(f"start must be in [0, {nnz}], got {start}")
        if start % threadlen != 0 and start != nnz:
            # start == nnz is always legal: it denotes an empty tail span
            # (the stream length itself need not be threadlen-aligned).
            raise ValueError(
                f"start ({start}) must be a multiple of threadlen ({threadlen})"
            )
        stop = min(int(stop), nnz)
        if stop < start:
            raise ValueError(f"stop ({stop}) must be at least start ({start})")
        source, origin = self._position()
        lo, hi = origin + start, origin + stop
        if hi == lo:
            # An empty span owns no segments at all.
            return FCOOChunk(
                source=source,
                source_start=lo,
                start=start,
                stop=stop,
                segment_offset=0,
                carries_in=False,
                num_segments=0,
            )
        # The chunk's first non-zero belongs to this segment, whether it
        # opens it (bf set) or continues it (carried in); the stream's own
        # segments are numbered from its first non-zero's.
        first = int(source.segment_ids[lo])
        return FCOOChunk(
            source=source,
            source_start=lo,
            start=start,
            stop=stop,
            segment_offset=first - int(source.segment_ids[origin]),
            carries_in=bool(start > 0 and not source.bf[lo]),
            num_segments=int(source.segment_ids[hi - 1]) - first + 1,
        )

    # ------------------------------------------------------------------ #
    # Storage accounting
    # ------------------------------------------------------------------ #
    def storage_bytes(self, threadlen: Optional[int] = None) -> int:
        """Bytes of per-non-zero storage, matching the Table II accounting.

        See :meth:`FCOOTensor.estimate_storage_bytes`; the per-segment
        output coordinates are *not* included, mirroring Table II which
        charges only the tensor's own storage.
        """
        source, _ = self._position()
        return FCOOTensor.estimate_storage_bytes(
            self.nnz,
            int(source.product_indices.shape[1]),
            threadlen=threadlen,
            index_dtype=source.index_dtype,
            value_dtype=source.value_dtype,
        )


@dataclass(frozen=True)
class FCOOChunk(_NonZeroStream):
    """One threadlen-aligned span of an F-COO non-zero stream.

    Produced by :meth:`FCOOTensor.chunk` for the out-of-core streamed
    execution path and by the shard partitioners; a chunk can be chunked
    again (a streamed shard).  Its statistics are O(1) reads of the
    encoding it lies in, and the cost model prices it from them and from
    the encoding's index columns over the span.

    Attributes
    ----------
    source / source_start:
        The encoding the chunk's arrays lie in, and the position of the
        chunk's first non-zero in it.
    start / stop:
        Non-zero range ``[start, stop)`` of the chunk in the stream it was
        cut from; ``start`` is always a multiple of the chunking
        ``threadlen`` so per-thread partitions never straddle chunks.
    segment_offset:
        Segment id, in the stream it was cut from, of the chunk's first
        local segment.  Local segment ``j`` contributes to that stream's
        segment ``segment_offset + j``.
    carries_in:
        ``True`` when the chunk's first non-zero continues a segment begun
        in the previous chunk (its ``bf`` entry is unset — the same
        condition the ``sf`` start-flag array records per thread
        partition).  The carried segment's partial sums from both chunks
        must be merged, which the segment-offset mapping does implicitly.
    num_segments:
        Local segments (the carried-in segment counts as local segment 0).
    """

    source: "FCOOTensor" = field(repr=False, compare=False)
    source_start: int
    start: int
    stop: int
    segment_offset: int
    carries_in: bool
    num_segments: int

    @property
    def nnz(self) -> int:
        """Non-zeros in this chunk."""
        return self.stop - self.start

    def _position(self) -> Tuple["FCOOTensor", int]:
        return self.source, self.source_start


@dataclass(frozen=True)
class FCOOTensor(_NonZeroStream):
    """A sparse tensor encoded in F-COO for one operation / target mode.

    Instances are produced by :meth:`from_sparse` and are immutable; encoding
    the same tensor for a different operation or mode produces a different
    ``FCOOTensor`` (the preprocessing the paper performs once on the host for
    every mode before a CP iteration).

    Attributes
    ----------
    roles:
        The :class:`~repro.formats.mode_encoding.ModeRoles` this encoding was
        built for (operation, target mode, product/index mode split).
    shape:
        Shape of the original tensor.
    product_indices:
        ``(nnz, len(product_modes))`` array with the product-mode indices of
        every non-zero, column ``p`` holding the index of
        ``roles.product_modes[p]``.
    values:
        ``(nnz,)`` non-zero values.
    bf:
        ``(nnz,)`` boolean segment-start flags (the bit-flag array).
    segment_ids:
        ``(nnz,)`` int array mapping every non-zero to its segment
        (``cumsum(bf) - 1``); precomputed because both the simulated kernels
        and the cost models need it.
    segment_index_coords:
        ``(num_segments, len(index_modes))`` array with the index-mode
        coordinates of each segment (the output scatter addresses).
    index_dtype / value_dtype:
        Dtypes used for the stored arrays (32-bit unsigned indices and
        single-precision values by default, as in the paper's cost model).
    """

    roles: ModeRoles
    shape: Tuple[int, ...]
    product_indices: np.ndarray
    values: np.ndarray
    bf: np.ndarray
    segment_ids: np.ndarray
    segment_index_coords: np.ndarray
    index_dtype: np.dtype
    value_dtype: np.dtype

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sparse(
        cls,
        tensor: SparseTensor,
        operation: Union[OperationKind, str],
        mode: int,
        *,
        index_dtype: np.dtype | type = np.uint32,
        value_dtype: np.dtype | type = np.float32,
    ) -> "FCOOTensor":
        """Encode ``tensor`` in F-COO for ``operation`` on ``mode``.

        The non-zeros are ordered so index modes are the primary keys (in
        increasing mode order) and product modes the secondary keys; this
        makes each fiber/slice a contiguous segment, which is what the
        bit-flag encoding requires.  The order is one permutation,
        :meth:`SparseTensor.segment_order` of the index modes.  The values
        (cast to ``value_dtype``), the product-mode columns (cast to
        ``index_dtype``) and the index-mode columns are gathered through
        it one column at a time, and the flags, segment ids and segment
        table are read off the sorted index columns, so no step holds more
        than O(nnz) memory or a sorted copy of the tensor.
        """
        roles = mode_roles(operation, mode, tensor.order)
        index_dtype = np.dtype(index_dtype)
        value_dtype = np.dtype(value_dtype)
        for m in roles.product_modes:
            if tensor.shape[m] > np.iinfo(index_dtype).max + 1:
                raise ValueError(
                    f"product mode {m} of size {tensor.shape[m]} does not fit in {index_dtype}"
                )

        idx = np.asarray(tensor.indices)
        perm = tensor.segment_order(roles.index_modes)
        with np.errstate(over="ignore"):
            values = np.asarray(tensor.values).astype(value_dtype)[perm]
        if not np.isfinite(values).all():
            raise ValueError(
                f"{int(np.count_nonzero(~np.isfinite(values)))} value(s) are not "
                f"finite as {value_dtype} (NaN, inf, or beyond its range)"
            )
        nnz = tensor.nnz

        product_indices = np.empty((nnz, len(roles.product_modes)), dtype=index_dtype)
        for position, m in enumerate(roles.product_modes):
            product_indices[:, position] = np.take(idx[:, m], perm)
        index_columns = [np.take(idx[:, m], perm) for m in roles.index_modes]
        # A non-zero opens a segment when an index mode differs from the
        # previous non-zero's; the first always does.
        bf = np.zeros(nnz, dtype=bool)
        bf[:1] = True
        for column in index_columns:
            bf[1:] |= column[1:] != column[:-1]
        segment_ids = np.cumsum(bf, dtype=np.int64) - 1
        segment_index_coords = np.stack([column[bf] for column in index_columns], axis=1)

        return cls(
            roles=roles,
            shape=tensor.shape,
            product_indices=product_indices,
            values=values,
            bf=bf,
            segment_ids=segment_ids,
            segment_index_coords=segment_index_coords,
            index_dtype=index_dtype,
            value_dtype=value_dtype,
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def operation(self) -> OperationKind:
        """The operation this encoding targets."""
        return self.roles.operation

    @property
    def mode(self) -> int:
        """The operation's target mode (0-based)."""
        return self.roles.mode

    @property
    def order(self) -> int:
        """Tensor order."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self.values.shape[0])

    @property
    def num_segments(self) -> int:
        """Number of reduction segments (non-empty fibers or slices)."""
        return int(self.segment_index_coords.shape[0])

    def norm(self) -> float:
        """Frobenius norm of the stored values, summed in float64: the norm
        of what a kernel reads, after the ``value_dtype`` cast."""
        return float(np.linalg.norm(self.values.astype(np.float64)))

    def _position(self) -> Tuple["FCOOTensor", int]:
        return self, 0

    def product_mode_indices(self, position: int) -> np.ndarray:
        """Index column for the ``position``-th product mode."""
        if not 0 <= position < len(self.roles.product_modes):
            raise ValueError(
                f"position must be in [0, {len(self.roles.product_modes)}), got {position}"
            )
        return self.product_indices[:, position]

    def segment_sizes(self) -> np.ndarray:
        """Number of non-zeros per segment."""
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.segment_ids, minlength=self.num_segments).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Storage accounting
    # ------------------------------------------------------------------ #
    @staticmethod
    def estimate_storage_bytes(
        nnz: int,
        num_product_modes: int,
        *,
        threadlen: Optional[int] = None,
        index_dtype: np.dtype | type = np.uint32,
        value_dtype: np.dtype | type = np.float32,
    ) -> int:
        """Table II storage bytes from shape statistics alone.

        The same accounting as :meth:`storage_bytes` without needing the
        encoding built — what the serving placer's admission control sizes
        jobs with before spending any preprocessing.  Counts the
        product-mode index arrays, the value array, the packed bit-flag
        (1 bit per non-zero) and, when ``threadlen`` is given, the packed
        start-flag array (1 bit per partition).
        """
        index_dtype = np.dtype(index_dtype)
        value_dtype = np.dtype(value_dtype)
        bytes_total = num_product_modes * nnz * index_dtype.itemsize
        bytes_total += nnz * value_dtype.itemsize
        bytes_total += -(-nnz // 8)  # packed bit-flag, 1 bit per nnz
        if threadlen is not None and nnz:
            n_parts = -(-nnz // check_positive_int(threadlen, "threadlen"))
            bytes_total += -(-n_parts // 8)
        return int(bytes_total)

    # ------------------------------------------------------------------ #
    # Round trip (verification)
    # ------------------------------------------------------------------ #
    def to_sparse(self) -> SparseTensor:
        """Reconstruct the original :class:`SparseTensor`.

        Inverse of :meth:`from_sparse` up to non-zero ordering; used by the
        test suite to verify the encoding is lossless.
        """
        if self.nnz == 0:
            return SparseTensor.empty(self.shape)
        indices = np.zeros((self.nnz, self.order), dtype=np.int64)
        for col, m in enumerate(self.roles.product_modes):
            indices[:, m] = self.product_indices[:, col].astype(np.int64)
        index_coords = self.segment_index_coords[self.segment_ids]
        for col, m in enumerate(self.roles.index_modes):
            indices[:, m] = index_coords[:, col]
        return SparseTensor(
            indices,
            self.values.astype(np.float64),
            self.shape,
            sum_duplicates=False,
            sort=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FCOOTensor(op={self.operation.value}, mode={self.mode}, shape={self.shape}, "
            f"nnz={self.nnz}, segments={self.num_segments})"
        )
