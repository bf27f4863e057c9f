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
primary sort keys, so that every fiber/slice occupies one contiguous run —
:meth:`FCOOTensor.from_sparse` performs that sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.formats.mode_encoding import ModeRoles, OperationKind, mode_roles
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_positive_int

__all__ = ["FCOOTensor", "FCOOChunk"]


@dataclass(frozen=True)
class FCOOChunk:
    """One threadlen-aligned slice of an F-COO non-zero stream.

    Produced by :meth:`FCOOTensor.chunk` for the out-of-core streamed
    execution path: each chunk is itself a complete :class:`FCOOTensor`
    (its bit-flag's first entry is forced on, opening a *local* segment)
    plus the bookkeeping needed to merge per-chunk partial results back
    into the global per-segment output.

    Attributes
    ----------
    tensor:
        The chunk's own F-COO encoding.  Its ``segment_index_coords`` are
        the *global* scatter coordinates of its local segments, so a chunk
        can be executed by the unchanged one-shot kernels.
    start / stop:
        Non-zero range ``[start, stop)`` of the chunk in the parent's
        stream; ``start`` is always a multiple of the chunking
        ``threadlen`` so per-thread partitions never straddle chunks.
    segment_offset:
        Global segment id of the chunk's first local segment.  Local
        segment ``j`` contributes to global segment ``segment_offset + j``.
    carries_in:
        ``True`` when the chunk's first non-zero continues a segment begun
        in the previous chunk (the parent's ``bf[start]`` is unset — the
        same condition the ``sf`` start-flag array records per thread
        partition).  The carried segment's partial sums from both chunks
        must be merged, which the segment-offset mapping does implicitly.
    """

    tensor: "FCOOTensor"
    start: int
    stop: int
    segment_offset: int
    carries_in: bool

    @property
    def nnz(self) -> int:
        """Non-zeros in this chunk."""
        return self.stop - self.start

    @property
    def num_segments(self) -> int:
        """Local segments (the carried-in segment counts as local segment 0)."""
        return self.tensor.num_segments


@dataclass(frozen=True)
class FCOOTensor:
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

        The non-zeros are sorted so index modes are the primary keys (in
        increasing mode order) and product modes the secondary keys; this
        makes each fiber/slice a contiguous segment, which is what the
        bit-flag encoding requires.
        """
        roles = mode_roles(operation, mode, tensor.order)
        index_dtype = np.dtype(index_dtype)
        value_dtype = np.dtype(value_dtype)
        for m in roles.product_modes:
            if tensor.shape[m] > np.iinfo(index_dtype).max + 1:
                raise ValueError(
                    f"product mode {m} of size {tensor.shape[m]} does not fit in {index_dtype}"
                )

        sort_order = list(roles.index_modes) + list(roles.product_modes)
        sorted_tensor = tensor.sort_by_modes(sort_order)
        idx = np.asarray(sorted_tensor.indices)
        with np.errstate(over="ignore"):
            values = np.ascontiguousarray(
                np.asarray(sorted_tensor.values).astype(value_dtype)
            )
        if not np.isfinite(values).all():
            raise ValueError(
                f"{int(np.count_nonzero(~np.isfinite(values)))} value(s) are not "
                f"finite as {value_dtype} (NaN, inf, or beyond its range)"
            )
        nnz = sorted_tensor.nnz

        if nnz == 0:
            product_indices = np.empty((0, len(roles.product_modes)), dtype=index_dtype)
            bf = np.empty(0, dtype=bool)
            segment_ids = np.empty(0, dtype=np.int64)
            segment_index_coords = np.empty((0, len(roles.index_modes)), dtype=np.int64)
        else:
            product_indices = np.ascontiguousarray(
                idx[:, list(roles.product_modes)].astype(index_dtype)
            )
            index_coords = idx[:, list(roles.index_modes)]
            changed = np.any(index_coords[1:] != index_coords[:-1], axis=1)
            bf = np.concatenate(([True], changed))
            segment_ids = np.cumsum(bf, dtype=np.int64) - 1
            segment_index_coords = index_coords[bf].astype(np.int64)

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
    # Partitioning / start flags
    # ------------------------------------------------------------------ #
    def num_partitions(self, threadlen: int) -> int:
        """Number of per-thread partitions when each thread takes ``threadlen`` non-zeros."""
        threadlen = check_positive_int(threadlen, "threadlen")
        return int(-(-self.nnz // threadlen)) if self.nnz else 0

    def start_flags(self, threadlen: int) -> np.ndarray:
        """The ``sf`` (start-flag) array for a given ``threadlen``.

        ``sf[t]`` is ``True`` when partition ``t`` begins with a non-zero
        that starts a new segment, i.e. the partition does not need to merge
        a partial sum carried over from partition ``t - 1``.  Partition 0 is
        always flagged (paper Figure 2 caption).
        """
        threadlen = check_positive_int(threadlen, "threadlen")
        n_parts = self.num_partitions(threadlen)
        if n_parts == 0:
            return np.zeros(0, dtype=bool)
        starts = np.arange(n_parts, dtype=np.int64) * threadlen
        sf = self.bf[starts].copy()
        sf[0] = True
        return sf

    def partition_spans_segments(self, threadlen: int) -> np.ndarray:
        """Number of distinct segments touched by each partition.

        Used by the GPU cost model: a partition touching many segments emits
        more partial results into the segmented-scan stage.
        """
        threadlen = check_positive_int(threadlen, "threadlen")
        n_parts = self.num_partitions(threadlen)
        out = np.zeros(n_parts, dtype=np.int64)
        if n_parts == 0:
            return out
        part_of_nnz = np.arange(self.nnz, dtype=np.int64) // threadlen
        # Segment boundaries within each partition = bf flags set past the
        # first element, plus one for the segment carried into the partition.
        np.add.at(out, part_of_nnz[self.bf], 1)
        first_nnz = np.arange(n_parts, dtype=np.int64) * threadlen
        carried = ~self.bf[first_nnz]
        out += carried.astype(np.int64)
        return out

    # ------------------------------------------------------------------ #
    # Out-of-core chunking
    # ------------------------------------------------------------------ #
    def chunk(self, chunk_nnz: int, *, threadlen: int = 1) -> list:
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
            empty list for an empty tensor).  A segment that straddles a
            chunk boundary appears as the last local segment of one chunk
            and the first (``carries_in``) local segment of the next; both
            map to the same global segment id, so summing per-chunk
            partial results per global segment reproduces the one-shot
            reduction.
        """
        chunk_nnz = check_positive_int(chunk_nnz, "chunk_nnz")
        threadlen = check_positive_int(threadlen, "threadlen")
        if chunk_nnz % threadlen != 0:
            raise ValueError(
                f"chunk_nnz ({chunk_nnz}) must be a multiple of threadlen ({threadlen})"
            )
        chunks: list = []
        if self.nnz == 0:
            return chunks
        for start in range(0, self.nnz, chunk_nnz):
            stop = min(start + chunk_nnz, self.nnz)
            chunks.append(self.chunk_span(start, stop, threadlen=threadlen))
        return chunks

    def chunk_span(self, start: int, stop: int, *, threadlen: int = 1) -> FCOOChunk:
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
        if not 0 <= start <= self.nnz:
            raise ValueError(f"start must be in [0, {self.nnz}], got {start}")
        if start % threadlen != 0 and start != self.nnz:
            # start == nnz is always legal: it denotes an empty tail span
            # (the stream length itself need not be threadlen-aligned).
            raise ValueError(
                f"start ({start}) must be a multiple of threadlen ({threadlen})"
            )
        stop = min(int(stop), self.nnz)
        if stop < start:
            raise ValueError(f"stop ({stop}) must be at least start ({start})")
        local_bf = self.bf[start:stop].copy()
        carries_in = bool(start > 0 and stop > start and not local_bf[0])
        if stop > start:
            local_bf[0] = True
        local_segment_ids = np.cumsum(local_bf, dtype=np.int64) - 1
        # The chunk's first non-zero belongs to this global segment, whether
        # it opens it (bf set) or continues it (carried in).  An empty span
        # owns no segments at all.
        segment_offset = int(self.segment_ids[start]) if stop > start else 0
        num_local_segments = int(local_segment_ids[-1]) + 1 if stop > start else 0
        chunk_tensor = FCOOTensor(
            roles=self.roles,
            shape=self.shape,
            product_indices=self.product_indices[start:stop],
            values=self.values[start:stop],
            bf=local_bf,
            segment_ids=local_segment_ids,
            segment_index_coords=self.segment_index_coords[
                segment_offset : segment_offset + num_local_segments
            ],
            index_dtype=self.index_dtype,
            value_dtype=self.value_dtype,
        )
        return FCOOChunk(
            tensor=chunk_tensor,
            start=start,
            stop=stop,
            segment_offset=segment_offset,
            carries_in=carries_in,
        )

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

    def storage_bytes(self, threadlen: Optional[int] = None) -> int:
        """Bytes of per-non-zero storage, matching the Table II accounting.

        See :meth:`estimate_storage_bytes`; the per-segment output
        coordinates are *not* included, mirroring Table II which charges
        only the tensor's own storage.
        """
        return FCOOTensor.estimate_storage_bytes(
            self.nnz,
            int(self.product_indices.shape[1]),
            threadlen=threadlen,
            index_dtype=self.index_dtype,
            value_dtype=self.value_dtype,
        )

    def packed_bit_flags(self) -> np.ndarray:
        """The bit-flag array packed 8 flags per byte (as stored on the GPU)."""
        return np.packbits(self.bf.astype(np.uint8))

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
