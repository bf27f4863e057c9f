"""Tests for the F-COO storage format (paper Section IV-B, Figure 2, Table II)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.formats.storage_cost import fcoo_storage_bytes
from repro.gpusim.cluster import ClusterSpec, NodeSpec
from repro.gpusim.device import TITAN_X, scaled_device
from repro.kernels.unified import (
    operation_spec,
    partition_shards,
    partition_shards_hierarchical,
)
from repro.kernels.unified.driver import Pricing
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor


def figure2_tensor():
    """The 12-non-zero tensor of the paper's Figure 2 (1-based in the paper)."""
    coords = [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4),
        (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3),
        (1, 1, 0), (1, 1, 1), (1, 1, 2),
    ]
    values = np.arange(1.0, 13.0)
    return SparseTensor(np.array(coords), values, (2, 2, 5))


def start_flags(fcoo, threadlen):
    """The ``sf`` array: one flag per ``threadlen`` partition, set when the
    partition opens a segment — i.e. when the partition, cut as a chunk,
    carries no segment in from the one before."""
    partitions = fcoo.chunk(threadlen, threadlen=threadlen)
    return np.array([not p.carries_in for p in partitions], dtype=bool)


class TestFigure2Encoding:
    """The worked example of the paper's Figure 2."""

    def test_spttm_mode3_segments_are_fibers(self):
        fcoo = FCOOTensor.from_sparse(figure2_tensor(), OperationKind.SPTTM, 2)
        # Three (i, j) fibers: (0,0) with 5 nnz, (1,0) with 4, (1,1) with 3.
        assert fcoo.num_segments == 3
        np.testing.assert_array_equal(fcoo.segment_sizes(), [5, 4, 3])
        np.testing.assert_array_equal(fcoo.segment_index_coords, [[0, 0], [1, 0], [1, 1]])

    def test_spttm_mode3_bit_flags(self):
        fcoo = FCOOTensor.from_sparse(figure2_tensor(), OperationKind.SPTTM, 2)
        # A flag is set exactly where a new fiber starts (positions 0, 5, 9).
        expected = np.zeros(12, dtype=bool)
        expected[[0, 5, 9]] = True
        np.testing.assert_array_equal(fcoo.bf, expected)

    def test_spttm_mode3_product_indices_are_k(self):
        fcoo = FCOOTensor.from_sparse(figure2_tensor(), OperationKind.SPTTM, 2)
        np.testing.assert_array_equal(
            fcoo.product_mode_indices(0), [0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 1, 2]
        )

    def test_spmttkrp_mode1_segments_are_slices(self):
        fcoo = FCOOTensor.from_sparse(figure2_tensor(), OperationKind.SPMTTKRP, 0)
        # Two i-slices: i=0 with 5 nnz, i=1 with 7 nnz.
        assert fcoo.num_segments == 2
        np.testing.assert_array_equal(fcoo.segment_sizes(), [5, 7])

    def test_start_flags_partition_of_four(self):
        """With 4 non-zeros per partition, mode-1 SpMTTKRP has 3 partitions:
        sf[t] equals bf at the partition's first non-zero, with sf[0]
        forced to 1 (Figure 2 caption)."""
        fcoo = FCOOTensor.from_sparse(figure2_tensor(), OperationKind.SPMTTKRP, 0)
        sf = start_flags(fcoo, 4)
        assert sf.shape == (3,)
        assert bool(sf[0]) is True
        np.testing.assert_array_equal(sf[1:], fcoo.bf[[4, 8]])


class TestRoundTrip:
    @pytest.mark.parametrize("operation", ["spttm", "spmttkrp", "spttmc"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_lossless_third_order(self, operation, mode):
        tensor = random_sparse_tensor((12, 9, 15), 300, seed=mode)
        fcoo = FCOOTensor.from_sparse(tensor, operation, mode)
        # The sparsity pattern must round-trip exactly; values at float32
        # accuracy (F-COO stores device single precision).
        assert fcoo.to_sparse().allclose(tensor, rtol=1e-6, atol=1e-6)

    def test_lossless_fourth_order(self, fourth_order_tensor):
        for mode in range(4):
            fcoo = FCOOTensor.from_sparse(fourth_order_tensor, "spmttkrp", mode)
            assert fcoo.to_sparse().allclose(fourth_order_tensor, rtol=1e-6, atol=1e-6)

    def test_empty_tensor(self):
        fcoo = FCOOTensor.from_sparse(SparseTensor.empty((4, 5, 6)), "spttm", 2)
        assert fcoo.nnz == 0
        assert fcoo.num_segments == 0
        assert fcoo.to_sparse().allclose(SparseTensor.empty((4, 5, 6)))


class TestInvariants:
    def test_bf_first_is_set_and_cumsum_matches_segments(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        assert bool(fcoo.bf[0]) is True
        assert int(fcoo.bf.sum()) == fcoo.num_segments
        np.testing.assert_array_equal(np.cumsum(fcoo.bf) - 1, fcoo.segment_ids)

    def test_segment_ids_non_decreasing(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", 1)
        assert (np.diff(fcoo.segment_ids) >= 0).all()

    def test_segments_count_equals_num_fibers(self, small_tensor):
        for mode in range(3):
            fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", mode)
            assert fcoo.num_segments == small_tensor.num_fibers(mode)

    def test_segments_count_equals_num_slices_for_mttkrp(self, small_tensor):
        for mode in range(3):
            fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", mode)
            assert fcoo.num_segments == small_tensor.num_slices(mode)

    def test_product_indices_dtype(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        assert fcoo.product_indices.dtype == np.uint32
        assert fcoo.values.dtype == np.float32

    def test_index_dtype_overflow_check(self):
        tensor = random_sparse_tensor((300, 5, 5), 50, seed=0)
        with pytest.raises(ValueError, match="does not fit"):
            FCOOTensor.from_sparse(tensor, "spttm", 0, index_dtype=np.uint8)

    @pytest.mark.parametrize("poison", [1e308, np.inf, np.nan])
    def test_value_not_finite_as_float32_raises(self, poison):
        # 1e308 overflows the float32 cast to inf; NaN and inf stay so.
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        values = np.array(tensor.values)
        values[7] = poison
        bad = SparseTensor(tensor.indices, values, tensor.shape)
        with pytest.raises(ValueError, match="not finite as float32"):
            FCOOTensor.from_sparse(bad, "spmttkrp", 0)

    def test_wrong_product_position(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", 0)
        with pytest.raises(ValueError):
            fcoo.product_mode_indices(1)


class TestPartitions:
    def test_num_partitions(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        assert fcoo.num_partitions(8) == -(-fcoo.nnz // 8)
        assert fcoo.num_partitions(fcoo.nnz) == 1

    def test_start_flags_first_always_set(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        for threadlen in (1, 4, 16, 64):
            sf = start_flags(fcoo, threadlen)
            assert sf.shape == (fcoo.num_partitions(threadlen),)
            assert bool(sf[0]) is True

    def test_start_flags_all_set_when_threadlen_one_on_distinct_segments(self):
        # One non-zero per slice -> every partition starts a new segment.
        coords = np.array([[i, 0, 0] for i in range(10)])
        tensor = SparseTensor(coords, np.ones(10), (10, 2, 2))
        fcoo = FCOOTensor.from_sparse(tensor, "spmttkrp", 0)
        assert start_flags(fcoo, 1).all()

    def test_partition_spans_segments_totals(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        partitions = fcoo.chunk(8, threadlen=8)
        spans = np.array([p.num_segments for p in partitions])
        assert spans.shape == (fcoo.num_partitions(8),)
        assert (spans >= 1).all()
        # Every segment is counted once per partition it touches: once,
        # plus once more for each partition it is carried into.
        carried = sum(p.carries_in for p in partitions)
        assert spans.sum() == fcoo.num_segments + carried
        assert fcoo.num_segments <= spans.sum() <= fcoo.num_segments + len(spans)

    def test_invalid_threadlen(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", 2)
        with pytest.raises(ValueError):
            fcoo.num_partitions(0)


class TestStorage:
    def test_storage_matches_table2_model(self, small_tensor):
        for op, mode in [("spttm", 2), ("spmttkrp", 0)]:
            fcoo = FCOOTensor.from_sparse(small_tensor, op, mode)
            for threadlen in (8, 32):
                model = fcoo_storage_bytes(
                    fcoo.nnz, small_tensor.order, op, mode, threadlen=threadlen
                )
                measured = fcoo.storage_bytes(threadlen)
                # The model is exact up to the rounding of the packed flag bits.
                assert abs(measured - model) <= 16

    def test_spttm_smaller_than_spmttkrp(self, small_tensor):
        spttm = FCOOTensor.from_sparse(small_tensor, "spttm", 2).storage_bytes(8)
        spmttkrp = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0).storage_bytes(8)
        assert spttm < spmttkrp

    def test_flag_bits_charged_packed(self, small_tensor):
        """The bf array costs its packed bytes (1 bit per non-zero) and the
        sf array, when a threadlen is given, its packed bytes (1 bit per
        partition), on top of the index and value columns."""
        for op, mode in [("spttm", 2), ("spmttkrp", 0), ("spttmc", 1)]:
            fcoo = FCOOTensor.from_sparse(small_tensor, op, mode)
            columns = fcoo.product_indices.nbytes + fcoo.values.nbytes
            assert fcoo.storage_bytes() == columns + np.packbits(fcoo.bf).nbytes
            for threadlen in (1, 3, 8, 32):
                sf = np.packbits(start_flags(fcoo, threadlen))
                assert fcoo.storage_bytes(threadlen) == fcoo.storage_bytes() + sf.nbytes


class TestValidation:
    def test_reencoding_required_for_other_mode(self, small_tensor):
        from repro.kernels.unified.spttm import unified_spttm

        fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", 2)
        with pytest.raises(ValueError, match="encoded for"):
            unified_spttm(fcoo, np.ones((small_tensor.shape[0], 4)), 0)


# ---------------------------------------------------------------------- #
# Spans: chunks and shards are priced from O(1) statistics of the encoding
# ---------------------------------------------------------------------- #


def reencoded(parent, lo, hi):
    """Non-zeros ``[lo, hi)`` of ``parent``'s stream, encoded from scratch."""
    tensor = SparseTensor.empty(parent.shape)
    if hi > lo:
        indices = np.zeros((hi - lo, parent.order), dtype=np.int64)
        for col, m in enumerate(parent.roles.product_modes):
            indices[:, m] = parent.product_indices[lo:hi, col]
        index_coords = parent.segment_index_coords[parent.segment_ids[lo:hi]]
        for col, m in enumerate(parent.roles.index_modes):
            indices[:, m] = index_coords[:, col]
        values = parent.values[lo:hi].astype(np.float64)
        tensor = SparseTensor(indices, values, parent.shape)
    return FCOOTensor.from_sparse(tensor, parent.operation, parent.mode)


@st.composite
def encodings(draw):
    """Small encodings whose fibers and slices span several partitions."""
    order = draw(st.integers(min_value=3, max_value=4))
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=order, max_size=order)))
    operation = draw(st.sampled_from(list(OperationKind)))
    mode = draw(st.integers(min_value=0, max_value=order - 1))
    nnz = draw(st.integers(min_value=0, max_value=150))
    if nnz == 0:
        return FCOOTensor.from_sparse(SparseTensor.empty(dims), operation, mode)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    tensor = random_sparse_tensor(dims, nnz, seed=seed)
    return FCOOTensor.from_sparse(tensor, operation, mode)


#: Two nodes of unequal devices: capability-weighted node spans, then
#: device spans within each node.
TWO_NODES = ClusterSpec(
    nodes=(
        NodeSpec(devices=(TITAN_X, TITAN_X), name="full"),
        NodeSpec(
            devices=(
                scaled_device(TITAN_X, 1.0, bandwidth_scale=0.5, name_suffix="half"),
                scaled_device(TITAN_X, 1.0, bandwidth_scale=0.1, name_suffix="tenth"),
            ),
            name="slow",
        ),
    )
)

#: Four fibers of 30 non-zeros (SpTTM on mode 2): every boundary of a
#: chunking or sharding finer than a fiber cuts through a segment.
LONG_FIBERS = FCOOTensor.from_sparse(random_sparse_tensor((2, 2, 30), 2000, seed=3), "spttm", 2)


class TestSpanStatistics:
    """A chunk or shard is a span of its encoding: its statistics are O(1)
    reads of the encoding, and its priced terms read the encoding's index
    columns over the span.  They equal those of the span's non-zeros
    encoded on their own."""

    THREADLENS = (1, 3, 8)

    def check(self, pricing, span, stream_start):
        parent = pricing.fcoo
        lo = span.source_start
        hi = lo + span.nnz
        assert span.source is parent and lo == stream_start + span.start
        expected = reencoded(parent, lo, hi)
        assert span.nnz == expected.nnz
        assert span.num_segments == expected.num_segments
        assert span.carries_in == bool(span.start > 0 and hi > lo and not parent.bf[lo])
        if hi > lo:
            own = parent.segment_ids[lo] - parent.segment_ids[stream_start]
            assert span.segment_offset == own
        else:
            assert span.segment_offset == 0
        for threadlen in self.THREADLENS:
            assert span.storage_bytes(threadlen) == expected.storage_bytes(threadlen)
            assert span.num_partitions(threadlen) == expected.num_partitions(threadlen)
        assert pricing.distinct_rows(span) == tuple(
            np.unique(expected.product_mode_indices(p)).size
            for p in range(len(parent.roles.product_modes))
        )

    @given(
        fcoo=encodings(),
        threadlen=st.sampled_from([1, 2, 4, 8]),
        chunk_parts=st.integers(min_value=1, max_value=5),
        num_shards=st.integers(min_value=1, max_value=4),
        weights=st.lists(st.sampled_from([0.01, 1.0, 2.5]), min_size=1, max_size=4),
    )
    @example(fcoo=LONG_FIBERS, threadlen=4, chunk_parts=2, num_shards=3, weights=[0.01, 1.0])
    def test_spans_equal_their_materialised_encodings(
        self, fcoo, threadlen, chunk_parts, num_shards, weights
    ):
        pricing = Pricing(fcoo, operation_spec(fcoo, fcoo.operation, 2), device=TITAN_X)
        chunk_nnz = chunk_parts * threadlen
        for chunk in fcoo.chunk(chunk_nnz, threadlen=threadlen):
            self.check(pricing, chunk, 0)
        shardings = [
            partition_shards(fcoo, num_shards, threadlen=threadlen),
            partition_shards(fcoo, len(weights), threadlen=threadlen, weights=weights),
            partition_shards_hierarchical(fcoo, TWO_NODES, threadlen=threadlen),
        ]
        for shards in shardings:
            assert sum(shard.nnz for shard in shards) == fcoo.nnz
            for shard in shards:
                self.check(pricing, shard, 0)
                # A shard that does not fit its device streams in chunks of
                # its own span.
                sub = shard.chunk(chunk_nnz, threadlen=threadlen)
                assert sum(chunk.nnz for chunk in sub) == shard.nnz
                for chunk in sub:
                    self.check(pricing, chunk, shard.source_start)

    def test_long_fibers_straddle_every_boundary(self):
        chunks = LONG_FIBERS.chunk(8, threadlen=4)
        assert all(chunk.carries_in for chunk in chunks[1:] if chunk.start % 30)
        shards = partition_shards(LONG_FIBERS, 3, threadlen=4)
        assert any(shard.carries_in for shard in shards)
        assert sum(c.carries_in for c in shards[1].chunk(8, threadlen=4)) >= 2
        empty = partition_shards(LONG_FIBERS, 2, threadlen=4, weights=[0.01, 1.0])
        assert empty[0].nnz == 0 and empty[1].nnz == LONG_FIBERS.nnz

    def test_spans_copy_no_array(self):
        spans = LONG_FIBERS.chunk(8, threadlen=4) + partition_shards(LONG_FIBERS, 3, threadlen=4)
        spans += spans[-1].chunk(8, threadlen=4)
        for span in spans:
            assert span.source is LONG_FIBERS
            fields = vars(span).values()
            assert not any(isinstance(value, np.ndarray) for value in fields)
