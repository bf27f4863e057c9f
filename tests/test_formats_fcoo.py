"""Tests for the F-COO storage format (paper Section IV-B, Figure 2, Table II)."""

import numpy as np
import pytest

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.formats.storage_cost import fcoo_storage_bytes
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
        """With 4 non-zeros per partition, sf = [1, 1, 0] for mode-1 SpMTTKRP.

        Partition 0 starts at non-zero 0 (new slice), partition 1 at
        non-zero 4 (still slice i=0 ... wait, the paper's example has the
        partition-2 start inside slice i=1): the invariant tested is that
        sf[t] equals bf at the partition's first non-zero with sf[0] forced
        to 1 (Figure 2 caption).
        """
        fcoo = FCOOTensor.from_sparse(figure2_tensor(), OperationKind.SPMTTKRP, 0)
        sf = fcoo.start_flags(4)
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
            sf = fcoo.start_flags(threadlen)
            assert bool(sf[0]) is True

    def test_start_flags_all_set_when_threadlen_one_on_distinct_segments(self):
        # One non-zero per slice -> every partition starts a new segment.
        coords = np.array([[i, 0, 0] for i in range(10)])
        tensor = SparseTensor(coords, np.ones(10), (10, 2, 2))
        fcoo = FCOOTensor.from_sparse(tensor, "spmttkrp", 0)
        assert fcoo.start_flags(1).all()

    def test_partition_spans_segments_totals(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        spans = fcoo.partition_spans_segments(8)
        assert spans.shape == (fcoo.num_partitions(8),)
        assert (spans >= 1).all()
        # Total distinct (partition, segment) pairs is at least the number of
        # segments and at most segments + partitions - 1.
        assert fcoo.num_segments <= spans.sum() <= fcoo.num_segments + len(spans)

    def test_invalid_threadlen(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", 2)
        with pytest.raises(ValueError):
            fcoo.start_flags(0)


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

    def test_packed_bit_flags_round_trip(self, small_tensor):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        packed = fcoo.packed_bit_flags()
        unpacked = np.unpackbits(packed)[: fcoo.nnz].astype(bool)
        np.testing.assert_array_equal(unpacked, fcoo.bf)


class TestValidation:
    def test_reencoding_required_for_other_mode(self, small_tensor):
        from repro.kernels.unified.spttm import unified_spttm

        fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", 2)
        with pytest.raises(ValueError, match="encoded for"):
            unified_spttm(fcoo, np.ones((small_tensor.shape[0], 4)), 0)
