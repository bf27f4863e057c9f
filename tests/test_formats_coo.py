"""Tests for repro.formats.coo.COOTensor."""

from unittest import mock

import numpy as np
import pytest

from repro.formats.coo import COOTensor
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor


class TestCOOTensor:
    def test_round_trip(self, small_tensor):
        # Values are stored in device single precision, so compare at float32
        # accuracy.
        coo = COOTensor.from_sparse(small_tensor)
        assert coo.to_sparse().allclose(small_tensor, rtol=1e-6, atol=1e-6)

    def test_round_trip_every_sort_mode(self, small_tensor):
        for mode in range(small_tensor.order):
            coo = COOTensor.from_sparse(small_tensor, sort_mode=mode)
            assert coo.to_sparse().allclose(small_tensor, rtol=1e-6, atol=1e-6)

    def test_sorted_by_sort_mode(self, small_tensor):
        coo = COOTensor.from_sparse(small_tensor, sort_mode=1)
        primary = coo.mode_indices(1)
        assert (np.diff(primary.astype(np.int64)) >= 0).all()

    def test_order_is_sort_mode_then_remaining_modes(self, small_tensor):
        # An unsorted input must come out in ParTI's order all the same.
        rng = np.random.default_rng(0)
        perm = rng.permutation(small_tensor.nnz)
        shuffled = SparseTensor(
            np.asarray(small_tensor.indices)[perm],
            np.asarray(small_tensor.values)[perm],
            small_tensor.shape,
            sum_duplicates=False,
            sort=False,
        )
        for tensor in (small_tensor, shuffled):
            for mode in range(tensor.order):
                coo = COOTensor.from_sparse(tensor, sort_mode=mode)
                rest = [m for m in range(tensor.order) if m != mode]
                expected = tensor.sort_by_modes([mode] + rest)
                for m in range(tensor.order):
                    np.testing.assert_array_equal(
                        coo.mode_indices(m), np.asarray(expected.indices)[:, m]
                    )
                np.testing.assert_array_equal(
                    coo.values, np.asarray(expected.values).astype(np.float32)
                )

    def test_from_sparse_makes_no_sorted_copy(self, small_tensor):
        # Each column is gathered through the tensor's slice order.
        with mock.patch.object(SparseTensor, "sort_by_modes") as resort:
            COOTensor.from_sparse(small_tensor, sort_mode=1)
        resort.assert_not_called()

    def test_storage_bytes_32bit(self, small_tensor):
        coo = COOTensor.from_sparse(small_tensor)
        expected = small_tensor.nnz * (small_tensor.order * 4 + 4)
        assert coo.storage_bytes() == expected

    def test_storage_bytes_64bit(self, small_tensor):
        coo = COOTensor.from_sparse(small_tensor, index_dtype=np.uint64)
        expected = small_tensor.nnz * (small_tensor.order * 8 + 4)
        assert coo.storage_bytes() == expected

    def test_index_dtype_overflow_rejected(self):
        tensor = random_sparse_tensor((70000, 4, 4), 100, seed=0)
        with pytest.raises(ValueError, match="does not fit"):
            COOTensor.from_sparse(tensor, index_dtype=np.uint16)

    def test_empty_tensor(self):
        coo = COOTensor.from_sparse(SparseTensor.empty((3, 4)))
        assert coo.nnz == 0
        assert coo.to_sparse().nnz == 0

    def test_mode_indices_bounds(self, small_tensor):
        coo = COOTensor.from_sparse(small_tensor)
        for mode in range(small_tensor.order):
            idx = coo.mode_indices(mode)
            assert idx.max() < small_tensor.shape[mode]

    def test_values_single_precision(self, small_tensor):
        coo = COOTensor.from_sparse(small_tensor)
        assert coo.values.dtype == np.float32
