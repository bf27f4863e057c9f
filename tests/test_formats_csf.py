"""Tests for repro.formats.csf.CSFTensor (SPLATT's fiber tree)."""

import numpy as np
import pytest

from repro.formats.csf import CSFTensor
from repro.tensor.sparse import SparseTensor


class TestCSFConstruction:
    def test_round_trip_natural_order(self, small_tensor):
        csf = CSFTensor.from_sparse(small_tensor, (0, 1, 2))
        assert csf.to_sparse().allclose(small_tensor)

    def test_round_trip_all_orderings(self, small_tensor):
        import itertools

        for order in itertools.permutations(range(3)):
            csf = CSFTensor.from_sparse(small_tensor, order)
            assert csf.to_sparse().allclose(small_tensor)

    def test_round_trip_fourth_order(self, fourth_order_tensor):
        csf = CSFTensor.from_sparse(fourth_order_tensor, (3, 1, 0, 2))
        assert csf.to_sparse().allclose(fourth_order_tensor)

    def test_invalid_mode_order(self, small_tensor):
        with pytest.raises(ValueError):
            CSFTensor.from_sparse(small_tensor, (0, 0, 1))

    def test_empty_tensor(self):
        csf = CSFTensor.from_sparse(SparseTensor.empty((3, 4, 5)), (0, 1, 2))
        assert csf.nnz == 0
        assert csf.to_sparse().nnz == 0


def figure2_tensor():
    """The 12-non-zero tensor of the paper's Figure 2."""
    coords = [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4),
        (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3),
        (1, 1, 0), (1, 1, 1), (1, 1, 2),
    ]
    return SparseTensor(np.array(coords), np.arange(1.0, 13.0), (2, 2, 5))


class TestCSFStructure:
    def test_level_sizes(self):
        # Figure 2 tensor: 2 slices, 3 fibers, 12 leaves under ordering (0,1,2).
        csf = CSFTensor.from_sparse(figure2_tensor(), (0, 1, 2))
        assert csf.level_size(0) == 2
        assert csf.level_size(1) == 3
        assert csf.level_size(2) == 12

    def test_leaf_level_equals_nnz(self, small_tensor):
        csf = CSFTensor.from_sparse(small_tensor, (0, 1, 2))
        assert csf.level_size(small_tensor.order - 1) == small_tensor.nnz

    def test_level_sizes_monotone(self, skewed_tensor):
        csf = CSFTensor.from_sparse(skewed_tensor, (0, 1, 2))
        sizes = [csf.level_size(l) for l in range(3)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_root_level_counts_slices(self, small_tensor):
        for root in range(3):
            order = (root,) + tuple(m for m in range(3) if m != root)
            csf = CSFTensor.from_sparse(small_tensor, order)
            assert csf.level_size(0) == small_tensor.num_slices(root)

    def test_children_ranges_cover_next_level(self, small_tensor):
        csf = CSFTensor.from_sparse(small_tensor, (0, 1, 2))
        for level in range(2):
            ptr = csf.fptr[level]
            assert ptr[0] == 0
            assert ptr[-1] == csf.level_size(level + 1)
            assert (np.diff(ptr) >= 1).all()

    def test_children_accessor(self, small_tensor):
        csf = CSFTensor.from_sparse(small_tensor, (0, 1, 2))
        start, stop = csf.children(0, 0)
        assert stop > start

    def test_children_out_of_range(self, small_tensor):
        csf = CSFTensor.from_sparse(small_tensor, (0, 1, 2))
        with pytest.raises(ValueError):
            csf.children(2, 0)
        with pytest.raises(ValueError):
            csf.children(0, 10**6)

    def test_storage_bytes_positive_and_sensible(self, small_tensor):
        csf = CSFTensor.from_sparse(small_tensor, (0, 1, 2))
        total = csf.storage_bytes()
        # At least values + leaf indices.
        assert total >= small_tensor.nnz * 8
        # CSF compresses repeated upper-level indices vs COO.
        coo_bytes = small_tensor.nnz * (3 * 4 + 4)
        assert total <= coo_bytes + 3 * 4 * small_tensor.nnz

    def test_storage_bytes_counts_every_level(self):
        # Figure 2 tensor under (0, 1, 2): fids (2+3+12), fptr (3+4), 12 values.
        csf = CSFTensor.from_sparse(figure2_tensor(), (0, 1, 2))
        assert csf.storage_bytes() == (2 + 3 + 12) * 4 + (3 + 4) * 4 + 12 * 4
        assert csf.storage_bytes(index_bytes=8) == (2 + 3 + 12) * 8 + (3 + 4) * 8 + 12 * 4
        assert csf.storage_bytes(value_bytes=8) == (2 + 3 + 12) * 4 + (3 + 4) * 4 + 12 * 8
        # An empty tree keeps one sentinel per pointer array.
        empty = CSFTensor.from_sparse(SparseTensor.empty((3, 4, 5)), (0, 1, 2))
        assert empty.storage_bytes() == 2 * 4
