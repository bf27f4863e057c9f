"""Tests for the Table II storage-cost model."""

import pytest

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind, mode_roles
from repro.formats.storage_cost import coo_storage_bytes, fcoo_storage_bytes


class TestCOOCost:
    def test_paper_value_third_order(self):
        # Table II: 16 bytes per non-zero for a 3-order tensor.
        assert coo_storage_bytes(1000, 3) == 16 * 1000

    def test_order_dependence(self):
        assert coo_storage_bytes(10, 4) == 10 * (4 * 4 + 4)

    def test_custom_widths(self):
        assert coo_storage_bytes(10, 3, index_bytes=8, value_bytes=8) == 10 * 32


class TestFCOOCost:
    def test_paper_spttm_formula(self):
        # Table II: (8 + 1/8 + 1/(8*threadlen)) * nnz for SpTTM on mode-3.
        nnz, threadlen = 1000, 8
        expected = (8 + 1 / 8 + 1 / (8 * threadlen)) * nnz
        got = fcoo_storage_bytes(nnz, 3, OperationKind.SPTTM, 2, threadlen=threadlen)
        assert got == pytest.approx(expected)

    def test_paper_spmttkrp_formula(self):
        nnz, threadlen = 1000, 16
        expected = (12 + 1 / 8 + 1 / (8 * threadlen)) * nnz
        got = fcoo_storage_bytes(nnz, 3, "spmttkrp", 0, threadlen=threadlen)
        assert got == pytest.approx(expected)

    def test_without_start_flag(self):
        assert fcoo_storage_bytes(800, 3, "spttm", 2) == pytest.approx((8 + 1 / 8) * 800)

    def test_always_cheaper_than_coo(self):
        for op, mode in [("spttm", 2), ("spmttkrp", 0), ("spttmc", 0)]:
            for threadlen in (1, 8, 64):
                fcoo_bytes = fcoo_storage_bytes(500, 3, op, mode, threadlen=threadlen)
                assert fcoo_bytes < coo_storage_bytes(500, 3)

    def test_spmttkrp_per_nnz_against_coo(self):
        nnz = 1000
        fcoo_bytes = fcoo_storage_bytes(nnz, 3, "spmttkrp", 0, threadlen=8)
        assert coo_storage_bytes(nnz, 3) / nnz == pytest.approx(16.0)
        assert fcoo_bytes / nnz == pytest.approx(12 + 1 / 8 + 1 / 64)

    def test_spttm_reduction_close_to_two(self):
        nnz = 10_000
        ratio = coo_storage_bytes(nnz, 3) / fcoo_storage_bytes(nnz, 3, "spttm", 2, threadlen=8)
        assert ratio == pytest.approx(16 / (8 + 1 / 8 + 1 / 64), rel=1e-6)

    def test_model_equals_encoding_when_flags_pack_whole_bytes(self):
        # With nnz a multiple of 8 * threadlen, both flag arrays fill whole
        # bytes, so the per-non-zero model and the encoding's byte count
        # (what admission sizes jobs with) agree exactly.
        for order in (3, 4):
            for op in OperationKind:
                for mode in (0, order - 1):
                    product_modes = len(mode_roles(op, mode, order).product_modes)
                    for threadlen in (1, 8, 64):
                        nnz = 8 * threadlen * 25
                        model = fcoo_storage_bytes(nnz, order, op, mode, threadlen=threadlen)
                        encoded = FCOOTensor.estimate_storage_bytes(
                            nnz, product_modes, threadlen=threadlen
                        )
                        assert model == encoded

    def test_higher_order(self):
        # 4-order SpMTTKRP keeps 3 product-mode index arrays.
        got = fcoo_storage_bytes(100, 4, "spmttkrp", 0)
        assert got == pytest.approx((16 + 1 / 8) * 100)
