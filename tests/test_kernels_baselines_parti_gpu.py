"""Tests for the ParTI-GPU baseline kernels."""

from unittest import mock

import numpy as np
import pytest

from repro.formats.coo import COOTensor
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.baselines.parti_gpu import parti_gpu_spmttkrp, parti_gpu_spttm
from repro.kernels.unified import unified_spmttkrp, unified_spttm
from repro.tensor.ops import mttkrp_dense, ttm_dense
from repro.tensor.random import random_factors, random_sparse_tensor


class TestSpTTMCorrectness:
    def test_matches_dense_every_mode(self, small_tensor, small_factors):
        dense = small_tensor.to_dense()
        for mode in range(3):
            result = parti_gpu_spttm(small_tensor, small_factors[mode], mode)
            np.testing.assert_allclose(
                result.output.to_dense(), ttm_dense(dense, small_factors[mode], mode), atol=1e-10
            )

    def test_same_result_as_unified(self, skewed_tensor):
        u = random_factors(skewed_tensor.shape, 8, seed=0)[1]
        a = parti_gpu_spttm(skewed_tensor, u, 1).output
        b = unified_spttm(skewed_tensor, u, 1).output
        assert a.allclose(b, rtol=1e-5, atol=1e-6)


class TestSpTTMProfile:
    def test_load_imbalance_on_skewed_fibers(self, skewed_tensor):
        u = random_factors(skewed_tensor.shape, 8, seed=1)[2]
        result = parti_gpu_spttm(skewed_tensor, u, 2)
        assert result.profile.counters.imbalance_factor > 1.0

    def test_parallelism_limited_by_fiber_count(self):
        # A mode with very few fibers exposes very little parallelism.
        tensor = random_sparse_tensor((20, 1500, 6), 30_000, seed=2)
        rank = 16
        u1 = random_factors(tensor.shape, rank, seed=3)[1]
        few_fibers_mode = 1  # fibers are indexed by (i, k): only 120 of them
        result = parti_gpu_spttm(tensor, u1, few_fibers_mode)
        assert result.profile.counters.active_threads <= tensor.num_fibers(1) * rank

    def test_mode_sensitivity_larger_than_unified(self):
        """Figure 7a: ParTI's per-mode variation exceeds the unified kernel's."""
        tensor = random_sparse_tensor((20, 1500, 6), 30_000, seed=4)
        factors = random_factors(tensor.shape, 16, seed=5)
        parti_times = [
            parti_gpu_spttm(tensor, factors[m], m).estimated_time_s for m in range(3)
        ]
        unified_times = [
            unified_spttm(tensor, factors[m], m).estimated_time_s for m in range(3)
        ]
        parti_variation = max(parti_times) / min(parti_times)
        unified_variation = max(unified_times) / min(unified_times)
        assert parti_variation > unified_variation

    def test_rank_divergence_penalty_grows(self, skewed_tensor):
        u8 = random_factors(skewed_tensor.shape, 8, seed=6)[2]
        u64 = random_factors(skewed_tensor.shape, 64, seed=6)[2]
        t8 = parti_gpu_spttm(skewed_tensor, u8, 2)
        t64 = parti_gpu_spttm(skewed_tensor, u64, 2)
        assert (
            t64.profile.counters.imbalance_factor > t8.profile.counters.imbalance_factor
        )

    def test_footprint_is_coo_matrix_and_output(self, skewed_tensor):
        rank = 8
        factors = random_factors(skewed_tensor.shape, rank, seed=7)
        for mode in range(skewed_tensor.order):
            result = parti_gpu_spttm(skewed_tensor, factors[mode], mode)
            coo = COOTensor.from_sparse(skewed_tensor, sort_mode=mode)
            matrix = skewed_tensor.shape[mode] * rank * 4
            expected = coo.storage_bytes() + matrix + result.output.storage_bytes()
            assert result.profile.device_memory_bytes == expected


class TestSpMTTKRPCorrectness:
    def test_matches_dense_every_mode(self, small_tensor, small_factors):
        dense = small_tensor.to_dense()
        for mode in range(3):
            result = parti_gpu_spmttkrp(small_tensor, small_factors, mode)
            np.testing.assert_allclose(
                result.output, mttkrp_dense(dense, small_factors, mode), atol=1e-10
            )

    def test_fourth_order(self, fourth_order_tensor):
        rng = np.random.default_rng(0)
        factors = [rng.random((s, 3)) for s in fourth_order_tensor.shape]
        dense = fourth_order_tensor.to_dense()
        for mode in range(4):
            result = parti_gpu_spmttkrp(fourth_order_tensor, factors, mode)
            np.testing.assert_allclose(
                result.output, mttkrp_dense(dense, factors, mode), atol=1e-10
            )

    def test_same_result_as_unified(self, skewed_tensor):
        factors = random_factors(skewed_tensor.shape, 4, seed=1)
        a = parti_gpu_spmttkrp(skewed_tensor, factors, 0).output
        b = unified_spmttkrp(skewed_tensor, factors, 0).output
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)


class TestSpMTTKRPProfile:
    def test_issues_atomics_per_nonzero(self, skewed_tensor):
        rank = 8
        factors = random_factors(skewed_tensor.shape, rank, seed=2)
        result = parti_gpu_spmttkrp(skewed_tensor, factors, 0)
        assert result.profile.counters.atomic_ops >= skewed_tensor.nnz * rank

    def test_two_kernel_launches(self, skewed_tensor):
        factors = random_factors(skewed_tensor.shape, 4, seed=3)
        result = parti_gpu_spmttkrp(skewed_tensor, factors, 0)
        assert result.profile.counters.kernel_launches == 2

    def test_footprint_includes_intermediate(self, skewed_tensor):
        factors = random_factors(skewed_tensor.shape, 8, seed=4)
        parti = parti_gpu_spmttkrp(skewed_tensor, factors, 0)
        unified = unified_spmttkrp(skewed_tensor, factors, 0)
        assert parti.profile.device_memory_bytes > unified.profile.device_memory_bytes

    def test_footprint_counts_64_bit_coo(self, skewed_tensor):
        """COO with 64-bit indices, the product-mode factors, the
        semi-sparse intermediate (one rank-wide fiber per non-empty fiber of
        the last product mode, with 64-bit coordinates) and the output."""
        rank = 8
        factors = random_factors(skewed_tensor.shape, rank, seed=4)
        shape = skewed_tensor.shape
        for mode, last_product in [(0, 2), (2, 1)]:
            footprint = parti_gpu_spmttkrp(skewed_tensor, factors, mode).profile.device_memory_bytes
            coo = COOTensor.from_sparse(skewed_tensor, sort_mode=mode, index_dtype=np.uint64)
            dense = sum(shape) * rank * 4
            semi = skewed_tensor.num_fibers(last_product) * (rank * 4 + 2 * 8)
            assert footprint == coo.storage_bytes() + dense + semi

    def test_footprints_build_no_coo_copy(self, skewed_tensor):
        # The COO bytes are counted from nnz and order, not from a sorted
        # 64-bit copy of the tensor.
        factors = random_factors(skewed_tensor.shape, 8, seed=4)
        with mock.patch.object(COOTensor, "from_sparse") as build:
            parti_gpu_spttm(skewed_tensor, factors[1], 1)
            parti_gpu_spmttkrp(skewed_tensor, factors, 0)
        build.assert_not_called()

    def test_out_of_memory_on_small_device(self, skewed_tensor):
        factors = random_factors(skewed_tensor.shape, 8, seed=5)
        tiny_device = scaled_device(TITAN_X, 1e-8)
        with pytest.raises(OutOfDeviceMemory):
            parti_gpu_spmttkrp(skewed_tensor, factors, 0, device=tiny_device)

    def test_slower_than_unified(self, skewed_tensor):
        """The paper's headline claim for SpMTTKRP."""
        factors = random_factors(skewed_tensor.shape, 16, seed=6)
        parti = parti_gpu_spmttkrp(skewed_tensor, factors, 0)
        unified = unified_spmttkrp(skewed_tensor, factors, 0)
        assert unified.estimated_time_s < parti.estimated_time_s
