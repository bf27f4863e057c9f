"""Tests for the (BLOCK_SIZE, threadlen) auto-tuner."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.kernels.unified.driver as driver
from repro.autotune import tune_unified
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import PCIE3_P2P, ClusterSpec
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import unified_spmttkrp, unified_spttm, unified_spttmc
from repro.tensor.random import random_factors, random_sparse_tensor


@pytest.fixture(scope="module")
def tensor():
    return random_sparse_tensor((40, 300, 30), 15_000, seed=0, distribution="power")


class TestTuner:
    def test_surface_shape(self, tensor):
        result = tune_unified(
            tensor,
            "spmttkrp",
            0,
            rank=8,
            block_sizes=(64, 128),
            threadlens=(8, 16, 32),
        )
        assert result.times.shape == (2, 3)
        assert (result.times > 0).all()

    def test_best_is_minimum(self, tensor):
        result = tune_unified(
            tensor, "spttm", 2, rank=8, block_sizes=(64, 256), threadlens=(8, 64)
        )
        best_bs, best_tl = result.best
        i = result.block_sizes.index(best_bs)
        j = result.threadlens.index(best_tl)
        assert result.times[i, j] == result.best_time
        assert result.best_time == result.times.min()

    def test_deterministic(self, tensor):
        kwargs = dict(rank=4, block_sizes=(64, 128), threadlens=(8, 16))
        a = tune_unified(tensor, "spmttkrp", 0, **kwargs)
        b = tune_unified(tensor, "spmttkrp", 0, **kwargs)
        np.testing.assert_allclose(a.times, b.times)

    def test_operation_enum_accepted(self, tensor):
        result = tune_unified(
            tensor, OperationKind.SPTTM, 2, rank=4, block_sizes=(64,), threadlens=(8,)
        )
        assert result.best == (64, 8)

    def test_render_contains_axes(self, tensor):
        result = tune_unified(
            tensor, "spmttkrp", 0, rank=4, block_sizes=(64, 128), threadlens=(8, 16)
        )
        text = result.render()
        assert "BLOCK_SIZE" in text
        assert "128" in text

    def test_unknown_operation_rejected(self, tensor):
        with pytest.raises(ValueError):
            tune_unified(tensor, "spfoo", 0, rank=4)

    def test_empty_streaming_axes_rejected(self, tensor):
        with pytest.raises(ValueError):
            tune_unified(tensor, "spttm", 2, rank=4, num_streams=())
        with pytest.raises(ValueError):
            tune_unified(tensor, "spttm", 2, rank=4, chunk_sizes=())


class TestSpTTMcTuning:
    def test_spttmc_surface_shape(self, tensor):
        result = tune_unified(
            tensor,
            OperationKind.SPTTMC,
            0,
            rank=3,
            block_sizes=(64, 128),
            threadlens=(8, 16, 32),
        )
        assert result.operation is OperationKind.SPTTMC
        assert result.times.shape == (2, 3)
        assert result.times_full.shape == (2, 3, 1, 1)
        assert (result.times > 0).all()

    def test_spttmc_best_is_minimum(self, tensor):
        result = tune_unified(
            tensor, "spttmc", 0, rank=3, block_sizes=(64, 256), threadlens=(8, 64)
        )
        assert result.best_time == result.times_full.min()
        best_bs, best_tl = result.best
        assert best_bs in result.block_sizes
        assert best_tl in result.threadlens


class TestStreamingAxes:
    def test_full_surface_shape(self, tensor):
        result = tune_unified(
            tensor,
            "spmttkrp",
            0,
            rank=4,
            block_sizes=(64, 128),
            threadlens=(8, 16),
            num_streams=(1, 2, 4),
            chunk_sizes=(None, 2048),
            streamed=True,
        )
        assert result.times_full.shape == (2, 2, 3, 2)
        assert result.times.shape == (2, 2)
        assert (result.times_full > 0).all()

    def test_best_config_covers_streaming_axes(self, tensor):
        result = tune_unified(
            tensor,
            "spmttkrp",
            0,
            rank=4,
            block_sizes=(128,),
            threadlens=(8,),
            num_streams=(1, 2),
            chunk_sizes=(2048,),
            streamed=True,
        )
        bs, tl, ns, cn = result.best_config
        assert (bs, tl, cn) == (128, 8, 2048)
        # Overlapping transfers with compute can only help.
        assert ns == 2
        assert result.times_full[0, 0, 1, 0] <= result.times_full[0, 0, 0, 0]

    def test_infeasible_streaming_cell_recorded_as_inf(self, tensor):
        from repro.gpusim.device import TITAN_X, scaled_device

        tiny = scaled_device(TITAN_X, 5e-7, name_suffix="tiny")
        result = tune_unified(
            tensor,
            "spmttkrp",
            0,
            rank=4,
            device=tiny,
            block_sizes=(128,),
            threadlens=(8,),
            num_streams=(2, 10_000),
            chunk_sizes=(None,),
        )
        # The feasible configuration survives; the absurd one is inf, and
        # best picks the feasible cell instead of the sweep aborting.
        assert np.isfinite(result.times_full[0, 0, 0, 0])
        assert np.isinf(result.times_full[0, 0, 1, 0])
        assert result.best_config[2] == 2

    def test_streamed_surface_reported_in_render(self, tensor):
        result = tune_unified(
            tensor,
            "spttm",
            2,
            rank=4,
            block_sizes=(128,),
            threadlens=(8,),
            num_streams=(1, 2),
            chunk_sizes=(None,),
            streamed=True,
        )
        assert "num_streams" in result.render()


def kernel_seconds(
    tensor, operation, mode, factors, device, *, num_streams, chunk_nnz, n_devices, **launch
):
    """One streamed sweep cell priced through the kernel entry point: ``inf``
    when the configuration does not fit the device."""
    cluster = (
        ClusterSpec.homogeneous(device, n_devices, interconnect=PCIE3_P2P)
        if n_devices > 1
        else None
    )
    ctx = ExecContext(streamed=True, num_streams=num_streams, chunk_nnz=chunk_nnz, cluster=cluster)
    try:
        if operation is OperationKind.SPTTM:
            result = unified_spttm(tensor, factors[mode], mode, device=device, ctx=ctx, **launch)
        elif operation is OperationKind.SPMTTKRP:
            result = unified_spmttkrp(tensor, factors, mode, device=device, ctx=ctx, **launch)
        else:
            result = unified_spttmc(tensor, factors, mode, device=device, ctx=ctx, **launch)
    except OutOfDeviceMemory:
        return np.inf
    return result.estimated_time_s


def forbid_numerics(*args, **kwargs):
    raise AssertionError("the tuner ran the kernel numerics")


class TestModelOnlySweep:
    """The sweep prices every cell with the cost model alone, and each cell
    equals what the kernel itself reports for that configuration."""

    @given(
        dims=st.lists(st.integers(min_value=2, max_value=10), min_size=3, max_size=4),
        nnz=st.integers(min_value=1, max_value=160),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        operation=st.sampled_from(list(OperationKind)),
        mode_pick=st.integers(min_value=0, max_value=3),
        block_sizes=st.lists(st.sampled_from([32, 64, 128]), min_size=1, max_size=2, unique=True),
        threadlens=st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=2, unique=True),
        num_streams=st.lists(st.sampled_from([1, 2, 64]), min_size=1, max_size=2, unique=True),
        chunk_sizes=st.lists(st.sampled_from([None, 8, 24]), min_size=1, max_size=2, unique=True),
        memory_fraction=st.sampled_from([2e-7, 5e-7, 1e-6]),
    )
    def test_cells_equal_kernel_times(
        self,
        dims,
        nnz,
        seed,
        operation,
        mode_pick,
        block_sizes,
        threadlens,
        num_streams,
        chunk_sizes,
        memory_fraction,
    ):
        tensor = random_sparse_tensor(tuple(dims), nnz, seed=seed)
        mode = mode_pick % tensor.order
        rank = 2
        device = scaled_device(TITAN_X, memory_fraction, name_suffix="prop")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(driver, "compute", forbid_numerics)
            result = tune_unified(
                tensor,
                operation,
                mode,
                rank=rank,
                device=device,
                block_sizes=block_sizes,
                threadlens=threadlens,
                num_streams=num_streams,
                chunk_sizes=chunk_sizes,
                device_counts=(1, 2),
                streamed=True,
            )

        factors = random_factors(tensor.shape, rank, seed=0)
        expected = np.empty_like(result.times_grid)
        for index in np.ndindex(*expected.shape):
            i, j, s, c, d = index
            expected[index] = kernel_seconds(
                tensor,
                operation,
                mode,
                factors,
                device,
                num_streams=num_streams[s],
                chunk_nnz=chunk_sizes[c],
                n_devices=(1, 2)[d],
                block_size=block_sizes[i],
                threadlen=threadlens[j],
            )
        assert np.array_equal(result.times_grid, expected)


class TestEncodingInput:
    @pytest.mark.parametrize("operation", list(OperationKind))
    def test_encoding_matches_tensor(self, tensor, operation):
        kwargs = dict(rank=3, block_sizes=(64, 128), threadlens=(8, 16), device_counts=(1, 2))
        encoding = FCOOTensor.from_sparse(tensor, operation, 1)
        from_tensor = tune_unified(tensor, operation, 1, **kwargs)
        from_encoding = tune_unified(encoding, operation, 1, **kwargs)
        assert from_encoding.times_grid.tobytes() == from_tensor.times_grid.tobytes()
        assert (from_encoding.operation, from_encoding.mode) == (operation, 1)

    def test_mismatched_encoding_rejected(self, tensor):
        spttm = FCOOTensor.from_sparse(tensor, "spttm", 2)
        with pytest.raises(ValueError, match="encoded for"):
            tune_unified(spttm, "spmttkrp", 2, rank=4)
        with pytest.raises(ValueError, match="encoded for"):
            tune_unified(spttm, "spttm", 1, rank=4)
