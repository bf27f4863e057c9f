"""Tests for the (BLOCK_SIZE, threadlen) auto-tuner."""

import inspect

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.kernels.unified.driver as driver
from repro.autotune import DEFAULT_BLOCK_SIZES, DEFAULT_THREADLENS, tune_unified
from repro.context import ExecContext
from repro.formats.fcoo import FCOOChunk, FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import (
    operation_spec,
    unified_spmttkrp,
    unified_spttm,
    unified_spttmc,
)
from repro.serve.cache import SERVING_BLOCK_SIZES, SERVING_THREADLENS
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

    def test_default_axes_are_the_figure5_sweep(self, tensor):
        result = tune_unified(tensor, "spttm", 2, rank=4)
        assert result.block_sizes == DEFAULT_BLOCK_SIZES
        assert result.threadlens == DEFAULT_THREADLENS
        assert result.times.shape == (6, 5)
        assert np.isfinite(result.times).all()

    def test_signature_sweeps_only_the_two_launch_axes(self):
        assert list(inspect.signature(tune_unified).parameters) == [
            "tensor",
            "operation",
            "mode",
            "rank",
            "device",
            "block_sizes",
            "threadlens",
        ]


class TestDefaultContextCells:
    """Each cell is what the kernel's default context runs: one-shot when
    the tensor fits, the streamed fallback when it does not, ``inf`` when
    not even that fits."""

    @pytest.fixture(scope="class")
    def small(self):
        return random_sparse_tensor((20, 20, 20), 300, seed=5)

    def sweep(self, small, fraction):
        return tune_unified(
            small,
            "spmttkrp",
            0,
            rank=8,
            device=scaled_device(TITAN_X, fraction, name_suffix="tiny"),
            block_sizes=(64, 128, 256),
            threadlens=(8, 16, 32),
        )

    def kernel(self, small, fraction, ctx, threadlen):
        factors = random_factors(small.shape, 8, seed=0)
        device = scaled_device(TITAN_X, fraction, name_suffix="tiny")
        return unified_spmttkrp(
            small, factors, 0, device=device, ctx=ctx, block_size=128, threadlen=threadlen
        ).estimated_time_s

    def test_tensor_that_fits_is_priced_one_shot(self, small):
        result = self.sweep(small, 5e-7)
        for j, threadlen in enumerate(result.threadlens):
            one_shot = self.kernel(small, 5e-7, ExecContext(streamed=False), threadlen)
            assert result.times[1, j] == one_shot
            assert one_shot < self.kernel(small, 5e-7, ExecContext(streamed=True), threadlen)

    def test_tensor_over_device_memory_is_priced_streamed(self, small):
        result = self.sweep(small, 3e-7)
        assert np.isfinite(result.times).all()
        for j, threadlen in enumerate(result.threadlens):
            with pytest.raises(OutOfDeviceMemory):
                self.kernel(small, 3e-7, ExecContext(streamed=False), threadlen)
            streamed = self.kernel(small, 3e-7, ExecContext(streamed=True), threadlen)
            assert result.times[1, j] == streamed

    def test_infeasible_cells_are_inf_and_best_skips_them(self, small):
        result = self.sweep(small, 2e-7)
        # threadlen 32 does not fit even streamed; 8 and 16 stream.
        assert np.isinf(result.times[:, 2]).all()
        assert np.isfinite(result.times[:, :2]).all()
        assert result.best[1] != 32
        assert np.isfinite(result.best_time)
        assert "inf" in result.render()

    def test_sweep_with_no_feasible_cell_is_all_inf(self, small):
        result = self.sweep(small, 1e-7)
        assert np.isinf(result.times).all()
        assert result.best_time == np.inf


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
        assert (result.times > 0).all()

    def test_spttmc_best_is_minimum(self, tensor):
        result = tune_unified(
            tensor, "spttmc", 0, rank=3, block_sizes=(64, 256), threadlens=(8, 64)
        )
        assert result.best_time == result.times.min()
        best_bs, best_tl = result.best
        assert best_bs in result.block_sizes
        assert best_tl in result.threadlens


def kernel_seconds(tensor, operation, mode, factors, device, **launch):
    """One sweep cell priced through the kernel entry point with its default
    context: ``inf`` when the configuration does not fit the device."""
    try:
        if operation is OperationKind.SPTTM:
            result = unified_spttm(tensor, factors[mode], mode, device=device, **launch)
        elif operation is OperationKind.SPMTTKRP:
            result = unified_spmttkrp(tensor, factors, mode, device=device, **launch)
        else:
            result = unified_spttmc(tensor, factors, mode, device=device, **launch)
    except OutOfDeviceMemory:
        return np.inf
    return result.estimated_time_s


def forbid_numerics(*args, **kwargs):
    raise AssertionError("the tuner ran the kernel numerics")


class TestModelOnlySweep:
    """The sweep prices every cell with the cost model alone, and each cell
    equals what the kernel itself reports for that configuration.  The tiny
    devices make cells run one-shot, fall back to the streamed path, or not
    fit at all; the pinned example has streamed cells next to ``inf`` ones."""

    @given(
        dims=st.lists(st.integers(min_value=2, max_value=10), min_size=3, max_size=4),
        nnz=st.integers(min_value=1, max_value=160),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        operation=st.sampled_from(list(OperationKind)),
        mode_pick=st.integers(min_value=0, max_value=3),
        block_sizes=st.lists(st.sampled_from([32, 64, 128]), min_size=1, max_size=2, unique=True),
        threadlens=st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=2, unique=True),
        memory_fraction=st.sampled_from([5e-8, 1e-7, 2e-7, 1e-6]),
    )
    @example(
        dims=[5, 5, 7],
        nnz=94,
        seed=73,
        operation=OperationKind.SPTTM,
        mode_pick=0,
        block_sizes=[32, 128],
        threadlens=[2, 8],
        memory_fraction=5e-8,
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
            )

        factors = random_factors(tensor.shape, rank, seed=0)
        expected = np.empty_like(result.times)
        for i, j in np.ndindex(*expected.shape):
            expected[i, j] = kernel_seconds(
                tensor,
                operation,
                mode,
                factors,
                device,
                block_size=block_sizes[i],
                threadlen=threadlens[j],
            )
        assert np.array_equal(result.times, expected)


class TestEncodingInput:
    @pytest.mark.parametrize("operation", list(OperationKind))
    def test_encoding_matches_tensor(self, tensor, operation):
        kwargs = dict(rank=3, block_sizes=(64, 128), threadlens=(8, 16))
        encoding = FCOOTensor.from_sparse(tensor, operation, 1)
        from_tensor = tune_unified(tensor, operation, 1, **kwargs)
        from_encoding = tune_unified(encoding, operation, 1, **kwargs)
        assert from_encoding.times.tobytes() == from_tensor.times.tobytes()
        assert (from_encoding.operation, from_encoding.mode) == (operation, 1)

    def test_mismatched_encoding_rejected(self, tensor):
        spttm = FCOOTensor.from_sparse(tensor, "spttm", 2)
        with pytest.raises(ValueError, match="encoded for"):
            tune_unified(spttm, "spmttkrp", 2, rank=4)
        with pytest.raises(ValueError, match="encoded for"):
            tune_unified(spttm, "spttm", 1, rank=4)


def fresh_model_times(fcoo, rank, device, block_sizes, threadlens):
    """Each cell priced by its own :func:`driver.model` call, under the
    kernel's default context: ``inf`` when it does not fit the device."""
    op = operation_spec(fcoo, fcoo.operation, rank)
    times = np.empty((len(block_sizes), len(threadlens)), dtype=np.float64)
    for i, block_size in enumerate(block_sizes):
        for j, threadlen in enumerate(threadlens):
            try:
                profile = driver.model(
                    fcoo, op, device=device, block_size=block_size, threadlen=threadlen
                )
            except OutOfDeviceMemory:
                times[i, j] = np.inf
            else:
                times[i, j] = profile.estimated_time_s
    return times


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


KERNEL_MODES = [
    (OperationKind.SPTTM, 2),
    (OperationKind.SPMTTKRP, 0),
    (OperationKind.SPTTMC, 0),
]


class TestOnePricingPerSweep:
    """A sweep is one :class:`driver.Pricing` and one launch per cell: every
    cell equals a fresh :func:`driver.model` call bit for bit, and the
    launch-invariant terms are derived once per sweep."""

    @pytest.fixture(scope="class")
    def small(self):
        return random_sparse_tensor((20, 20, 20), 300, seed=5)

    @staticmethod
    def device_for(fcoo, path):
        """TITAN_X, or a device that holds the dense operands plus room for
        every sweep cell's chunk buffers (``streamed``) or only the smaller
        threadlens' (``inf``)."""
        if path == "one-shot":
            return TITAN_X
        op = operation_spec(fcoo, fcoo.operation, 8)
        stream_bytes = fcoo.storage_bytes(max(DEFAULT_THREADLENS))
        spare = 0.6 * stream_bytes if path == "streamed" else 40 * stream_bytes / fcoo.nnz
        fraction = (op.resident_bytes + spare) / TITAN_X.global_mem_bytes
        return scaled_device(TITAN_X, fraction, name_suffix=path)

    @pytest.mark.parametrize("operation, mode", KERNEL_MODES)
    @pytest.mark.parametrize("path", ["one-shot", "streamed", "inf"])
    def test_cells_equal_fresh_model_calls(self, small, operation, mode, path):
        fcoo = FCOOTensor.from_sparse(small, operation, mode)
        device = self.device_for(fcoo, path)
        result = tune_unified(fcoo, operation, mode, rank=8, device=device)
        expected = fresh_model_times(
            fcoo, 8, device, DEFAULT_BLOCK_SIZES, DEFAULT_THREADLENS
        )
        assert same_bits(result.times, expected)
        streamed = driver.model(
            fcoo, operation_spec(fcoo, operation, 8), device=device, threadlen=8
        ).streaming
        assert (streamed is None) == (path == "one-shot")
        assert np.isinf(result.times).any() == (path == "inf")
        assert np.isfinite(result.times).any()

    @given(
        dims=st.lists(st.integers(min_value=2, max_value=12), min_size=3, max_size=4),
        nnz=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        operation=st.sampled_from(list(OperationKind)),
        mode_pick=st.integers(min_value=0, max_value=3),
        rank=st.integers(min_value=1, max_value=4),
        threadlens=st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3, unique=True),
        memory_fraction=st.sampled_from([5e-8, 1e-7, 2e-7, 1e-6, 1.0]),
    )
    def test_random_cells_equal_fresh_model_calls(
        self, dims, nnz, seed, operation, mode_pick, rank, threadlens, memory_fraction
    ):
        tensor = random_sparse_tensor(tuple(dims), nnz, seed=seed)
        fcoo = FCOOTensor.from_sparse(tensor, operation, mode_pick % tensor.order)
        device = scaled_device(TITAN_X, memory_fraction, name_suffix="prop")
        block_sizes = (32, 128)
        result = tune_unified(
            fcoo,
            operation,
            fcoo.mode,
            rank=rank,
            device=device,
            block_sizes=block_sizes,
            threadlens=threadlens,
        )
        expected = fresh_model_times(fcoo, rank, device, block_sizes, threadlens)
        assert same_bits(result.times, expected)

    @staticmethod
    def spy_on_counts(monkeypatch):
        """Record the length of every stream whose distinct rows the
        pricing counts."""
        counted = []
        count = driver.count_distinct_rows

        def spy(rows):
            counted.append(rows.size)
            return count(rows)

        monkeypatch.setattr(driver, "count_distinct_rows", spy)
        return counted

    @pytest.mark.parametrize("operation, mode", KERNEL_MODES)
    def test_serving_sweep_counts_each_product_mode_once(
        self, small, operation, mode, monkeypatch
    ):
        fcoo = FCOOTensor.from_sparse(small, operation, mode)
        counted = self.spy_on_counts(monkeypatch)
        result = tune_unified(
            fcoo,
            operation,
            mode,
            rank=8,
            block_sizes=SERVING_BLOCK_SIZES,
            threadlens=SERVING_THREADLENS,
        )
        assert result.times.size == 9 and np.isfinite(result.times).all()
        assert counted == [fcoo.nnz] * len(fcoo.roles.product_modes)

    @pytest.mark.parametrize("operation, mode", KERNEL_MODES)
    def test_streamed_sweep_counts_once_per_distinct_chunk_span(
        self, small, operation, mode, monkeypatch
    ):
        fcoo = FCOOTensor.from_sparse(small, operation, mode)
        device = self.device_for(fcoo, "streamed")
        spans = set()
        op = operation_spec(fcoo, operation, 8)
        for block_size in DEFAULT_BLOCK_SIZES:
            for threadlen in DEFAULT_THREADLENS:
                profile = driver.model(
                    fcoo, op, device=device, block_size=block_size, threadlen=threadlen
                )
                spans.update((c.start, c.stop) for c in profile.streaming.chunks)
        assert len(spans) > len(DEFAULT_THREADLENS)

        counted = self.spy_on_counts(monkeypatch)
        tune_unified(fcoo, operation, mode, rank=8, device=device)
        per_span = len(fcoo.roles.product_modes)
        assert sorted(counted) == sorted(
            stop - start for start, stop in spans for _ in range(per_span)
        )

    @staticmethod
    def spy_on_chunkings(monkeypatch):
        """Record ``(source_start, nnz, threadlen)`` of every span the
        streamed path chunks."""
        chunked = []
        chunk = FCOOChunk.chunk

        def spy(span, chunk_nnz, *, threadlen=1):
            chunked.append((span.source_start, span.nnz, threadlen))
            return chunk(span, chunk_nnz, threadlen=threadlen)

        monkeypatch.setattr(FCOOChunk, "chunk", spy)
        return chunked

    @pytest.mark.parametrize("operation, mode", KERNEL_MODES)
    def test_streamed_sweep_chunks_once_per_threadlen(self, small, operation, mode, monkeypatch):
        fcoo = FCOOTensor.from_sparse(small, operation, mode)
        device = self.device_for(fcoo, "streamed")
        chunked = self.spy_on_chunkings(monkeypatch)
        result = tune_unified(fcoo, operation, mode, rank=8, device=device)
        assert np.isfinite(result.times).all()
        assert sorted(chunked) == [(0, fcoo.nnz, t) for t in sorted(DEFAULT_THREADLENS)]

    def test_sharded_streamed_cells_chunk_each_shard_once_per_threadlen(self, small, monkeypatch):
        fcoo = FCOOTensor.from_sparse(small, OperationKind.SPMTTKRP, 0)
        op = operation_spec(fcoo, fcoo.operation, 8)
        ctx = ExecContext(
            cluster=ClusterSpec.homogeneous(TITAN_X, 2), streamed=True, chunk_nnz=48
        )
        expected = {
            (block_size, threadlen): driver.model(
                fcoo, op, device=TITAN_X, block_size=block_size, threadlen=threadlen, ctx=ctx
            )
            for block_size in SERVING_BLOCK_SIZES
            for threadlen in SERVING_THREADLENS
        }
        chunked = self.spy_on_chunkings(monkeypatch)
        pricing = driver.Pricing(fcoo, op, device=TITAN_X, ctx=ctx)
        for (block_size, threadlen), fresh in expected.items():
            profile = pricing.launch(block_size=block_size, threadlen=threadlen)
            assert same_bits(
                np.array([profile.estimated_time_s]), np.array([fresh.estimated_time_s])
            )
        assert len(chunked) == len(set(chunked)) >= 2 * len(SERVING_THREADLENS)
        assert {threadlen for *_span, threadlen in chunked} == set(SERVING_THREADLENS)
