"""Tests for the Tucker/HOOI decomposition built on unified SpTTMc."""

from unittest import mock

import numpy as np
import pytest

import repro.algorithms.tucker as tucker_module
from repro.algorithms.cp import cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.backends import get_backend
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec, NodeFailure
from repro.kernels.unified.driver import compute
from repro.kernels.unified.spttmc import spttmc_operands
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor
from repro.tensor.ops import ttm_dense


@pytest.fixture
def low_multilinear_rank_tensor():
    """A tensor with exact multilinear rank (2, 2, 2)."""
    rng = np.random.default_rng(0)
    core = rng.random((2, 2, 2))
    factors = [np.linalg.qr(rng.standard_normal((s, 2)))[0] for s in (10, 12, 9)]
    dense = core
    for m, f in enumerate(factors):
        # Expand mode m from rank 2 to the full size: G x_m U == ttm with U^T.
        dense = ttm_dense(dense, f.T, m)
    return SparseTensor.from_dense(dense, tol=1e-12)


def _reconstruction_fit(tensor, result):
    """The fit of the densely reconstructed Tucker model."""
    dense = tensor.to_dense()
    approx = result.core
    for m, f in enumerate(result.factors):
        approx = ttm_dense(approx, f.T, m)
    return 1.0 - np.linalg.norm(dense - approx) / np.linalg.norm(dense)


class TestTuckerHOOI:
    def test_fit_improves(self, skewed_tensor):
        result = tucker_hooi(skewed_tensor, (5, 5, 5), max_iterations=4, tolerance=0.0)
        assert len(result.fits) == 4
        assert (np.diff(result.fits) >= -1e-8).all()

    def test_shapes(self, skewed_tensor):
        ranks = (4, 6, 5)
        result = tucker_hooi(skewed_tensor, ranks, max_iterations=2)
        assert result.core.shape == ranks
        for m, f in enumerate(result.factors):
            assert f.shape == (skewed_tensor.shape[m], ranks[m])

    def test_factors_orthonormal(self, skewed_tensor):
        result = tucker_hooi(skewed_tensor, (3, 3, 3), max_iterations=2)
        for f in result.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-8)

    def test_recovers_exact_low_rank(self, low_multilinear_rank_tensor):
        tensor = low_multilinear_rank_tensor
        result = tucker_hooi(tensor, (2, 2, 2), max_iterations=6, tolerance=1e-10)
        assert result.final_fit == pytest.approx(_reconstruction_fit(tensor, result), abs=1e-6)

    def test_reconstruction_matches_fit(self, skewed_tensor):
        result = tucker_hooi(skewed_tensor, (6, 6, 6), max_iterations=3, tolerance=0.0)
        assert result.final_fit == pytest.approx(
            _reconstruction_fit(skewed_tensor, result), abs=1e-6
        )

    def test_timings_recorded(self, skewed_tensor):
        result = tucker_hooi(skewed_tensor, (3, 3, 3), max_iterations=2)
        assert set(result.ttmc_time_by_mode) == {0, 1, 2}
        assert result.total_time_s > 0

    def test_rank_validation(self, skewed_tensor):
        with pytest.raises(ValueError):
            tucker_hooi(skewed_tensor, (100, 3, 3))
        with pytest.raises(ValueError):
            tucker_hooi(skewed_tensor, (3, 3))

    def test_rank_past_the_product_of_the_others_raises_before_any_encode(self):
        # R_n <= prod(R_m for m != n) is what a multilinear rank needs; past
        # it, HOOI's unfolding has too few columns for R_n singular vectors.
        tensor = random_sparse_tensor((2, 3, 500), 300, seed=2)
        with mock.patch.object(FCOOTensor, "from_sparse") as encode:
            with pytest.raises(ValueError, match=r"ranks\[2\]=8 exceeds 6, the product"):
                tucker_hooi(tensor, (2, 3, 8))
        encode.assert_not_called()
        result = tucker_hooi(tensor, (2, 3, 6), max_iterations=2)
        assert result.core.shape == (2, 3, 6)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            tucker_hooi(SparseTensor.empty((4, 4, 4)), (2, 2, 2))


STREAMED = ExecContext(streamed=True, num_streams=4, chunk_nnz=512)


class TestCoreSpTTMcReuse:
    """A sweep's core-step SpTTMc is the next sweep's first: the same
    mode-0 encoding, with factors 1..N-1 unchanged in between."""

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    def test_sweeps_share_the_core_spttmc(self, monkeypatch, order, sweeps):
        tensor = random_sparse_tensor((30, 40, 20, 10)[:order], 800, seed=5)
        modes = []

        def counted(fcoo, *args):
            modes.append(fcoo.mode)
            return compute(fcoo, *args)

        monkeypatch.setattr(tucker_module, "compute", counted)
        result = tucker_hooi(tensor, (3,) * order, max_iterations=sweeps, tolerance=-1.0)
        assert result.iterations == sweeps
        assert len(modes) == order * sweeps + 1
        assert modes == [*range(order), 0] + [*range(1, order), 0] * (sweeps - 1)

    @pytest.mark.parametrize("order", [3, 4])
    def test_reused_spttmc_has_the_bits_of_a_recomputation(self, monkeypatch, order):
        tensor = random_sparse_tensor((30, 40, 20, 10)[:order], 800, seed=5)
        ranks = (3,) * order
        inputs, lefts = [], []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            u, s, vt = svd(a, *args, **kwargs)
            inputs.append(a)
            lefts.append(u)
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", recorded)
        tucker_hooi(tensor, ranks, max_iterations=2, tolerance=-1.0)
        assert len(inputs) == 2 * order
        # Sweep 2's first SVD takes the mode-0 SpTTMc over sweep 1's factors.
        factors = [u[:, :rank] for u, rank in zip(lefts[:order], ranks)]
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, 0)
        recomputed = compute(*spttmc_operands(fcoo, factors, 0), get_backend())
        reused = inputs[order]
        assert reused.shape == recomputed.shape and reused.dtype == recomputed.dtype
        np.testing.assert_array_equal(reused.view(np.uint64), recomputed.view(np.uint64))


class TestTuckerKernelContext:
    """Tucker's SpTTMcs get the context CP's MTTKRPs get."""

    def test_makespan_moves_with_streaming_fields(self, skewed_tensor):
        runs = (
            lambda ctx: cp_als(skewed_tensor, 8, max_iterations=2, ctx=ctx),
            lambda ctx: tucker_hooi(skewed_tensor, (5, 5, 5), max_iterations=2, ctx=ctx),
        )
        for run in runs:
            default, streamed = run(ExecContext()), run(STREAMED)
            assert streamed.makespan_s != default.makespan_s
            # streaming moves modeled time only
            for a, b in zip(default.factors, streamed.factors):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("lose_node", [False, True])
    def test_each_mode_encoded_once_without_cache(self, monkeypatch, order, lose_node):
        tensor = random_sparse_tensor((30, 40, 20, 10)[:order], 800, seed=5)
        cluster = ClusterSpec.homogeneous(num_nodes=2, devices_per_node=2)

        def run(chaos=None):
            ctx = ExecContext(cluster=cluster, chaos=chaos)
            return tucker_hooi(tensor, (3,) * order, max_iterations=2, ctx=ctx)

        clean = run()
        chaos = [NodeFailure(time_s=clean.makespan_s * 0.4, node_index=0)] if lose_node else None
        calls = []
        encode = FCOOTensor.from_sparse.__func__

        def counted(cls, *args, **kwargs):
            calls.append(args[1:])
            return encode(cls, *args, **kwargs)

        monkeypatch.setattr(FCOOTensor, "from_sparse", classmethod(counted))
        result = run(chaos)
        assert len(result.recoveries) == int(lose_node)
        assert len(calls) == order
        assert sorted(mode for _op, mode in calls) == list(range(order))

    def test_value_beyond_float32_raises(self):
        # The float32 cast would make it inf, on which the SVD never returns.
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        values = np.array(tensor.values)
        values[7] = 1e308
        bad = SparseTensor(tensor.indices, values, tensor.shape)
        with pytest.raises(ValueError, match="not finite as float32"):
            tucker_hooi(bad, (3, 3, 3), max_iterations=2)

    @pytest.mark.parametrize("value", [0.0, 1e-46])
    def test_all_zero_values_raise(self, monkeypatch, value):
        # nnz > 0, but the fit divides by the norm of the values the SpTTMcs
        # read, and 1e-46 flushes to zero as an F-COO float32 value.
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        zero = SparseTensor(tensor.indices, np.full(tensor.nnz, value), tensor.shape)
        assert zero.nnz > 0
        modes = []

        def counted(fcoo, *args):
            modes.append(fcoo.mode)
            return compute(fcoo, *args)

        monkeypatch.setattr(tucker_module, "compute", counted)
        with pytest.raises(ValueError, match="fit of an all-zero tensor"):
            tucker_hooi(zero, (3, 3, 3), max_iterations=2)
        assert modes == []
