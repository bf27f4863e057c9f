"""Tests for the Tucker/HOOI decomposition built on unified SpTTMc."""

import numpy as np
import pytest

from repro.algorithms.cp import cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import ClusterSpec, NodeFailure
from repro.serve.cache import PreprocCache
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
        result = tucker_hooi(
            low_multilinear_rank_tensor, (2, 2, 2), max_iterations=6, tolerance=1e-10
        )
        # The kernels store values in device single precision, so the recovered
        # fit is exact only to float32 accuracy.
        assert result.final_fit == pytest.approx(1.0, abs=1e-3)

    def test_reconstruction_matches_fit(self, skewed_tensor):
        ranks = (6, 6, 6)
        result = tucker_hooi(skewed_tensor, ranks, max_iterations=3, tolerance=0.0)
        dense = skewed_tensor.to_dense()
        approx = result.core
        for m, f in enumerate(result.factors):
            approx = ttm_dense(approx, f.T, m)
        fit = 1.0 - np.linalg.norm(dense - approx) / np.linalg.norm(dense)
        assert fit == pytest.approx(result.final_fit, abs=1e-6)

    def test_timings_recorded(self, skewed_tensor):
        result = tucker_hooi(skewed_tensor, (3, 3, 3), max_iterations=2)
        assert set(result.ttmc_time_by_mode) == {0, 1, 2}
        assert result.total_time_s > 0

    def test_rank_validation(self, skewed_tensor):
        with pytest.raises(ValueError):
            tucker_hooi(skewed_tensor, (100, 3, 3))
        with pytest.raises(ValueError):
            tucker_hooi(skewed_tensor, (3, 3))

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            tucker_hooi(SparseTensor.empty((4, 4, 4)), (2, 2, 2))


STREAMED = ExecContext(streamed=True, num_streams=4, chunk_nnz=512)


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

    def test_cached_run_looks_up_each_mode_once(self, skewed_tensor):
        cache = PreprocCache()
        ctx = ExecContext(preproc_cache=cache)
        tucker_hooi(skewed_tensor, (5, 5, 5), max_iterations=2, tolerance=0.0, ctx=ctx)
        # One lookup (a miss) per mode; both passes reuse the encodings.
        assert (cache.stats.encode_misses, cache.stats.encode_hits) == (3, 0)

    def test_value_beyond_float32_raises(self):
        # The float32 cast would make it inf, on which the SVD never returns.
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        values = np.array(tensor.values)
        values[7] = 1e308
        bad = SparseTensor(tensor.indices, values, tensor.shape)
        with pytest.raises(ValueError, match="not finite as float32"):
            tucker_hooi(bad, (3, 3, 3), max_iterations=2)
