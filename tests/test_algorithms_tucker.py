"""Tests for the Tucker/HOOI decomposition built on unified SpTTMc."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cp import cp_als
from repro.algorithms.tucker import hooi_numeric_pass, tucker_hooi
from repro.backends import get_backend
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec, NodeFailure
from repro.kernels.unified.driver import compute
from repro.kernels.unified.spttmc import spttmc_operands
from repro.tensor.dense import fold_dense
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor
from repro.tensor.ops import ttm_dense
from repro.util.rng import as_rng


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


def reconstruction(core, factors):
    """The dense Tucker model ``G ×_0 U_0 ×_1 U_1 ···``."""
    approx = core
    for m, f in enumerate(factors):
        approx = ttm_dense(approx, f.T, m)
    return approx


def _reconstruction_fit(tensor, result):
    """The fit of the densely reconstructed Tucker model."""
    dense = tensor.to_dense()
    approx = reconstruction(result.core, result.factors)
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


def spy_backend():
    """The active backend, recording ``(stream length, values ndim,
    segments)`` of every Kronecker sum, and any Hadamard sum by name."""

    class Spy(type(get_backend())):
        def __init__(self):
            self.calls = []

        def kron_segment_sums(self, values, mats, rows, segment_ids, num_segments):
            self.calls.append((len(values), np.ndim(values), num_segments))
            return super().kron_segment_sums(values, mats, rows, segment_ids, num_segments)

        def hadamard_segment_sums(self, *args):
            self.calls.append("hadamard_segment_sums")
            return super().hadamard_segment_sums(*args)

    return Spy()


def halves(order):
    """The dimension tree's front modes ``0 .. ceil(N/2) - 1`` and back modes."""
    front = list(range((order + 1) // 2))
    return front, list(range(len(front), order))


def tree_y(tensor, factors, mode, backend):
    """The mode's ``Y`` by the dimension tree's definition, from scratch.

    The non-zeros are ordered by a raw lexsort, the mode's half first and
    then the other modes ascending; the other half's factors are summed
    into each fiber of the half (``np.unique`` numbers them); the fibers
    are sorted stably by the mode, and the mode's ``Y`` is their Kronecker
    sum with the half's other factors, one segment per index of the mode,
    its columns put in unfolding order.  A one-mode half's sum has one
    fiber a segment, which the tree copies instead.
    """
    front, back = halves(tensor.order)
    half, other = (front, back) if mode in front else (back, front)
    indices = np.asarray(tensor.indices)
    stream = np.lexsort([indices[:, m] for m in reversed(half + other)])
    values = np.asarray(tensor.values).astype(np.float32)[stream]
    fiber_keys, fiber_ids = np.unique(indices[stream][:, half], axis=0, return_inverse=True)
    fibers = backend.kron_segment_sums(
        values,
        [factors[m] for m in other],
        [indices[stream, m] for m in other],
        fiber_ids.ravel(),
        len(fiber_keys),
    )
    position = half.index(mode)
    perm = np.argsort(fiber_keys[:, position], kind="stable")
    rest = [p for p in range(len(half)) if p != position]
    size = tensor.shape[mode]
    y = backend.kron_segment_sums(
        fibers[perm],
        [factors[half[p]] for p in rest],
        [fiber_keys[perm, p] for p in rest],
        fiber_keys[perm, position],
        size,
    )
    if other[0] < mode:
        y = y.reshape(size, fibers.shape[1], -1).transpose(0, 2, 1).reshape(size, -1)
    return y


def per_mode_hooi(tensor, ranks, *, max_iterations, seed=0, backend=None):
    """HOOI's loop before the dimension tree, kept as the tree's oracle up
    to association: one SpTTMc per mode a sweep, and the core from a final
    mode-0 SpTTMc that is also the next sweep's first.  Returns the core,
    the factors and the fits; every sweep runs."""
    encodings = [
        FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, m) for m in range(tensor.order)
    ]
    x_norm = encodings[0].norm()
    backend_impl = get_backend(backend)
    order = tensor.order
    rng = as_rng(seed)
    factors = []
    for m in range(order):
        q, _ = np.linalg.qr(rng.standard_normal((tensor.shape[m], ranks[m])))
        factors.append(q[:, : ranks[m]])
    fits = []
    core_y = None
    for _sweep in range(max_iterations):
        for step, mode in enumerate([*range(order), 0]):
            if step == 0 and core_y is not None:
                y = core_y
            else:
                y = compute(*spttmc_operands(encodings[mode], factors, mode), backend_impl)
            if step < order:
                u, _s, _vt = np.linalg.svd(y, full_matrices=False)
                factors[mode] = u[:, : ranks[mode]]
            else:
                core_unfolded = backend_impl.matmul(factors[0].T, y)
                core_y = y
        core_norm = float(np.linalg.norm(core_unfolded))
        fits.append(1.0 - float(np.sqrt(max(x_norm**2 - core_norm**2, 0.0))) / x_norm)
    return fold_dense(core_unfolded, 0, tuple(ranks)), factors, fits


def low_multilinear_rank(shape, ranks, seed):
    """A dense tensor of exact multilinear rank ``ranks``, as sparse."""
    rng = np.random.default_rng(seed)
    dense = rng.random(ranks)
    for m, size in enumerate(shape):
        factor = np.linalg.qr(rng.standard_normal((size, ranks[m])))[0]
        dense = ttm_dense(dense, factor.T, m)
    return SparseTensor.from_dense(dense, tol=1e-12)


#: (shape, ranks) per order for the tree-against-oracle comparisons.
ORACLE_CASES = {
    3: ((30, 40, 20), (3, 4, 5)),
    4: ((14, 12, 10, 9), (3, 3, 2, 3)),
    5: ((9, 8, 7, 6, 5), (2, 3, 2, 2, 3)),
}


@st.composite
def hooi_inputs(draw):
    """An order-2..5 tensor with empty slices, fibers of one non-zero and
    values with signed zeros and subnormals (float32 ones, and float64 ones
    the F-COO cast flushes), plus ranks with ``R_n <= prod(R_m, m != n)``."""
    order = draw(st.integers(min_value=2, max_value=5))
    shape = [draw(st.integers(min_value=1, max_value=5)) for _ in range(order)]
    nnz = draw(st.integers(min_value=1, max_value=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Each mode draws its indices from a subset of its range: the rest are
    # empty slices.
    used = [rng.choice(s, size=rng.integers(1, s + 1), replace=False) for s in shape]
    indices = np.stack([rng.choice(u, size=nnz) for u in used], axis=1)
    pool = np.array([-0.0, 0.0, 1e-40, -3e-42, 5e-324, -5e-324])
    values = rng.standard_normal(nnz)
    special = rng.random(nnz) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    values[special] = rng.choice(pool, size=int(special.sum()))
    values[0] = rng.uniform(0.5, 2.0)
    tensor = SparseTensor(indices, values, tuple(shape))
    ranks = [int(rng.integers(1, s + 1)) for s in shape]
    largest = int(np.argmax(ranks))
    ranks[largest] = min(ranks[largest], math.prod(ranks[:largest] + ranks[largest + 1 :]))
    return tensor, ranks


class TestDimensionTree:
    """A HOOI sweep walks a two-level dimension tree: one pass over the
    non-zeros into the front half's fibers, one into the back half's, and
    each mode's ``Y`` derived from its half's fiber sums."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    def test_a_sweep_passes_over_the_nonzeros_twice(self, order, sweeps):
        tensor = random_sparse_tensor((30, 40, 20, 10, 6)[:order], 800, seed=5)
        indices = np.asarray(tensor.indices)
        sweep = []
        for half in halves(order):
            fibers = len(np.unique(indices[:, half], axis=0))
            sweep.append((tensor.nnz, 1, fibers))
            if len(half) > 1:
                sweep += [(fibers, 2, tensor.shape[m]) for m in half]
        spy = spy_backend()
        ctx = ExecContext(backend=spy)
        result = tucker_hooi(tensor, (3,) * order, max_iterations=sweeps, tolerance=-1.0, ctx=ctx)
        assert result.iterations == sweeps
        assert spy.calls == sweep * sweeps
        assert sum(calls[0] == tensor.nnz for calls in spy.calls) == 2 * sweeps

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_derived_y_has_the_bits_of_a_recomputation(self, monkeypatch, order):
        tensor = random_sparse_tensor((30, 40, 20, 10, 6)[:order], 800, seed=5)
        ranks = (3,) * order
        backend = get_backend()
        inputs, lefts, initial = [], [], []
        svd, qr = np.linalg.svd, np.linalg.qr

        def recorded_svd(a, *args, **kwargs):
            u, s, vt = svd(a, *args, **kwargs)
            inputs.append(a)
            lefts.append(u)
            return u, s, vt

        def recorded_qr(a, *args, **kwargs):
            q, r = qr(a, *args, **kwargs)
            initial.append(q[:, : a.shape[1]])
            return q, r

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        monkeypatch.setattr(np.linalg, "qr", recorded_qr)
        result = tucker_hooi(tensor, ranks, max_iterations=2, tolerance=-1.0)
        monkeypatch.undo()
        assert len(inputs) == 2 * order and len(initial) == order
        # Mode n of a sweep sees the sweep's new factors of the modes before
        # it and the previous sweep's of the modes after it.
        updated = [u[:, :rank] for u, rank in zip(lefts, ranks * 2)]
        for step, y in enumerate(inputs):
            sweep, mode = divmod(step, order)
            previous = updated[(sweep - 1) * order : sweep * order] if sweep else initial
            current = updated[sweep * order : step]
            factors = current + previous[mode:]
            recomputed = tree_y(tensor, factors, mode, backend)
            assert y.shape == recomputed.shape and y.dtype == recomputed.dtype
            np.testing.assert_array_equal(y.view(np.uint64), recomputed.view(np.uint64))
        # The core is the last mode's Y projected onto its new factor.
        core = fold_dense(backend.matmul(updated[-1].T, inputs[-1]), order - 1, ranks)
        np.testing.assert_array_equal(result.core.view(np.uint64), core.view(np.uint64))

    @settings()
    @given(hooi_inputs())
    def test_backends_agree_bit_for_bit(self, case):
        tensor, ranks = case
        encoding = FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, 0)
        runs = [
            hooi_numeric_pass(
                tensor, ranks, encoding, max_iterations=2, tolerance=-1.0, seed=3, backend=name
            )
            for name in ("reference", "vectorized")
        ]
        reference, vectorized = ([*run.factors, run.core, np.array(run.fits)] for run in runs)
        for want, got in zip(reference, vectorized):
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("order", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["random", "skewed", "low-rank"])
    def test_agrees_with_the_per_mode_loop(self, kind, order):
        shape, ranks = ORACLE_CASES[order]
        if kind == "low-rank":
            tensor = low_multilinear_rank(shape, ranks, seed=order)
        else:
            distribution = "power" if kind == "skewed" else "uniform"
            tensor = random_sparse_tensor(shape, 1_500, seed=order, distribution=distribution)
        result = tucker_hooi(tensor, ranks, max_iterations=3, tolerance=-1.0)
        core, factors, fits = per_mode_hooi(tensor, ranks, max_iterations=3)
        for tree_factor, oracle_factor in zip(result.factors, factors):
            cosines = np.linalg.svd(tree_factor.T @ oracle_factor, compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-9
        # The models agree whatever basis each factor's SVD picked.
        tree_model, oracle_model = (
            reconstruction(*model) for model in ((result.core, result.factors), (core, factors))
        )
        assert np.linalg.norm(tree_model - oracle_model) <= 1e-9 * np.linalg.norm(oracle_model)
        # Each fit is 1 - sqrt(||X||^2 - ||G||^2) / ||X||: the core norms
        # agree, and so do the fits wherever that difference is not
        # cancellation.  An exact low-rank fit is 1 - O(sqrt(eps)) noise
        # (one ulp of ||G||^2 moves it by ~1e-8), so there it is 1 within
        # that noise.
        np.testing.assert_allclose(
            np.linalg.norm(result.core), np.linalg.norm(core), rtol=1e-9, atol=0.0
        )
        if kind == "low-rank":
            np.testing.assert_allclose(result.fits, 1.0, rtol=0.0, atol=1e-7)
            np.testing.assert_allclose(fits, 1.0, rtol=0.0, atol=1e-7)
        else:
            np.testing.assert_allclose(result.fits, fits, rtol=1e-9, atol=0.0)


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
    def test_all_zero_values_raise(self, value):
        # nnz > 0, but the fit divides by the norm of the values the
        # Kronecker sums read, and 1e-46 flushes to zero as an F-COO float32 value.
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        zero = SparseTensor(tensor.indices, np.full(tensor.nnz, value), tensor.shape)
        assert zero.nnz > 0
        spy = spy_backend()
        with pytest.raises(ValueError, match="fit of an all-zero tensor"):
            tucker_hooi(zero, (3, 3, 3), max_iterations=2, ctx=ExecContext(backend=spy))
        assert spy.calls == []
