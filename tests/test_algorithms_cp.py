"""Tests for CP-ALS (Algorithm 1) with both engines."""

import numpy as np
import pytest

import repro.algorithms.cp as cp_module
from repro.algorithms.cp import SplattCPUEngine, UnifiedGPUEngine, cp_als, cp_numeric_pass
from repro.algorithms.fit import cp_fit
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec, NodeFailure
from repro.gpusim.device import TITAN_X
from repro.kernels.unified.driver import compute, model
from repro.kernels.unified.spmttkrp import spmttkrp_spec
from repro.tensor.ops import cp_reconstruct
from repro.tensor.random import random_factors, random_sparse_tensor
from repro.tensor.sparse import SparseTensor


@pytest.fixture
def low_rank_tensor():
    """A tensor that is exactly rank 3, stored sparsely (fully recoverable)."""
    rng = np.random.default_rng(0)
    factors = [rng.random((12, 3)), rng.random((14, 3)), rng.random((10, 3))]
    return SparseTensor.from_dense(cp_reconstruct(factors))


@pytest.fixture
def rank2_tensor():
    """An exactly rank-2 tensor on which CP-ALS reaches a fit of 1 - 2e-8."""
    rng = np.random.default_rng(1)
    factors = [rng.standard_normal((s, 2)) for s in (12, 14, 10)]
    return SparseTensor.from_dense(cp_reconstruct(factors))


class TestCPAlgorithm:
    def test_fit_improves_monotonically(self, skewed_tensor):
        result = cp_als(skewed_tensor, 4, max_iterations=6, tolerance=0.0, seed=1)
        assert len(result.fits) == 6
        diffs = np.diff(result.fits)
        assert (diffs >= -1e-8).all()

    def test_factor_shapes_and_weights(self, skewed_tensor):
        rank = 5
        result = cp_als(skewed_tensor, rank, max_iterations=2, seed=2)
        assert len(result.factors) == skewed_tensor.order
        for m, f in enumerate(result.factors):
            assert f.shape == (skewed_tensor.shape[m], rank)
        assert result.weights.shape == (rank,)
        assert (result.weights > 0).all()

    def test_factors_have_unit_columns(self, skewed_tensor):
        result = cp_als(skewed_tensor, 3, max_iterations=2, seed=3)
        for f in result.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, rtol=1e-8)

    def test_engines_agree_numerically(self, skewed_tensor):
        unified = cp_als(skewed_tensor, 3, engine=UnifiedGPUEngine(), max_iterations=3, seed=4)
        splatt = cp_als(skewed_tensor, 3, engine=SplattCPUEngine(), max_iterations=3, seed=4)
        assert unified.final_fit == pytest.approx(splatt.final_fit, rel=1e-4)

    def test_early_stopping_on_tolerance(self, skewed_tensor):
        result = cp_als(skewed_tensor, 3, max_iterations=50, tolerance=1e-2, seed=5)
        assert result.iterations < 50

    def test_recovers_low_rank_structure(self, low_rank_tensor):
        result = cp_als(low_rank_tensor, 3, max_iterations=40, tolerance=1e-9, seed=6)
        assert result.final_fit is not None
        assert result.final_fit > 0.95

    def test_initial_factors_respected(self, skewed_tensor):
        init = [np.asarray(f) for f in random_factors(skewed_tensor.shape, 3, seed=7)]
        a = cp_als(skewed_tensor, 3, max_iterations=2, initial_factors=init)
        b = cp_als(skewed_tensor, 3, max_iterations=2, initial_factors=init)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_allclose(fa, fb)

    def test_invalid_initial_factors(self, skewed_tensor):
        with pytest.raises(ValueError):
            cp_als(skewed_tensor, 3, initial_factors=[np.ones((2, 3))])

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            cp_als(SparseTensor.empty((3, 4, 5)), 2)

    @pytest.mark.parametrize("compute_fit", [True, False])
    @pytest.mark.parametrize("value", [0.0, 1e-46])
    def test_zero_norm_values_raise_before_any_mttkrp(self, monkeypatch, value, compute_fit):
        # nnz > 0, but every value the MTTKRPs read is zero (1e-46 flushes to
        # zero as an F-COO float32 value): there is no fit, and the factors
        # would be zero.
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        zero = SparseTensor(tensor.indices, np.full(tensor.nnz, value), tensor.shape)
        assert zero.nnz > 0
        modes = []
        mttkrp = UnifiedGPUEngine.mttkrp

        def counted(self, factors, mode):
            modes.append(mode)
            return mttkrp(self, factors, mode)

        monkeypatch.setattr(UnifiedGPUEngine, "mttkrp", counted)
        with pytest.raises(ValueError, match="fit of an all-zero tensor"):
            cp_als(zero, 3, max_iterations=2, compute_fit=compute_fit)
        assert modes == []

    def test_compute_fit_disabled(self, skewed_tensor):
        result = cp_als(skewed_tensor, 3, max_iterations=2, compute_fit=False)
        assert result.fits == []
        assert result.final_fit is None


class TestSweepFit:
    """CP-ALS reads its fit off each sweep's last MTTKRP."""

    @pytest.mark.parametrize("engine", [UnifiedGPUEngine, SplattCPUEngine])
    @pytest.mark.parametrize("fixture", ["rank2_tensor", "skewed_tensor"])
    def test_fit_matches_the_standalone_evaluation(self, request, engine, fixture):
        tensor = request.getfixturevalue(fixture)
        result = cp_als(tensor, 2, engine=engine(), max_iterations=20, tolerance=0.0, seed=0)
        # Against the float64 norm, the unified engine's float32-valued
        # MTTKRP would put the exact model's fit 2e-5 short.
        expected = cp_fit(tensor, result.factors, result.weights)
        assert result.final_fit == pytest.approx(expected, abs=1e-7)

    def test_fit_reads_the_nonzeros_only_through_the_mttkrps(self, monkeypatch, skewed_tensor):
        iterations, rank = 3, 4
        engine = UnifiedGPUEngine()
        engine.prepare(skewed_tensor, rank)
        factors = [np.asarray(f) for f in random_factors(skewed_tensor.shape, rank, seed=0)]
        modes, reads = [], []

        def counted(fcoo, *args):
            modes.append(fcoo.mode)
            return compute(fcoo, *args)

        monkeypatch.setattr(cp_module, "compute", counted)
        for name in ("indices", "values"):
            read = getattr(SparseTensor, name).fget
            monkeypatch.setattr(
                SparseTensor, name, property(lambda t, read=read: reads.append(t) or read(t))
            )
        numbers = cp_numeric_pass(
            skewed_tensor, engine, factors, max_iterations=iterations, tolerance=-1.0
        )
        assert len(numbers.fits) == iterations
        # One backend pass over the non-zeros per MTTKRP, and none for a fit.
        assert modes == list(range(skewed_tensor.order)) * iterations
        assert reads == []


class TestCPTimings:
    def test_timings_accumulate_per_mode(self, skewed_tensor):
        iterations = 4
        result = cp_als(
            skewed_tensor, 4, max_iterations=iterations, tolerance=0.0, compute_fit=False
        )
        assert set(result.mttkrp_time_by_mode) == {0, 1, 2}
        assert all(t > 0 for t in result.mttkrp_time_by_mode.values())
        assert result.other_time_s > 0
        assert result.total_time_s == pytest.approx(
            sum(result.mttkrp_time_by_mode.values()) + result.other_time_s
        )

    def test_unified_modes_balanced(self, skewed_tensor):
        result = cp_als(skewed_tensor, 4, max_iterations=3, tolerance=0.0, compute_fit=False)
        times = list(result.mttkrp_time_by_mode.values())
        assert max(times) / min(times) < 2.0

    def test_unified_faster_than_splatt(self, medium_tensor):
        unified = cp_als(
            medium_tensor, 4, engine=UnifiedGPUEngine(), max_iterations=3,
            tolerance=0.0, compute_fit=False,
        )
        splatt = cp_als(
            medium_tensor, 4, engine=SplattCPUEngine(), max_iterations=3,
            tolerance=0.0, compute_fit=False,
        )
        assert unified.total_time_s < splatt.total_time_s

    def test_setup_time_recorded(self, skewed_tensor):
        result = cp_als(skewed_tensor, 3, max_iterations=1, compute_fit=False)
        assert result.setup_time_s > 0

    def test_launch_parameters_apply_to_every_mode(self, skewed_tensor):
        engine = UnifiedGPUEngine(block_size=64, threadlen=16)
        engine.prepare(skewed_tensor, 3)
        for mode, (encoding, threadlen) in enumerate(engine.resident()):
            assert encoding.mode == mode and threadlen == 16
            expected = model(
                encoding,
                spmttkrp_spec(encoding, 3),
                device=TITAN_X,
                block_size=64,
                threadlen=16,
            )
            assert engine.profile(mode, 3).estimated_time_s == expected.estimated_time_s

    def test_resident_staging_is_charged_in_setup_per_shard(self, skewed_tensor):
        rank = 3
        single = UnifiedGPUEngine()
        single_s = single.prepare(skewed_tensor, rank)
        four_gpus = ExecContext(cluster=ClusterSpec.homogeneous(TITAN_X, 4))
        sharded_s = UnifiedGPUEngine(ctx=four_gpus).prepare(skewed_tensor, rank)
        factor_bytes = sum(n * rank * 4.0 for n in skewed_tensor.shape)
        stream_bytes = sum(enc.storage_bytes(8) for enc, _ in single.resident())
        bandwidth = TITAN_X.pcie_bandwidth_bytes_per_s
        # Every device stages its own quarter of each stream at once, and
        # the factor matrices go to all of them in parallel.
        assert single_s == pytest.approx((factor_bytes + stream_bytes) / bandwidth)
        assert sharded_s == pytest.approx((factor_bytes + stream_bytes / 4) / bandwidth)
        # Staging is all in setup: the timeline books no transfer of its own.
        result = cp_als(
            skewed_tensor,
            rank,
            ctx=four_gpus,
            max_iterations=1,
            compute_fit=False,
        )
        assert result.setup_time_s == pytest.approx(sharded_s)
        assert not any(e.label.startswith("stage") for e in result.timeline.events)


class TestEncodings:
    """Each mode is encoded once per run, or not at all when held."""

    @staticmethod
    def _count_encodes(monkeypatch):
        calls = []
        encode = FCOOTensor.from_sparse.__func__

        def counted(cls, *args, **kwargs):
            calls.append(args[1:])
            return encode(cls, *args, **kwargs)

        monkeypatch.setattr(FCOOTensor, "from_sparse", classmethod(counted))
        return calls

    @pytest.mark.parametrize("lose_node", [False, True])
    def test_each_mode_encoded_once(self, monkeypatch, lose_node):
        tensor = random_sparse_tensor((30, 40, 20), 800, seed=5)
        cluster = ClusterSpec.homogeneous(num_nodes=2, devices_per_node=2)

        def run(chaos=None):
            engine = UnifiedGPUEngine(ctx=ExecContext(cluster=cluster))
            return cp_als(
                tensor, 4, engine=engine, max_iterations=3, ctx=ExecContext(chaos=chaos)
            )

        clean = run()
        chaos = [NodeFailure(time_s=clean.makespan_s * 0.4, node_index=0)] if lose_node else None
        calls = self._count_encodes(monkeypatch)
        result = run(chaos)
        # A node loss re-stages the encodings the engine holds.
        assert len(result.recoveries) == int(lose_node)
        assert calls == [(OperationKind.SPMTTKRP, mode) for mode in range(tensor.order)]

    def test_prepare_takes_held_encodings(self, monkeypatch, skewed_tensor):
        rank = 3
        built = UnifiedGPUEngine()
        built_s = built.prepare(skewed_tensor, rank)
        held = {mode: enc for mode, (enc, _threadlen) in enumerate(built.resident())}
        calls = self._count_encodes(monkeypatch)
        engine = UnifiedGPUEngine()
        # The held encodings are staged as they are, at the same cost.
        assert engine.prepare(skewed_tensor, rank, held) == built_s
        assert calls == []
        assert all(enc is held[mode] for mode, (enc, _) in enumerate(engine.resident()))
        factors = [np.asarray(f) for f in random_factors(skewed_tensor.shape, rank, seed=1)]
        for mode in range(skewed_tensor.order):
            np.testing.assert_array_equal(
                engine.mttkrp(factors, mode), built.mttkrp(factors, mode)
            )


class TestEngineGuards:
    def test_mttkrp_before_prepare_raises(self, skewed_tensor, small_factors):
        engine = UnifiedGPUEngine()
        with pytest.raises(RuntimeError):
            engine.mttkrp(small_factors, 0)

    def test_splatt_mttkrp_before_prepare_raises(self, small_factors):
        engine = SplattCPUEngine()
        with pytest.raises(RuntimeError):
            engine.mttkrp(small_factors, 0)
