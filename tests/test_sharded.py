"""Property harness for the multi-GPU sharded execution driver.

The central claim: for every unified kernel, **sharded execution across a
simulated cluster computes the same result as one-shot single-GPU
execution** — including when a reduction segment straddles a shard
boundary, and when a shard individually exceeds its device's memory and
falls back to the PR 1 streamed path.  The harness drives all three
kernels over the streaming test corpus across 1/2/4 devices, comparing
sharded vs one-shot vs the reference oracles, and checks the cluster /
collective cost models and the scaling harness on top.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.cp import UnifiedGPUEngine, cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.bench.scaling import analog_interconnect, run_scaling, run_weak_scaling
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import (
    ClusterSpec,
    InterconnectSpec,
    NVLINK1,
    NodeSpec,
    PCIE3_P2P,
    resolve_cluster,
)
from repro.gpusim.device import TITAN_X, scaled_device
from repro.kernels.unified import partition_shards
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.kernels.unified.spttmc import unified_spttmc
from repro.tensor.random import random_factors, random_sparse_tensor
from test_streaming import CASE_PARAMS, CASES, assert_folds, run_kernel, run_reference

THREADLEN = 4
BLOCK_SIZE = 32
RANK = 3


def gpus(num_devices: int) -> ClusterSpec:
    """One node of ``num_devices`` Titan X GPUs."""
    return ClusterSpec.homogeneous(TITAN_X, num_devices)


class TestClusterModel:
    def test_homogeneous_construction(self):
        cluster = ClusterSpec.homogeneous(TITAN_X, 4)
        assert cluster.num_devices == 4
        assert cluster.min_device_memory_bytes == TITAN_X.global_mem_bytes
        assert cluster.total_memory_bytes == 4 * TITAN_X.global_mem_bytes
        cluster.validate()

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec(devices=())
        with pytest.raises(ValueError):
            ClusterSpec(nodes=())
        with pytest.raises(ValueError):
            ClusterSpec.homogeneous(TITAN_X, 0)

    def test_interconnect_validation(self):
        with pytest.raises(ValueError):
            InterconnectSpec("bad", 0.0, 1e-6).validate()
        with pytest.raises(ValueError):
            InterconnectSpec("bad", 1e9, -1.0).validate()
        NVLINK1.validate()
        PCIE3_P2P.validate()

    def test_allreduce_zero_for_single_device(self):
        assert ClusterSpec.homogeneous(TITAN_X, 1).allreduce_time(1e9) == 0.0
        assert ClusterSpec.homogeneous(TITAN_X, 4).allreduce_time(0.0) == 0.0

    def test_allreduce_grows_with_payload_and_latency_with_devices(self):
        c2 = ClusterSpec.homogeneous(TITAN_X, 2)
        c8 = ClusterSpec.homogeneous(TITAN_X, 8)
        assert c2.allreduce_time(2e6) > c2.allreduce_time(1e6)
        # The latency term grows with the ring size even for tiny payloads.
        assert c8.allreduce_time(8.0) > c2.allreduce_time(8.0)
        # The bandwidth term approaches 2 * bytes / bw from below.
        big = 1e9
        link = c8.nodes[0].interconnect
        bound = 2.0 * big / link.bandwidth_bytes_per_s
        assert c8.allreduce_time(big) < bound + 2 * 7 * link.latency_s + 1e-9

    def test_neighbor_exchange_overlaps_pairs(self):
        cluster = ClusterSpec.homogeneous(TITAN_X, 4)
        assert cluster.neighbor_exchange_time([], slots=[], sources=[]) == 0.0
        one = cluster.neighbor_exchange_time([4096.0], slots=[1], sources=[0])
        three = cluster.neighbor_exchange_time(
            [4096.0, 4096.0, 4096.0], slots=[1, 2, 3], sources=[0, 1, 2]
        )
        assert one == pytest.approx(three)  # disjoint pairs exchange concurrently

    def test_resolve_cluster(self):
        device, multi = resolve_cluster(TITAN_X, None)
        assert multi is None and device is TITAN_X
        four = gpus(4)
        assert resolve_cluster(TITAN_X, four) == (TITAN_X, four)
        # A one-member cluster resolves to its sole device.
        small = scaled_device(TITAN_X, 0.5)
        device, multi = resolve_cluster(TITAN_X, ClusterSpec.homogeneous(small, 1))
        assert multi is None and device == small


class TestShardPartitioner:
    def test_at_most_num_devices_shards_and_alignment(self):
        fcoo = FCOOTensor.from_sparse(CASES["order3-power"](), "spmttkrp", 0)
        for n in (1, 2, 3, 4, 8, 64):
            shards = partition_shards(fcoo, n, threadlen=THREADLEN)
            assert len(shards) <= n
            assert sum(s.nnz for s in shards) == fcoo.nnz
            for shard in shards:
                assert shard.start % THREADLEN == 0

    def test_short_stream_leaves_devices_idle(self):
        fcoo = FCOOTensor.from_sparse(CASES["nnz-below-threadlen"](), "spmttkrp", 0)
        shards = partition_shards(fcoo, 4, threadlen=THREADLEN)
        assert len(shards) == 1  # 3 non-zeros < one thread partition

    def test_empty_stream(self):
        fcoo = FCOOTensor.from_sparse(CASES["empty"](), "spmttkrp", 0)
        assert partition_shards(fcoo, 4, threadlen=THREADLEN) == []

    def test_boundary_straddling_segments_marked(self):
        fcoo = FCOOTensor.from_sparse(CASES["boundary-straddle"](), "spmttkrp", 0)
        shards = partition_shards(fcoo, 4, threadlen=THREADLEN)
        # The crafted 30-nnz fiber spans several 8/12-nnz shards.
        assert any(s.carries_in for s in shards)


class TestShardedEqualsOneShot:
    """The property: sharded output == one-shot output == reference."""

    @pytest.mark.parametrize("kernel", [unified_spttm, unified_spmttkrp, unified_spttmc])
    @pytest.mark.parametrize("num_devices", [1, 2, 4])
    @pytest.mark.parametrize("build", CASE_PARAMS)
    def test_sharded_matches_one_shot_and_reference(self, kernel, num_devices, build):
        tensor = build()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        mode = tensor.order - 1 if kernel is unified_spttm else 0

        one_shot = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(streamed=False))
        sharded = run_kernel(
            kernel, tensor, factors, mode, ctx=ExecContext(cluster=gpus(num_devices))
        )
        reference = run_reference(kernel, tensor, factors, mode)

        if kernel is unified_spttm:
            assert sharded.output.allclose(one_shot.output)
            assert sharded.output.allclose(reference, rtol=1e-5, atol=1e-6)
        else:
            np.testing.assert_allclose(
                sharded.output, one_shot.output, rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(sharded.output, reference, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("kernel", [unified_spttm, unified_spmttkrp, unified_spttmc])
    def test_shard_ledgers_sum_consistently(self, kernel):
        tensor = CASES["boundary-straddle"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        mode = tensor.order - 1 if kernel is unified_spttm else 0

        one_shot = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(streamed=False))
        sharded = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(cluster=gpus(4)))
        execution = sharded.profile.sharded
        assert execution is not None
        assert 2 <= execution.num_shards <= 4
        assert sum(s.nnz for s in execution.shards) == tensor.nnz
        # The arithmetic is shard-count independent.
        total_flops = sum(s.counters.flops for s in execution.shards)
        assert total_flops == pytest.approx(one_shot.profile.counters.flops, rel=1e-9)
        # Makespan = slowest device + the modeled reduction; efficiency is a
        # true fraction.
        assert execution.total_time_s == pytest.approx(
            execution.max_shard_time_s + execution.reduction_time_s
        )
        assert 0.0 < execution.parallel_efficiency <= 1.0
        assert sharded.estimated_time_s == pytest.approx(execution.total_time_s)

    def test_profile_counters_fold_the_shard_ledgers(self):
        tensor = CASES["boundary-straddle"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        sharded = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(cluster=gpus(4)))
        shards = [s.counters for s in sharded.profile.sharded.shards]
        assert_folds(sharded.profile.counters, shards)

    def test_single_device_count_is_exactly_single_gpu(self):
        tensor = CASES["order3-power"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        plain = run_kernel(unified_spmttkrp, tensor, factors, 0)
        one_gpu = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(cluster=gpus(1)))
        assert one_gpu.profile.sharded is None
        assert one_gpu.estimated_time_s == plain.estimated_time_s
        np.testing.assert_array_equal(one_gpu.output, plain.output)

    def test_reduction_kinds(self):
        tensor = CASES["order3-power"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        mttkrp = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(cluster=gpus(4)))
        assert mttkrp.profile.sharded.reduction_kind == "allreduce"
        assert mttkrp.profile.sharded.reduction_time_s > 0.0
        spttm = run_kernel(unified_spttm, tensor, factors, 2, ctx=ExecContext(cluster=gpus(4)))
        assert spttm.profile.sharded.reduction_kind == "boundary"


class TestStreamedFallbackShard:
    """A shard that individually exceeds its device streams on that device."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return random_sparse_tensor(
            (30, 50, 40), 600, seed=11, distribution="power", concentration=1.2
        )

    def test_shard_falls_back_to_streaming_and_matches(self, tensor):
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=7)]
        # Small enough that half the stream does not fit next to the dense
        # operands, so each of the two shards must stream on its device.
        tiny = scaled_device(TITAN_X, 3.2e-7, name_suffix="tiny")
        cluster = ClusterSpec.homogeneous(tiny, 2)
        one_shot = unified_spmttkrp(
            tensor, factors, 0, block_size=BLOCK_SIZE, threadlen=THREADLEN
        )
        sharded = unified_spmttkrp(
            tensor,
            factors,
            0,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            ctx=ExecContext(cluster=cluster),
        )
        execution = sharded.profile.sharded
        assert execution is not None
        streaming_shards = [s for s in execution.shards if s.streaming is not None]
        assert streaming_shards and streaming_shards[0].streaming.num_chunks >= 2
        # Streamed shards re-ship their chunks; nothing is pre-staged.
        assert streaming_shards[0].staged_bytes == 0.0
        np.testing.assert_allclose(
            sharded.output, one_shot.output, rtol=1e-10, atol=1e-12
        )

    def test_streamed_shard_ledger_folds_its_chunks(self, tensor):
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=7)]
        tiny = scaled_device(TITAN_X, 3.2e-7, name_suffix="tiny")
        sharded = unified_spmttkrp(
            tensor,
            factors,
            0,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            ctx=ExecContext(cluster=ClusterSpec.homogeneous(tiny, 2)),
        )
        shards = sharded.profile.sharded.shards
        streamed = [s for s in shards if s.streaming is not None]
        assert streamed
        for shard in streamed:
            assert_folds(shard.counters, [c.counters for c in shard.streaming.chunks])
        assert_folds(sharded.profile.counters, [s.counters for s in shards])

    def test_forced_streaming_applies_per_shard(self, tensor):
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=7)]
        sharded = unified_spmttkrp(
            tensor,
            factors,
            0,
            threadlen=THREADLEN,
            ctx=ExecContext(cluster=gpus(2), streamed=True, chunk_nnz=THREADLEN * 2),
        )
        execution = sharded.profile.sharded
        assert execution is not None
        assert all(s.streaming is not None for s in execution.shards)


class TestDecompositionsOnClusters:
    """Acceptance: whole decompositions run multi-GPU and stay exact."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return random_sparse_tensor(
            (30, 50, 40), 600, seed=11, distribution="power", concentration=1.2
        )

    def test_cp_als_on_4_gpu_cluster_matches_single_gpu(self, tensor):
        cluster = ClusterSpec.homogeneous(TITAN_X, 4)
        single = cp_als(
            tensor,
            4,
            engine=UnifiedGPUEngine(),
            max_iterations=2,
            seed=0,
            compute_fit=False,
        )
        multi = cp_als(
            tensor,
            4,
            engine=UnifiedGPUEngine(ctx=ExecContext(cluster=cluster)),
            max_iterations=2,
            seed=0,
            compute_fit=False,
        )
        for single_f, multi_f in zip(single.factors, multi.factors):
            np.testing.assert_allclose(single_f, multi_f, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(single.weights, multi.weights, rtol=1e-9)
        # Per-device timelines cover every device; efficiency is a fraction.
        assert set(multi.device_time_by_device) == {0, 1, 2, 3}
        assert all(t > 0 for t in multi.device_time_by_device.values())
        assert 0.0 < multi.parallel_efficiency <= 1.0
        assert single.device_time_by_device is None
        assert single.parallel_efficiency is None

    def test_engine_on_a_two_gpu_cluster(self, tensor):
        engine = UnifiedGPUEngine(ctx=ExecContext(cluster=gpus(2)))
        result = cp_als(tensor, 3, engine=engine, max_iterations=1, seed=1, compute_fit=False)
        assert set(result.device_time_by_device) == {0, 1}
        assert 0.0 < result.parallel_efficiency <= 1.0

    def test_engine_reuse_does_not_leak_timelines(self, tensor):
        engine = UnifiedGPUEngine(ctx=ExecContext(cluster=gpus(2)))
        first = cp_als(tensor, 3, engine=engine, max_iterations=1, seed=1, compute_fit=False)
        second = cp_als(tensor, 3, engine=engine, max_iterations=1, seed=1, compute_fit=False)
        # Identical runs must report identical (not accumulated) timelines.
        for slot, busy in first.device_time_by_device.items():
            assert second.device_time_by_device[slot] == pytest.approx(busy)
        assert second.parallel_efficiency == pytest.approx(first.parallel_efficiency)

    def test_tucker_on_cluster_matches_single_gpu(self, tensor):
        single = tucker_hooi(tensor, (3, 3, 3), max_iterations=1, seed=0)
        multi = tucker_hooi(
            tensor, (3, 3, 3), max_iterations=1, seed=0, ctx=ExecContext(cluster=gpus(4))
        )
        np.testing.assert_allclose(multi.core, single.core, rtol=1e-8, atol=1e-10)
        for single_f, multi_f in zip(single.factors, multi.factors):
            np.testing.assert_allclose(
                np.abs(single_f), np.abs(multi_f), rtol=1e-8, atol=1e-10
            )
        assert 0.0 < multi.parallel_efficiency <= 1.0
        assert set(multi.device_time_by_device) == {0, 1, 2, 3}
        assert single.parallel_efficiency is None


class TestScalingHarness:
    def test_analog_interconnect_projection(self):
        link = analog_interconnect(PCIE3_P2P, time_scale=1e-3, payload_scale=0.1)
        assert link.latency_s == pytest.approx(PCIE3_P2P.latency_s * 1e-3)
        assert link.bandwidth_bytes_per_s == pytest.approx(
            PCIE3_P2P.bandwidth_bytes_per_s * 100.0
        )
        # Default payload scale: payloads shrink like time, bandwidth unchanged.
        same_bw = analog_interconnect(PCIE3_P2P, time_scale=1e-3)
        assert same_bw.bandwidth_bytes_per_s == pytest.approx(
            PCIE3_P2P.bandwidth_bytes_per_s
        )
        with pytest.raises(ValueError):
            analog_interconnect(PCIE3_P2P, time_scale=0.0)

    def test_strong_scaling_structure(self):
        result = run_scaling(rank=4, datasets=["brainq"], device_counts=(1, 2, 4))
        assert result.kind == "strong"
        for op in ("spttm", "spmttkrp", "spttmc"):
            curve = result.rows_for(op, "brainq")
            assert [r.num_devices for r in curve] == [1, 2, 4]
            assert curve[0].speedup == pytest.approx(1.0)
            for row in curve:
                assert 0.0 < row.efficiency <= 1.0
        assert "strong scaling" in result.render()

    def test_weak_scaling_structure(self):
        result = run_weak_scaling(rank=4, device_counts=(1, 2))
        assert result.kind == "weak"
        for op in ("spttm", "spmttkrp", "spttmc"):
            curve = result.rows_for(op)
            assert [r.num_devices for r in curve] == [1, 2]
            for row in curve:
                assert 0.0 < row.speedup <= 1.05
        assert "weak scaling" in result.render()


# ---------------------------------------------------------------------- #
# Hypothesis sweep (the nightly CI profile raises max_examples)
# ---------------------------------------------------------------------- #


class TestShardedHypothesis:
    """Arbitrary tensors x device counts: sharded == one-shot.

    The parametrized corpus above pins the known-adversarial shapes; this
    sweep searches the space around them under the active Hypothesis
    profile (per-PR default, or the nightly high-examples profile).
    """

    @given(
        dims=st.tuples(*(st.integers(min_value=2, max_value=14),) * 3),
        nnz=st.integers(min_value=1, max_value=220),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_devices=st.integers(min_value=2, max_value=4),
    )
    def test_sharded_equals_one_shot(self, dims, nnz, seed, num_devices):
        tensor = random_sparse_tensor(dims, nnz, seed=seed)
        factors = [np.asarray(f) for f in random_factors(dims, RANK, seed=seed)]
        one_shot = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(streamed=False))
        sharded = run_kernel(
            unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(cluster=gpus(num_devices))
        )
        np.testing.assert_allclose(
            sharded.output, one_shot.output, rtol=1e-10, atol=1e-12
        )
