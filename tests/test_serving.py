"""Property harness for the multi-tenant serving subsystem.

The central claim: **scheduling, batching, caching and placement move work
in time, never in value** — every job served by the
:class:`~repro.serve.ServingEngine` produces output bit-identical to
computing it alone (the pure :func:`~repro.serve.execute.execute_job`),
with the modeled seconds of pricing its recorded placement alone
(:func:`~repro.serve.execute.price_job`), and — for single-device
one-shot placements — bit-identical to calling the unified kernel
directly, since the kernels' numerics are device-independent.  The harness
drives all three kernels over the streaming test corpus through a
heterogeneous serving cluster (cache hits, batches and duplicate tenants
included), plus focused bit-identity checks for the sharded and streamed
paths, and unit-tests the scheduler, cache, placement, workload generator,
cluster validation and the capability-weighted shard partitioner.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.cp import UnifiedGPUEngine, cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.bench.serving import run_serving
from repro.cli import main as cli_main
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.semisparse import SemiSparseTensor
from repro.gpusim.cluster import ClusterSpec, InterconnectSpec, NodeFailure, NodeSpec, PCIE3_P2P
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timeline import Timeline
from repro.kernels.unified import operation_spec, partition_shards
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.kernels.unified.spttmc import unified_spttmc
from repro.serve import (
    Job,
    JobKind,
    JobStatus,
    Placer,
    PreprocCache,
    ServingEngine,
    WorkloadSpec,
    execute_job,
    generate_workload,
    job_geometry,
    price_job,
)
from repro.serve.cache import SERVING_BLOCK_SIZES, SERVING_THREADLENS, TUNER_SECONDS_PER_CONFIG
from repro.serve.placement import NUM_STREAMS as SERVE_NUM_STREAMS
from repro.serve.placement import THREADLEN as SERVE_THREADLEN
from repro.serve.scheduler import MAX_BATCH
from repro.serve.workload import (
    default_multinode_serving_cluster,
    default_serving_cluster,
)
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor
from test_streaming import (
    CASES,
    RANK,
    THREADLEN,
    run_kernel,
    run_reference,
)

#: Job kinds of the three unified kernels, with their kernel entry points.
KERNEL_KINDS = {
    JobKind.SPTTM: unified_spttm,
    JobKind.SPMTTKRP: unified_spmttkrp,
    JobKind.SPTTMC: unified_spttmc,
}

#: The big corpus tensor used by the focused sharded/streamed tests.
BIG_CASE = "order3-power"


def hetero_cluster(big_mem: float, small_mem: float) -> ClusterSpec:
    """A 2 fast + 1 slow cluster with explicitly scaled memories (bytes)."""
    big = scaled_device(TITAN_X, big_mem / TITAN_X.global_mem_bytes, name_suffix="t-big")
    small = scaled_device(
        TITAN_X,
        small_mem / TITAN_X.global_mem_bytes,
        bandwidth_scale=0.5,
        name_suffix="t-small",
    )
    node = NodeSpec(devices=(big, big, small), interconnect=PCIE3_P2P, name="test-hetero")
    return node.as_cluster()


def one_device_cluster(mem_bytes: float) -> ClusterSpec:
    device = scaled_device(
        TITAN_X, mem_bytes / TITAN_X.global_mem_bytes, name_suffix="t-solo"
    )
    return NodeSpec(devices=(device,), name="test-solo").as_cluster()


def _unbatchable(jobs):
    """``jobs`` with pairwise distinct batch keys: job ``i`` gets rank
    ``RANK + i``, so no two ride one dispatch but all share the tensor's
    encoding."""
    return [replace(job, rank=RANK + job.job_id) for job in jobs]


def assert_same_output(actual, expected) -> None:
    """Bit-identical comparison across the kernels' output types."""
    if isinstance(expected, SemiSparseTensor):
        assert isinstance(actual, SemiSparseTensor)
        np.testing.assert_array_equal(actual.fiber_coords, expected.fiber_coords)
        np.testing.assert_array_equal(actual.fiber_values, expected.fiber_values)
    else:
        np.testing.assert_array_equal(actual, expected)


def assert_replays(result) -> None:
    """A completed job's numbers replay bit for bit through ``execute_job``,
    and pricing its recorded placement reproduces its modeled seconds."""
    numbers = execute_job(result.job)
    if result.job.kind.is_kernel:
        assert_same_output(result.output, numbers)
    else:
        for name in numbers._fields:
            served, replayed = getattr(result.output, name), getattr(numbers, name)
            if not isinstance(served, list):
                served, replayed = [served], [replayed]
            assert len(served) == len(replayed), name
            for a, b in zip(served, replayed):
                a, b = np.asarray(a), np.asarray(b)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
    priced = price_job(result.job, result.placement, numbers)
    assert priced.exec_s == result.exec_s
    assert priced.execution == result.execution


def reference_output(job: Job):
    return run_reference(KERNEL_KINDS[job.kind], job.tensor, job.factors(), job.mode)


def assert_close_to_reference(result_output, job: Job) -> None:
    reference = reference_output(job)
    if isinstance(result_output, SemiSparseTensor):
        assert result_output.allclose(reference, rtol=1e-5, atol=1e-6)
    else:
        np.testing.assert_allclose(result_output, reference, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------- #
# Tensor content keys (the cache's identity)
# ---------------------------------------------------------------------- #
class TestContentKey:
    def test_same_content_same_key(self):
        a = random_sparse_tensor((6, 7, 8), 60, seed=3)
        b = SparseTensor(np.asarray(a.indices), np.asarray(a.values), a.shape)
        assert a.content_key == b.content_key

    def test_construction_order_irrelevant(self):
        idx = np.array([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
        vals = np.array([1.0, 2.0, 3.0])
        forward = SparseTensor(idx, vals, (3, 3, 3))
        backward = SparseTensor(idx[::-1], vals[::-1], (3, 3, 3))
        assert forward.content_key == backward.content_key

    def test_different_values_different_key(self):
        a = random_sparse_tensor((6, 7, 8), 60, seed=3)
        b = a.scale(2.0)
        assert a.content_key != b.content_key

    def test_different_shape_different_key(self):
        idx = np.array([[0, 0, 0]])
        vals = np.array([1.0])
        assert (
            SparseTensor(idx, vals, (2, 2, 2)).content_key
            != SparseTensor(idx, vals, (3, 2, 2)).content_key
        )


# ---------------------------------------------------------------------- #
# ClusterSpec validation + capability weights (satellite)
# ---------------------------------------------------------------------- #
class TestClusterValidation:
    def test_zero_throughput_device_rejected_at_construction(self):
        dead = replace(TITAN_X, clock_ghz=0.0)
        with pytest.raises(ValueError, match=r"devices\[1\]"):
            NodeSpec(devices=(TITAN_X, dead))

    def test_invalid_interconnect_rejected_at_construction(self):
        with pytest.raises(ValueError, match="interconnect"):
            NodeSpec(devices=(TITAN_X,), interconnect=InterconnectSpec("bad", 0.0, 1e-6))

    def test_duplicate_id_with_different_spec_rejected(self):
        impostor = replace(TITAN_X, num_sms=12)  # same name, different silicon
        with pytest.raises(ValueError, match="device id"):
            NodeSpec(devices=(TITAN_X, impostor))

    def test_identical_repeated_devices_allowed(self):
        cluster = NodeSpec(devices=(TITAN_X, TITAN_X, TITAN_X)).as_cluster()
        assert cluster.is_homogeneous
        assert cluster.max_device_memory_bytes == TITAN_X.global_mem_bytes

    def test_capability_weights_homogeneous_uniform(self):
        weights = ClusterSpec.homogeneous(TITAN_X, 4).capability_weights()
        np.testing.assert_allclose(weights, [0.25] * 4)

    def test_capability_weights_follow_bandwidth(self):
        half = scaled_device(TITAN_X, 1.0, bandwidth_scale=0.5, name_suffix="half")
        cluster = NodeSpec(devices=(TITAN_X, half)).as_cluster()
        w_full, w_half = cluster.capability_weights()
        assert w_full == pytest.approx(2.0 * w_half)
        assert w_full + w_half == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cluster.capability_weights(flops_per_byte=0.0)


# ---------------------------------------------------------------------- #
# Capability-weighted shard partitioner (satellite)
# ---------------------------------------------------------------------- #
class TestWeightedPartition:
    def _fcoo(self, name=BIG_CASE):
        return FCOOTensor.from_sparse(CASES[name](), "spmttkrp", 0)

    def test_even_split_unchanged_without_weights(self):
        fcoo = self._fcoo()
        even = partition_shards(fcoo, 4, threadlen=THREADLEN)
        sizes = [s.nnz for s in even]
        assert max(sizes) - min(sizes[:-1] or sizes) <= THREADLEN
        assert sum(sizes) == fcoo.nnz

    def test_weighted_sizes_proportional(self):
        fcoo = self._fcoo()
        shards = partition_shards(fcoo, 3, threadlen=THREADLEN, weights=(2.0, 1.0, 1.0))
        sizes = [s.nnz for s in shards]
        assert len(shards) == 3
        assert sum(sizes) == fcoo.nnz
        # The double-weight shard gets twice the work, up to alignment.
        assert abs(sizes[0] - 2 * sizes[1]) <= 2 * THREADLEN
        assert abs(sizes[1] - sizes[2]) <= 2 * THREADLEN
        for shard in shards:
            assert shard.start % THREADLEN == 0

    def test_weighted_coverage_is_contiguous(self):
        fcoo = self._fcoo()
        shards = partition_shards(
            fcoo, 4, threadlen=THREADLEN, weights=(3.0, 1.0, 2.0, 2.0)
        )
        assert shards[0].start == 0
        assert shards[-1].stop == fcoo.nnz
        for prev, nxt in zip(shards, shards[1:]):
            assert prev.stop == nxt.start

    def test_short_stream_keeps_slot_alignment_with_empties(self):
        fcoo = FCOOTensor.from_sparse(CASES["nnz-below-threadlen"](), "spmttkrp", 0)
        shards = partition_shards(
            fcoo, 4, threadlen=THREADLEN, weights=(1.0, 1.0, 1.0, 1.0)
        )
        # Exactly num_shards entries come back, empties as placeholders.
        assert len(shards) == 4
        assert sum(s.nnz for s in shards) == fcoo.nnz
        assert sum(1 for s in shards if s.nnz == 0) == 3

    def test_weight_validation(self):
        fcoo = self._fcoo()
        with pytest.raises(ValueError):
            partition_shards(fcoo, 2, threadlen=THREADLEN, weights=(1.0,))
        with pytest.raises(ValueError):
            partition_shards(fcoo, 2, threadlen=THREADLEN, weights=(1.0, -1.0))
        with pytest.raises(ValueError):
            partition_shards(fcoo, 2, threadlen=THREADLEN, weights=(1.0, float("nan")))

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_heterogeneous_sharded_matches_one_shot(self, kind):
        """Weighted shards on a mixed cluster reproduce the one-shot result."""
        tensor = CASES[BIG_CASE]()
        job = Job(job_id=0, tenant="t", kind=kind, tensor=tensor, mode=0, rank=RANK)
        factors = job.factors()
        cluster = hetero_cluster(big_mem=1 << 30, small_mem=1 << 29)
        kernel = KERNEL_KINDS[kind]
        sharded = run_kernel(kernel, tensor, factors, 0, ctx=ExecContext(cluster=cluster))
        one_shot = run_kernel(kernel, tensor, factors, 0)
        execution = sharded.profile.sharded
        assert execution is not None
        # The slow member (slot 2) gets the smallest shard.
        nnz_by_slot = {led.index: led.nnz for led in execution.shards}
        assert nnz_by_slot[2] <= nnz_by_slot[0]
        assert nnz_by_slot[2] <= nnz_by_slot[1]
        if isinstance(one_shot.output, SemiSparseTensor):
            assert sharded.output.allclose(one_shot.output)
        else:
            np.testing.assert_allclose(
                sharded.output, one_shot.output, rtol=1e-9, atol=1e-12
            )
        assert_close_to_reference(sharded.output, job)


# ---------------------------------------------------------------------- #
# Preprocessing cache
# ---------------------------------------------------------------------- #
class TestPreprocCache:
    def test_hit_after_miss_and_free_hits(self):
        cache = PreprocCache()
        tensor = CASES["order3-uniform"]()
        enc1, hit1, cost1 = cache.encoding(tensor, "spmttkrp", 0)
        enc2, hit2, cost2 = cache.encoding(tensor, "spmttkrp", 0)
        assert (hit1, hit2) == (False, True)
        assert cost1 > 0.0 and cost2 == 0.0
        assert enc1 is enc2
        assert cache.stats.encode_hits == 1 and cache.stats.encode_misses == 1

    def test_key_includes_operation_and_mode(self):
        cache = PreprocCache()
        tensor = CASES["order3-uniform"]()
        cache.encoding(tensor, "spmttkrp", 0)
        _, hit_mode, _ = cache.encoding(tensor, "spmttkrp", 1)
        _, hit_op, _ = cache.encoding(tensor, "spttm", 0)
        assert not hit_mode and not hit_op

    def test_shared_across_equal_content(self):
        cache = PreprocCache()
        a = random_sparse_tensor((8, 9, 10), 100, seed=1)
        b = SparseTensor(np.asarray(a.indices), np.asarray(a.values), a.shape)
        cache.encoding(a, "spmttkrp", 0)
        _, hit, _ = cache.encoding(b, "spmttkrp", 0)
        assert hit  # two tenants, same upload, one entry

    def test_every_encoding_stays_cached(self):
        # The cache has no budget and evicts nothing: after one miss each,
        # every tensor's encoding hits again, the oldest included.
        tensors = [random_sparse_tensor((8, 9, 10), 120, seed=s) for s in range(4)]
        cache = PreprocCache()
        built = [cache.encoding(t, "spmttkrp", 0)[0] for t in tensors]
        again = [cache.encoding(t, "spmttkrp", 0) for t in tensors]
        assert all(hit and cost == 0.0 for _, hit, cost in again)
        assert all(first is encoding for first, (encoding, _, _) in zip(built, again))
        assert (cache.stats.encode_misses, cache.stats.encode_hits) == (4, 4)

    def test_tuner_config_reuse(self):
        cache = PreprocCache()
        tensor = CASES["order3-uniform"]()
        encoding = cache.encoding(tensor, "spmttkrp", 0)[0]
        cfg1, hit1, cost1 = cache.tuner_config(tensor, "spmttkrp", 0, RANK, encoding=encoding)
        cfg2, hit2, cost2 = cache.tuner_config(tensor, "spmttkrp", 0, RANK, encoding=encoding)
        assert (hit1, hit2) == (False, True)
        assert cost1 > 0.0 and cost2 == 0.0
        assert cfg1 == cfg2
        block_size, threadlen = cfg1
        assert block_size > 0 and threadlen > 0

    def test_tuner_miss_charges_each_configuration_that_fits(self):
        tensor = random_sparse_tensor((20, 20, 20), 300, seed=5)
        encoding = FCOOTensor.from_sparse(tensor, "spmttkrp", 0)
        assert len(SERVING_BLOCK_SIZES) * len(SERVING_THREADLENS) == 9
        _, _, cost = PreprocCache().tuner_config(tensor, "spmttkrp", 0, 8, encoding=encoding)
        assert cost == 9 * TUNER_SECONDS_PER_CONFIG
        # On this device the threadlen-32 cells do not fit even streamed:
        # only the six that do are charged, and the config is one of them.
        tiny = scaled_device(TITAN_X, 2e-7, name_suffix="tiny")
        config, _, cost = PreprocCache().tuner_config(
            tensor, "spmttkrp", 0, 8, encoding=encoding, device=tiny
        )
        assert cost == 6 * TUNER_SECONDS_PER_CONFIG
        assert config[1] != 32


# ---------------------------------------------------------------------- #
# Geometry + placement
# ---------------------------------------------------------------------- #
class TestPlacement:
    @pytest.mark.parametrize("rank", [RANK, 16])
    @pytest.mark.parametrize("case", ["order3-power", "order4-power"])
    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_geometry_matches_kernel_footprint(self, kind, case, rank):
        # Placement sizes a job from shape statistics alone; every mode's
        # sizes must equal the ones the kernel's own operation spec prices.
        tensor = CASES[case]()
        for mode in range(tensor.order):
            job = Job(job_id=0, tenant="t", kind=kind, tensor=tensor, rank=rank, mode=mode)
            geometry = job_geometry(job)
            fcoo = FCOOTensor.from_sparse(tensor, kind.operation, mode)
            spec = operation_spec(fcoo, kind.operation, rank)
            assert geometry.fcoo_bytes == fcoo.storage_bytes(SERVE_THREADLEN)
            assert geometry.output_bytes == spec.output_bytes
            assert geometry.resident_bytes == float(spec.factor_bytes + spec.output_bytes)

    def test_admission_rejects_oversized_dense_operands(self):
        indices = np.stack(
            [np.arange(100) * 999, np.arange(100) % 5, np.arange(100) % 7], axis=1
        )
        giant = SparseTensor(indices, np.ones(100), (100_000, 5, 7))
        job = Job(job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=giant, rank=16)
        engine = ServingEngine(hetero_cluster(16_000, 8_000))
        report = engine.run([job])
        (result,) = report.results
        assert result.status is JobStatus.REJECTED
        assert "resident operands" in result.reject_reason

    def test_admission_leaves_room_for_the_stream_buffers(self):
        # The bound is the resident operands plus NUM_STREAMS chunk buffers
        # of THREADLEN non-zeros each: a device holding the operands alone
        # is refused, one byte-rounded up to the bound is admitted.
        tensor = CASES[BIG_CASE]()
        job = Job(job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK)
        geometry = job_geometry(job)
        buffers = SERVE_NUM_STREAMS * SERVE_THREADLEN * geometry.bytes_per_nnz
        needed = geometry.resident_bytes + buffers
        short = math.ceil(needed) - 1
        assert geometry.resident_bytes < short
        assert Placer(one_device_cluster(math.ceil(needed))).admit(job, geometry) is None
        reason = Placer(one_device_cluster(short)).admit(job, geometry)
        assert reason == (
            f"resident operands need {needed:.0f} B but the largest device holds {short} B"
        )

    def test_fast_device_preferred_when_idle(self):
        engine = ServingEngine(hetero_cluster(1 << 30, 1 << 29))
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.SPMTTKRP,
            tensor=CASES["order3-uniform"](),
            rank=RANK,
        )
        geometry = job_geometry(job)
        placement = engine.scheduler.placer.place(geometry, [0.0, 0.0, 0.0], 0.0)
        assert placement.device_slots == (0,)
        # With slot 0 busy far into the future, slot 1 wins.
        placement = engine.scheduler.placer.place(geometry, [1.0, 0.0, 0.0], 0.0)
        assert placement.device_slots == (1,)

    def test_oversized_job_sharded_across_cluster(self):
        cluster = hetero_cluster(6_000, 3_500)
        engine = ServingEngine(cluster)
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.SPMTTKRP,
            tensor=CASES[BIG_CASE](),
            rank=RANK,
        )
        report = engine.run([job])
        (result,) = report.results
        assert result.completed and result.execution == "sharded"
        assert result.device_slots == (0, 1, 2)


# ---------------------------------------------------------------------- #
# Scheduler behaviour
# ---------------------------------------------------------------------- #
class TestScheduler:
    def _identical_jobs(self, n, tensor, priorities=None, arrival=0.0):
        priorities = priorities or [1] * n
        return [
            Job(
                job_id=i,
                tenant=f"t{i}",
                kind=JobKind.SPMTTKRP,
                tensor=tensor,
                mode=0,
                rank=RANK,
                priority=priorities[i],
                arrival_s=arrival,
                factor_seed=i,
            )
            for i in range(n)
        ]

    def test_deterministic_schedule(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=25, seed=7))
        first = ServingEngine(autotune=True).run(jobs)
        second = ServingEngine(autotune=True).run(
            generate_workload(WorkloadSpec(num_jobs=25, seed=7))
        )
        np.testing.assert_array_equal(first.latencies_s, second.latencies_s)
        assert first.makespan_s == second.makespan_s
        assert [r.device_slots for r in first.results] == [
            r.device_slots for r in second.results
        ]

    def test_priority_overtakes_fifo_order(self):
        tensor = CASES["order3-uniform"]()
        cluster = one_device_cluster(1 << 30)
        jobs = _unbatchable(self._identical_jobs(5, tensor, priorities=[1, 1, 1, 1, 0]))
        by_priority = ServingEngine(cluster, policy="priority").run(jobs)
        by_fifo = ServingEngine(cluster, policy="fifo").run(jobs)
        pri = {r.job.job_id: r for r in by_priority.results}
        fifo = {r.job.job_id: r for r in by_fifo.results}
        # Under priority, the urgent job (id 4) runs before the batch-class
        # job 1; under FIFO it runs last.
        assert pri[4].exec_start_s < pri[1].exec_start_s
        assert fifo[4].exec_start_s > fifo[1].exec_start_s

    def test_lost_node_copy_engine_sets_no_dispatch_instant(self):
        # Jobs 1 and 2 arrive while job 0 stages, so the urgent job 2
        # stages next.  A two-node cluster that loses node 0 at once keeps
        # one device and must schedule exactly like a one-device cluster:
        # the dead node's idle copy engine never makes "now" the instant
        # of the next staging.
        tensor = CASES["order3-uniform"]()
        jobs = _unbatchable(self._identical_jobs(3, tensor, priorities=[1, 1, 0]))
        solo = ClusterSpec.homogeneous(TITAN_X, 1)
        (first,) = ServingEngine(solo).run(jobs[:1]).results
        arrivals = [0.0] + [first.stage_start_s + k * first.stage_s / 3.0 for k in (1, 2)]
        jobs = [replace(job, arrival_s=a) for job, a in zip(jobs, arrivals)]

        def staged(report):
            ordered = sorted(report.results, key=lambda r: r.stage_start_s)
            return [(r.job.job_id, r.stage_start_s) for r in ordered]

        alone = staged(ServingEngine(solo).run(jobs))
        lost = ServingEngine(ClusterSpec.homogeneous(TITAN_X, 1, num_nodes=2)).run(
            jobs, chaos=[NodeFailure(time_s=1e-9, node_index=0)]
        )
        assert [job_id for job_id, _ in alone] == [0, 2, 1]
        assert staged(lost) == alone

    def test_batching_shares_one_staging(self):
        tensor = CASES["order3-uniform"]()
        cluster = one_device_cluster(1 << 30)
        jobs = self._identical_jobs(4, tensor)
        report = ServingEngine(cluster).run(jobs)
        batched = [r for r in report.results if r.batch_id is not None]
        # All four become stage-ready together when the shared encoding's
        # build completes (the hits wait for the miss's build), so they
        # ride one batch.
        assert len(batched) == 4
        leaders = [r for r in batched if r.batch_leader]
        assert len(leaders) == 1
        (leader,) = leaders
        for mate in batched:
            if not mate.batch_leader:
                # Mates reuse the staged encoding: only dense operands move.
                assert mate.stage_s < leader.stage_s
        # Batch members execute back to back on the one device.
        starts = sorted(r.exec_start_s for r in batched)
        assert all(b >= a for a, b in zip(starts, starts[1:]))

    def test_batches_hold_at_most_max_batch_jobs(self):
        tensor = CASES["order3-uniform"]()
        jobs = self._identical_jobs(MAX_BATCH + 2, tensor)
        report = ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        assert all(r.completed for r in report.results)
        sizes = Counter(r.batch_id for r in report.results if r.batch_id is not None)
        # All six are stage-ready together: a full batch, then the rest.
        assert sorted(sizes.values()) == [2, MAX_BATCH]

    def test_unbatchable_jobs_share_the_encoding_not_a_batch(self):
        # ``_unbatchable`` gives each job its own batch key but keeps the
        # tensor, operation and mode the encoding is keyed by.
        tensor = CASES["order3-uniform"]()
        jobs = _unbatchable(self._identical_jobs(MAX_BATCH, tensor))
        report = ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        assert all(r.completed and r.batch_id is None for r in report.results)
        stats = report.cache_stats
        assert (stats.encode_misses, stats.encode_hits) == (1, MAX_BATCH - 1)

    def test_decomposition_never_rides_a_kernel_batch(self):
        # A CP job shares the kernel's batch_key (its preprocessing is the
        # SpMTTKRP encoding) but must keep its own placement and never
        # batch with kernel invocations.
        tensor = CASES["order3-uniform"]()
        kernel_jobs = self._identical_jobs(3, tensor)
        cp_job = Job(
            job_id=10,
            tenant="cp",
            kind=JobKind.CP_ALS,
            tensor=tensor,
            rank=RANK,
            iterations=1,
        )
        report = ServingEngine(one_device_cluster(1 << 30)).run(kernel_jobs + [cp_job])
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[10].batch_id is None
        assert by_id[10].execution == "decomposition"

    def test_report_cache_stats_are_a_snapshot(self):
        tensor = CASES["order3-uniform"]()
        engine = ServingEngine(one_device_cluster(1 << 30))
        first = engine.run(self._identical_jobs(2, tensor))
        misses_after_first = first.cache_stats.encode_misses
        engine.run(
            [
                Job(
                    job_id=99,
                    tenant="t",
                    kind=JobKind.SPMTTKRP,
                    tensor=CASES["order3-power"](),
                    rank=RANK,
                )
            ]
        )
        # The second run's misses must not leak into the first report.
        assert first.cache_stats.encode_misses == misses_after_first

    def test_cache_hit_waits_for_encoding_build(self):
        # A hit is free, but the encoding it reuses must physically exist:
        # a job arriving just behind the miss that builds the entry cannot
        # stage before that build completes in simulated time.
        from repro.serve.cache import ENCODE_SECONDS_PER_NNZ

        tensor = CASES["order3-power"]()
        build_s = tensor.nnz * ENCODE_SECONDS_PER_NNZ
        jobs = [
            Job(job_id=0, tenant="a", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK),
            Job(
                job_id=1,
                tenant="b",
                kind=JobKind.SPMTTKRP,
                tensor=tensor,
                rank=RANK,
                arrival_s=build_s / 10.0,
            ),
        ]
        report = ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[1].encode_cache_hit
        assert by_id[1].stage_start_s >= build_s - 1e-12

    def test_tuner_hit_waits_for_sweep_build(self):
        # Same asymmetry guard for the tuner cache: a hit cannot make a
        # job stage-ready before the sweep that built the config finishes.
        tensor = CASES["order3-power"]()
        jobs = [
            Job(job_id=0, tenant="a", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK),
            Job(
                job_id=1,
                tenant="b",
                kind=JobKind.SPMTTKRP,
                tensor=tensor,
                rank=RANK,
                arrival_s=1e-9,
            ),
        ]
        report = ServingEngine(one_device_cluster(1 << 30), autotune=True).run(jobs)
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[1].tuner_cache_hit
        # Job 0's preproc is the encode + sweep; job 1 cannot stage earlier
        # than that build completes.
        assert by_id[1].stage_start_s >= by_id[0].job.arrival_s + by_id[0].preproc_s - 1e-12

    def test_tuner_miss_sweeps_the_cached_encoding(self, monkeypatch):
        # A tuner miss prices the encoding the cache already built, so a
        # cold run encodes once per encode miss and never for the tuner.
        encode = FCOOTensor.from_sparse.__func__
        encoded = []

        def counting(cls, *args, **kwargs):
            encoded.append(args[1:3])
            return encode(cls, *args, **kwargs)

        monkeypatch.setattr(FCOOTensor, "from_sparse", classmethod(counting))
        names = ["order3-uniform", "order3-power", "order4-uniform", "order4-power"]
        cases = [(name, kind) for name in names for kind in KERNEL_KINDS]
        # A CP and a Tucker job hand their cached encodings to the engine
        # and the HOOI passes: serving them encodes nothing more either.
        cases += [("order3-power", JobKind.CP_ALS), ("order4-uniform", JobKind.TUCKER)]
        jobs = [
            Job(
                job_id=i,
                tenant=f"t{i}",
                kind=kind,
                tensor=CASES[name](),
                mode=i % 3,
                rank=RANK,
                arrival_s=1e-3 * i,
            )
            for i, (name, kind) in enumerate(cases)
        ]
        report = ServingEngine(one_device_cluster(1 << 30), autotune=True).run(jobs)
        assert all(r.completed for r in report.results)
        assert {r.execution for r in report.results} >= {"one-shot", "decomposition"}
        assert report.cache_stats.tuner_misses == len(names) * len(KERNEL_KINDS)
        assert len(encoded) == report.cache_stats.encode_misses

    def test_execution_capacity_failure_rejects_job_not_run(self, monkeypatch):
        # The admission estimate is first-order; if the kernel itself runs
        # out of device memory, that one job is rejected and the rest of
        # the workload still completes.
        import repro.serve.scheduler as scheduler_module
        from repro.gpusim.timing import OutOfDeviceMemory

        tensor = CASES["order3-uniform"]()
        jobs = _unbatchable(self._identical_jobs(3, tensor))
        real_price = scheduler_module.price_job

        def flaky_price(job, placement, *args, **kwargs):
            if job.job_id == 1:
                raise OutOfDeviceMemory(1e9, 1e6, what="test kernel")
            return real_price(job, placement, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "price_job", flaky_price)
        report = ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        by_id = {r.job.job_id: r for r in report.results}
        assert not by_id[1].completed
        assert "rejected at execution" in by_id[1].reject_reason
        assert by_id[0].completed and by_id[2].completed

    def test_batch_mate_capacity_failure_rejects_the_mate_not_run(self, monkeypatch):
        # Job 1 rides job 0's batch; its pricing failure rejects job 1 alone,
        # and the leader and the other mate keep a clean run's outputs.
        import repro.serve.scheduler as scheduler_module
        from repro.gpusim.timing import OutOfDeviceMemory
        from repro.obs import EventLog

        tensor = CASES["order3-uniform"]()
        jobs = self._identical_jobs(3, tensor)
        clean_run = ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        clean = {r.job.job_id: r for r in clean_run.results}
        assert clean[0].batch_leader and clean[1].batch_id == clean[0].batch_id
        real_price = scheduler_module.price_job

        def flaky_price(job, placement, *args, **kwargs):
            if job.job_id == 1:
                raise OutOfDeviceMemory(1e9, 1e6, what="test kernel")
            return real_price(job, placement, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "price_job", flaky_price)
        events = EventLog()
        report = ServingEngine(one_device_cluster(1 << 30)).run(jobs, events=events)
        by_id = {r.job.job_id: r for r in report.results}
        assert not by_id[1].completed
        assert by_id[1].reject_reason.startswith("rejected at execution: ")
        rejects = [e for e in events.events if e.kind == "reject"]
        assert [(e.job_id, dict(e.fields)["reason"]) for e in rejects] == [
            ("job1", "out_of_device_memory")
        ]
        for job_id in (0, 2):
            assert by_id[job_id].completed
            assert_same_output(by_id[job_id].output, clean[job_id].output)

    def test_unique_job_ids_required(self):
        tensor = CASES["order3-uniform"]()
        jobs = self._identical_jobs(2, tensor)
        clash = [jobs[0], replace(jobs[1], job_id=jobs[0].job_id)]
        with pytest.raises(ValueError, match="unique"):
            ServingEngine(one_device_cluster(1 << 30)).run(clash)

    def test_overbooked_timeline_fails_the_run(self, monkeypatch):
        checked = []

        def overbooked(timeline, **kwargs):
            checked.append(timeline)
            return {"dev1.compute": 0.25, "dev0.copy": 1.5e-06}

        monkeypatch.setattr(Timeline, "violations", overbooked)
        jobs = self._identical_jobs(2, CASES["order3-uniform"]())
        with pytest.raises(
            RuntimeError,
            match=r"over-booked its timeline: dev0\.copy busy 1\.5e-06 s longer "
            r"than the run, dev1\.compute busy 0\.25 s longer than the run$",
        ):
            ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        assert len(checked) == 1

    def test_unreconciled_attribution_fails_the_run(self, monkeypatch):
        import repro.serve.scheduler as scheduler_module

        real_attribute = scheduler_module.attribute

        def unreconciled(timeline):
            attribution = real_attribute(timeline)
            attribution.resources["dev0.compute"].busy_s += 0.5
            return attribution

        monkeypatch.setattr(scheduler_module, "attribute", unreconciled)
        jobs = self._identical_jobs(2, CASES["order3-uniform"]())
        with pytest.raises(
            RuntimeError, match=r"attribution does not reconcile: dev0\.compute gap (\S+) s$"
        ) as failure:
            ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        gap = failure.value.args[0].rsplit(" gap ", 1)[1].removesuffix(" s")
        assert float(gap) == pytest.approx(0.5)

    def test_unreconciled_attribution_names_every_resource(self, monkeypatch):
        import repro.serve.scheduler as scheduler_module

        real_attribute = scheduler_module.attribute

        def unreconciled(timeline):
            attribution = real_attribute(timeline)
            attribution.resources["dev0.compute"].busy_s += 0.5
            attribution.resources["dev0.copy"].busy_s -= 0.25
            return attribution

        monkeypatch.setattr(scheduler_module, "attribute", unreconciled)
        jobs = self._identical_jobs(2, CASES["order3-uniform"]())
        with pytest.raises(RuntimeError) as failure:
            ServingEngine(one_device_cluster(1 << 30)).run(jobs)
        _, named = failure.value.args[0].split("does not reconcile: ")
        entries = [entry.split(" gap ") for entry in named.split(", ")]
        assert [key for key, _ in entries] == ["dev0.compute", "dev0.copy"]
        gaps = [float(gap.removesuffix(" s")) for _, gap in entries]
        assert gaps == [pytest.approx(0.5), pytest.approx(-0.25)]

    def test_report_invariants(self):
        report = run_serving(num_jobs=40, seed=0)
        assert len(report.results) == 40
        assert report.makespan_s >= max(r.exec_s for r in report.completed)
        assert report.p99_latency_s >= report.p50_latency_s > 0.0
        for r in report.completed:
            assert r.finish_s >= r.exec_start_s >= r.stage_start_s >= r.job.arrival_s
            assert r.latency_s > 0.0
        for utilization in report.device_utilization.values():
            assert 0.0 <= utilization <= 1.0
        assert 0.0 < report.overall_utilization <= 1.0
        text = report.render()
        for needle in ("throughput", "p50", "p99", "utilization", "cache"):
            assert needle in text


# ---------------------------------------------------------------------- #
# The central property: serving never changes numerics
# ---------------------------------------------------------------------- #
class TestServingBitIdentity:
    def _corpus_jobs(self):
        jobs = []
        job_id = 0
        arrival = 0.0
        for name, build in CASES.items():
            tensor = build()
            for kind in KERNEL_KINDS:
                for copy in range(2):  # duplicate tenant submissions
                    arrival += 1e-6
                    jobs.append(
                        Job(
                            job_id=job_id,
                            tenant=f"tenant-{copy}",
                            kind=kind,
                            tensor=tensor,
                            mode=0,
                            rank=RANK,
                            priority=job_id % 2,
                            arrival_s=arrival,
                            factor_seed=17,  # shared: duplicates must agree
                        )
                    )
                    job_id += 1
        return jobs

    def test_scheduled_equals_sequential_for_all_kernels(self):
        jobs = self._corpus_jobs()
        engine = ServingEngine(default_serving_cluster())
        report = engine.run(jobs)
        assert all(r.completed for r in report.results)
        assert report.cache_stats.encode_hits > 0  # duplicates hit

        outputs = {}
        for result in report.results:
            job = result.job
            # 1. Computing the job alone reproduces the scheduled output bit
            #    for bit (cache, batching and queueing never touched the
            #    numerics), and pricing its recorded placement alone its
            #    modeled seconds.
            assert_replays(result)
            # 2. Single-device one-shot numerics are device-independent:
            #    the plain kernel on the default device must agree exactly.
            if result.execution == "one-shot":
                direct = run_kernel(
                    KERNEL_KINDS[job.kind], job.tensor, job.factors(), job.mode
                )
                assert_same_output(result.output, direct.output)
            # 3. And everything stays numerically faithful to the oracle.
            if job.tensor.nnz:
                assert_close_to_reference(result.output, job)
            outputs.setdefault(
                (job.tensor.content_key, job.kind.value, job.rank), []
            ).append(result.output)
        # 4. Duplicate submissions (cache-hit path) agree bit for bit.
        for twins in outputs.values():
            for other in twins[1:]:
                assert_same_output(twins[0], other)

    def test_sharded_job_bit_identity(self):
        tensor = CASES[BIG_CASE]()
        cluster = hetero_cluster(6_000, 3_500)
        engine = ServingEngine(cluster)
        job = Job(
            job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK
        )
        (result,) = engine.run([job]).results
        assert result.execution == "sharded"
        assert_replays(result)
        # The recorded placement is the whole cluster, so the direct
        # cluster call reproduces it exactly too.
        direct = run_kernel(
            unified_spmttkrp, tensor, job.factors(), 0, ctx=ExecContext(cluster=cluster)
        )
        assert_same_output(result.output, direct.output)
        assert_close_to_reference(result.output, job)

    def test_shard_streamed_fallback_bit_identity(self):
        tensor = CASES[BIG_CASE]()
        cluster = hetero_cluster(3_000, 2_200)
        engine = ServingEngine(cluster)
        job = Job(
            job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK
        )
        (result,) = engine.run([job]).results
        assert result.execution == "sharded"
        profile = price_job(job, result.placement).profile
        assert any(s.streaming is not None for s in profile.sharded.shards)
        assert_replays(result)
        assert_close_to_reference(result.output, job)

    def test_streamed_single_device_bit_identity(self):
        tensor = CASES[BIG_CASE]()
        cluster = one_device_cluster(5_000)
        engine = ServingEngine(cluster)
        job = Job(
            job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK
        )
        (result,) = engine.run([job]).results
        assert result.execution == "streamed"
        assert_replays(result)
        direct = run_kernel(
            unified_spmttkrp,
            tensor,
            job.factors(),
            0,
            device=cluster.devices[0],
        )
        assert direct.profile.streaming is not None
        assert_same_output(result.output, direct.output)
        assert_close_to_reference(result.output, job)


# ---------------------------------------------------------------------- #
# Decomposition jobs + cache wiring in the drivers
# ---------------------------------------------------------------------- #
class TestDecompositionJobs:
    def test_cp_job_matches_direct_cp_als(self):
        tensor = CASES["order3-uniform"]()
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.CP_ALS,
            tensor=tensor,
            rank=RANK,
            iterations=2,
            factor_seed=5,
        )
        engine = ServingEngine(default_serving_cluster())
        (result,) = engine.run([job]).results
        assert result.completed and result.execution == "decomposition"
        direct = cp_als(
            tensor,
            RANK,
            engine=UnifiedGPUEngine(device=result.placement.device),
            max_iterations=2,
            seed=5,
            compute_fit=False,
        )
        for served, reference in zip(result.output.factors, direct.factors):
            np.testing.assert_array_equal(served, reference)
        np.testing.assert_array_equal(result.output.weights, direct.weights)

    def test_tucker_job_matches_direct_hooi(self):
        tensor = CASES["order3-uniform"]()
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.TUCKER,
            tensor=tensor,
            rank=3,
            iterations=2,
            factor_seed=9,
        )
        engine = ServingEngine(default_serving_cluster())
        (result,) = engine.run([job]).results
        assert result.completed
        direct = tucker_hooi(
            tensor,
            job.tucker_ranks,
            device=result.placement.device,
            max_iterations=2,
            seed=9,
        )
        np.testing.assert_array_equal(result.output.core, direct.core)
        for served, reference in zip(result.output.factors, direct.factors):
            np.testing.assert_array_equal(served, reference)


# ---------------------------------------------------------------------- #
# Numerics once per job, however often it is priced
# ---------------------------------------------------------------------- #
class TestNumericsOncePerJob:
    def test_deadline_chaos_run_computes_each_job_once(self, monkeypatch):
        # Spy on every module attribute bound to execute_job, the way a
        # tracer wraps it.
        import sys

        import repro.serve.execute as execute_module

        real = execute_module.execute_job
        calls = []

        def spy(job, **kwargs):
            calls.append(job.job_id)
            return real(job, **kwargs)

        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
        # Deadline re-commits and a node loss that re-queues jobs: each
        # job is still computed once.
        report = run_serving(
            num_jobs=36,
            nodes=2,
            policy="deadline",
            slo_fraction=0.3,
            deadline_slack=200.0,
            chaos_seed=0,
            fail_node=0,
        )
        assert report.requeued_jobs >= 1 and report.preemptions
        assert any(r.execution == "decomposition" for r in report.completed)
        assert sorted(calls) == sorted(r.job.job_id for r in report.completed)
        # What was served replays: re-queued, preempted and 2-node sharded
        # decompositions included.
        for result in report.completed:
            assert_replays(result)


# ---------------------------------------------------------------------- #
# Engine arguments accepted and ignored
# ---------------------------------------------------------------------- #
class TestInertEngineArguments:
    def test_unknown_nic_policy_rejected(self):
        with pytest.raises(ValueError, match="nic_policy"):
            ServingEngine(default_serving_cluster(), nic_policy="weighted")

    @pytest.mark.parametrize(
        "inert",
        [
            {"nic_policy": "fifo"},
            {"nic_policy": "fair"},
            {"nic_policy": "priority"},
            {"adaptive": True},
        ],
        ids=["fifo", "fair", "priority", "adaptive"],
    )
    def test_accepted_value_changes_nothing(self, inert):
        """Every run is one static scheduler run and every collective queues
        in arrival order, whatever the value: a two-node engine given an
        accepted value logs and publishes exactly what one given none
        does, cold and warm."""
        jobs = generate_workload(
            WorkloadSpec(num_jobs=6, seed=3, cross_node_every=2, latency_slo_fraction=0.5)
        )
        plain = ServingEngine(default_multinode_serving_cluster(2), autotune=True)
        given = ServingEngine(default_multinode_serving_cluster(2), autotune=True, **inert)
        for _ in range(2):
            a, b = plain.run(jobs), given.run(jobs)
            assert b.events.to_jsonl() == a.events.to_jsonl()
            assert b.metrics.to_prometheus() == a.metrics.to_prometheus()


# ---------------------------------------------------------------------- #
# Admission: one bad tensor cannot take the server down
# ---------------------------------------------------------------------- #
def _poisoned(poison):
    """A 30x20x10 tensor whose values pass through ``poison``."""

    def make():
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        values = poison(np.array(tensor.values))
        return SparseTensor(tensor.indices, values, tensor.shape)

    return make


def _one_value(value):
    """A poisoned tensor with one value set to ``value``."""

    def poison(values):
        values[7] = value
        return values

    return _poisoned(poison)


def _order_one():
    """A tensor of shape ``(5,)``: one mode, so no F-COO operation."""
    return SparseTensor(np.array([[0], [2], [4]]), np.array([1.0, 2.0, 3.0]), (5,))


NOT_FINITE = "1 tensor value(s) are not finite"
ALL_ZERO = "every tensor value is zero"
ORDER_ONE = "tensor order 1 is below 2"
#: Below float32's smallest subnormal: non-zero as float64, zero in F-COO.
FLUSHED = _poisoned(lambda values: np.full_like(values, 1e-46))


class TestPoisonAdmission:
    @pytest.mark.parametrize(
        "kind, bad_tensor, reason",
        [
            (JobKind.CP_ALS, _one_value(np.nan), NOT_FINITE),
            (JobKind.SPMTTKRP, _one_value(1e308), NOT_FINITE),
            (JobKind.TUCKER, _one_value(np.inf), NOT_FINITE),
            (JobKind.CP_ALS, _poisoned(np.zeros_like), ALL_ZERO),
            (JobKind.TUCKER, _poisoned(np.zeros_like), ALL_ZERO),
            (JobKind.CP_ALS, FLUSHED, ALL_ZERO),
            (JobKind.TUCKER, FLUSHED, ALL_ZERO),
            (JobKind.SPTTM, _order_one, ORDER_ONE),
            (JobKind.SPMTTKRP, _order_one, ORDER_ONE),
            (JobKind.CP_ALS, _order_one, ORDER_ONE),
            (JobKind.TUCKER, _order_one, ORDER_ONE),
        ],
        ids=[
            "nan-cp",
            "overflow-spmttkrp",
            "inf-tucker",
            "zero-cp",
            "zero-tucker",
            "flushed-cp",
            "flushed-tucker",
            "order1-spttm",
            "order1-spmttkrp",
            "order1-cp",
            "order1-tucker",
        ],
    )
    def test_bad_value_rejected_and_good_job_completes(self, kind, bad_tensor, reason):
        poisoned = bad_tensor()
        good = Job(
            job_id=0,
            tenant="good",
            kind=JobKind.SPMTTKRP,
            tensor=random_sparse_tensor((30, 20, 10), 500, seed=2),
            rank=4,
        )
        bad = Job(
            job_id=1, tenant="bad", kind=kind, tensor=poisoned, rank=4, arrival_s=1e-6
        )
        report = ServingEngine(default_serving_cluster()).run([good, bad])
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[0].completed
        assert_same_output(by_id[0].output, execute_job(good))
        assert by_id[1].status is JobStatus.REJECTED
        assert reason in by_id[1].reject_reason
        (reject,) = [e for e in report.events.events if e.kind == "reject"]
        assert reject.job_id == "job1"
        assert dict(reject.fields)["reason"] == "admission_control"

    def test_all_zero_kernel_job_is_admitted(self):
        # Only a decomposition's fit needs a non-zero norm: a kernel job on
        # an all-zero tensor is served and its output is all zero.
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=1)
        zero = SparseTensor(tensor.indices, np.zeros_like(tensor.values), tensor.shape)
        job = Job(job_id=0, tenant="zero", kind=JobKind.SPMTTKRP, tensor=zero, rank=4)
        (result,) = ServingEngine(default_serving_cluster()).run([job]).results
        assert result.completed
        assert_same_output(result.output, execute_job(job))
        assert not np.any(result.output)


class TestTuckerRanks:
    @pytest.mark.parametrize(
        "shape, rank, expected",
        [
            ((30, 20, 10), 3, (3, 3, 3)),
            ((1, 1, 500), 4, (1, 1, 1)),
            ((2, 3, 500), 8, (2, 3, 6)),
            ((2, 500), 4, (2, 2)),
            ((5, 5, 2, 2), 9, (5, 5, 2, 2)),
        ],
    )
    def test_ranks_clamp_to_the_shape_and_the_multilinear_bound(self, shape, rank, expected):
        job = Job(0, "t", JobKind.TUCKER, random_sparse_tensor(shape, 50, seed=0), rank=rank)
        assert job.tucker_ranks == expected

    @given(
        st.lists(st.integers(1, 12), min_size=2, max_size=5),
        st.integers(1, 16),
    )
    def test_clamped_ranks_keep_every_mode_within_the_others(self, shape, rank):
        job = Job(0, "t", JobKind.TUCKER, random_sparse_tensor(shape, 5, seed=0), rank=rank)
        ranks = job.tucker_ranks
        shape_clamped = [min(rank, s) for s in shape]
        for m, r in enumerate(ranks):
            assert 1 <= r <= shape_clamped[m]
            assert r <= math.prod(ranks[:m] + ranks[m + 1 :])
        # Only the one strictly largest shape-clamped rank may move.
        moved = [m for m, r in enumerate(ranks) if r != shape_clamped[m]]
        assert len(moved) <= 1
        if moved:
            assert shape_clamped[moved[0]] > max(
                r for m, r in enumerate(shape_clamped) if m != moved[0]
            )

    def test_a_rank_past_the_bound_completes_beside_good_jobs(self):
        jobs = [
            Job(0, "bad", JobKind.TUCKER, random_sparse_tensor((1, 1, 500), 200, seed=0), rank=4),
            Job(1, "good", JobKind.TUCKER, random_sparse_tensor((30, 20, 10), 500, seed=1), rank=3),
            Job(2, "good", JobKind.SPMTTKRP, random_sparse_tensor((30, 20, 10), 500, seed=2), rank=4),
        ]
        report = ServingEngine(default_serving_cluster()).run(jobs)
        assert [r.status for r in report.results] == [JobStatus.COMPLETED] * 3
        for result in report.results:
            assert_replays(result)
        assert report.results[0].output.core.shape == (1, 1, 1)


# ---------------------------------------------------------------------- #
# Workload generator, bench runner, regression metrics, CLI
# ---------------------------------------------------------------------- #
class TestWorkloadAndSurfaces:
    def test_workload_deterministic_and_sorted(self):
        a = generate_workload(WorkloadSpec(num_jobs=30, seed=3))
        b = generate_workload(WorkloadSpec(num_jobs=30, seed=3))
        assert len(a) == 30
        assert [j.arrival_s for j in a] == [j.arrival_s for j in b]
        assert [j.tensor.content_key for j in a] == [j.tensor.content_key for j in b]
        arrivals = [j.arrival_s for j in a]
        assert arrivals == sorted(arrivals)
        kinds = {j.kind for j in a}
        assert JobKind.SPMTTKRP in kinds and len(kinds) >= 3

    def test_workload_includes_whale_and_giant(self):
        spec = WorkloadSpec(num_jobs=40, seed=0)
        jobs = generate_workload(spec)
        report = ServingEngine(autotune=False).run(jobs)
        counts = report.execution_counts()
        assert counts.get("sharded", 0) > 0  # the whale sharded
        assert len(report.rejected) > 0  # the giant was refused

    def test_count_metrics_fail_on_any_increase(self):
        from repro.bench.regression import compare_metrics

        regressions = compare_metrics(
            {"serve/rejected_jobs_count": 5.0}, {"serve/rejected_jobs_count": 6.0}
        )
        assert regressions  # +1 rejection fails even though 6/5 < 1.2
        regressions = compare_metrics(
            {"serve/rejected_jobs_count": 5.0}, {"serve/rejected_jobs_count": 4.0}
        )
        assert not regressions  # fewer rejections is an improvement

    def test_metric_on_one_side_only_fails(self):
        from repro.bench.regression import compare_metrics

        shared = {"serve/makespan": 1.0}
        # A gated key the run no longer reports fails, naming the key...
        (failure,) = compare_metrics({**shared, "slo/dropped_count": 0.0}, shared)
        assert failure.startswith("slo/dropped_count: ") and "--update" in failure
        # ...and so does a key no baseline holds.
        (failure,) = compare_metrics(shared, {**shared, "slo/added_makespan": 2.0})
        assert failure.startswith("slo/added_makespan: ") and "--update" in failure
        # Ungated _info metrics may come and go.
        assert compare_metrics({**shared, "a_info": 1.0}, shared) == []
        assert compare_metrics(shared, {**shared, "b_info": 1.0}) == []

    @pytest.mark.parametrize(
        "baseline, current",
        [
            ({"a": 1.0}, {"a": math.nan}),
            ({"a_count": 0.0}, {"a_count": math.nan}),
            ({"a": math.nan}, {"a": 1.0}),
        ],
        ids=["nan-run", "nan-count", "nan-baseline"],
    )
    def test_non_finite_metric_fails(self, baseline, current):
        from repro.bench.regression import compare_metrics

        # NaN fails every comparison, so it must not pass as "no slower".
        (failure,) = compare_metrics(baseline, current)
        assert failure.startswith(f"{next(iter(baseline))}: ") and "not finite" in failure

    def test_tolerance_flag_is_gone(self, capsys):
        from repro.bench.regression import main

        # Each suite's band is a constant; the flag let `nan` pass anything.
        with pytest.raises(SystemExit) as exc:
            main(["--check", "--tolerance", "nan"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_tucker_admission_uses_clamped_ranks(self):
        # The real SpTTMc inside tucker_hooi runs with per-mode ranks
        # clamped to the shape; admission must size it the same way, not
        # with rank**(order-1).
        tensor = random_sparse_tensor((3000, 4, 4), 1500, seed=6)
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.TUCKER,
            tensor=tensor,
            rank=16,
            iterations=1,
        )
        report = ServingEngine(default_serving_cluster()).run([job])
        (result,) = report.results
        assert result.completed, result.reject_reason

    def test_cache_stats_are_per_run(self):
        tensor = CASES["order3-uniform"]()
        engine = ServingEngine(one_device_cluster(1 << 30))
        job = Job(job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK)
        cold = engine.run([job])
        warm = engine.run([replace(job, job_id=1)])
        assert cold.cache_stats.encode_misses == 1
        # The warm run reports its own perfect hit rate, not the average.
        assert warm.cache_stats.encode_misses == 0
        assert warm.cache_stats.encode_hit_rate == 1.0

    def test_cli_serve(self, capsys):
        assert cli_main(["serve", "--jobs", "12"]) == 0
        out = capsys.readouterr().out
        assert "Serving report" in out and "throughput" in out

    def test_cli_serve_fifo_policy(self, capsys):
        assert cli_main(["serve", "--jobs", "8", "--policy", "fifo"]) == 0
        assert "policy=fifo" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# Hypothesis sweep (the nightly CI profile raises max_examples)
# ---------------------------------------------------------------------- #


class TestServingHypothesis:
    """Arbitrary small workloads: serving is deterministic and replayable.

    For any seeded workload, a serving run is (a) reproducible — a fresh
    engine on the same jobs yields the identical schedule — and (b) honest
    about numerics — every completed job, decompositions included, replays
    bit for bit through the pure ``execute_job``, and ``price_job`` on its
    recorded placement reproduces its modeled seconds and path.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_jobs=st.integers(min_value=2, max_value=8),
        policy=st.sampled_from(["priority", "fifo"]),
    )
    def test_deterministic_and_replayable(self, seed, num_jobs, policy):
        spec = WorkloadSpec(num_jobs=num_jobs, seed=seed, giant_every=5)
        jobs = generate_workload(spec)
        first = ServingEngine(default_serving_cluster(), policy=policy).run(jobs)
        second = ServingEngine(default_serving_cluster(), policy=policy).run(jobs)
        assert [r.status for r in first.results] == [r.status for r in second.results]
        for a, b in zip(first.results, second.results):
            assert a.finish_s == b.finish_s
            assert a.device_slots == b.device_slots
            if a.completed and a.job.kind.is_kernel:
                assert_same_output(a.output, b.output)
            if a.completed:
                assert_replays(a)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_jobs=st.integers(min_value=2, max_value=8),
    )
    def test_warm_run_changes_no_value(self, seed, num_jobs):
        """A second run on the same engine serves from the encodings and
        tuner configurations the first run cached: it moves work in time,
        never in value, so every job completed by both runs has the same
        output, and every warm result replays."""
        jobs = generate_workload(WorkloadSpec(num_jobs=num_jobs, seed=seed))
        engine = ServingEngine(default_serving_cluster(), autotune=True)
        cold, warm = engine.run(jobs), engine.run(jobs)
        served = {r.job.job_id: r for r in cold.completed}
        for result in warm.completed:
            if result.job.job_id in served and result.job.kind.is_kernel:
                assert_same_output(result.output, served[result.job.job_id].output)
            assert_replays(result)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_jobs=st.integers(min_value=2, max_value=6),
        cross_node_every=st.sampled_from([2, 3]),
        latency_slo_fraction=st.sampled_from([0.0, 0.5]),
        policy=st.sampled_from(["priority", "deadline"]),
    )
    def test_multinode_runs_over_book_nothing(
        self, seed, num_jobs, cross_node_every, latency_slo_fraction, policy
    ):
        """On two nodes, where cross-node collectives queue on the NICs in
        arrival order and, under the deadline policy, latency-SLO tenants
        preempt batch jobs, neither a cold nor a warm run books any
        resource for longer than the run, and every completed job
        replays."""
        jobs = generate_workload(
            WorkloadSpec(
                num_jobs=num_jobs,
                seed=seed,
                cross_node_every=cross_node_every,
                latency_slo_fraction=latency_slo_fraction,
            )
        )
        engine = ServingEngine(
            default_multinode_serving_cluster(2), policy=policy, autotune=True
        )
        for _ in range(2):  # cold run, then warm
            report = engine.run(jobs)
            assert report.timeline.violations() == {}
            for result in report.completed:
                assert_replays(result)
