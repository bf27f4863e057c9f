"""Property harness for the out-of-core streamed execution engine.

The central claim: for every unified kernel, **chunked streamed execution
computes the one-shot result bit for bit** — including when a reduction
segment straddles a chunk boundary — and its per-chunk counter ledgers add
up to the one-shot work.  The harness drives all three kernels
over seeded random tensors (orders 3 and 4) plus the adversarial edge cases
(fewer non-zeros than one thread partition, a single segment, an empty
tensor, a segment deliberately spanning a chunk boundary), comparing
streamed vs one-shot vs the reference oracles.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.cp import UnifiedGPUEngine, cp_als
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timeline import ChunkTiming, schedule_chunks
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.reference import reference_mttkrp, reference_spttm, reference_ttmc
from repro.kernels.unified import (
    choose_chunk_nnz,
    unified_spmttkrp,
    unified_spttm,
    unified_spttmc,
)
from repro.tensor.random import random_factors, random_sparse_tensor
from repro.tensor.sparse import SparseTensor

#: Small launch parameters so even the tiny case tensors split into several
#: chunks: each chunk holds two thread partitions.
THREADLEN = 4
BLOCK_SIZE = 32
CHUNK_NNZ = 2 * THREADLEN
RANK = 3


def single_segment_tensor() -> SparseTensor:
    """Every non-zero shares the same (i, j): one fiber AND one slice."""
    k = np.arange(20, dtype=np.int64)
    indices = np.stack([np.full_like(k, 1), np.full_like(k, 1), k], axis=1)
    values = np.linspace(1.0, 2.0, k.size)
    return SparseTensor(indices, values, (3, 3, 20))


def boundary_straddling_tensor() -> SparseTensor:
    """One long fiber guaranteed to span several CHUNK_NNZ boundaries.

    Non-zeros sort with the index modes as primary keys, so the 30 entries
    of slice/fiber (0, 0, :) occupy positions 0..29 of the stream — chunk
    boundaries at 8, 16, 24 all split it — followed by a handful of short
    segments.
    """
    k_long = np.arange(30, dtype=np.int64)
    long_run = np.stack([np.zeros_like(k_long), np.zeros_like(k_long), k_long], axis=1)
    short = np.array([[1, 2, 3], [2, 0, 1], [2, 4, 7], [3, 1, 0], [3, 1, 9]], dtype=np.int64)
    indices = np.concatenate([long_run, short])
    values = np.linspace(-1.0, 1.0, indices.shape[0]) + 0.1
    return SparseTensor(indices, values, (4, 5, 30))


#: name -> tensor builder; ≥ 5 seeded shapes per kernel, orders 3 and 4.
CASES = {
    "order3-uniform": lambda: random_sparse_tensor((8, 9, 10), 150, seed=42),
    "order3-power": lambda: random_sparse_tensor(
        (30, 50, 40), 600, seed=11, distribution="power", concentration=1.2
    ),
    "order4-uniform": lambda: random_sparse_tensor((5, 6, 7, 4), 120, seed=13),
    "order4-power": lambda: random_sparse_tensor(
        (6, 8, 9, 5), 300, seed=3, distribution="power", concentration=0.9
    ),
    "nnz-below-threadlen": lambda: random_sparse_tensor((4, 4, 4), 3, seed=7),
    "single-segment": single_segment_tensor,
    "empty": lambda: SparseTensor.empty((5, 6, 7)),
    "boundary-straddle": boundary_straddling_tensor,
}

CASE_PARAMS = [pytest.param(build, id=name) for name, build in CASES.items()]


def run_kernel(kernel, tensor, factors, mode, **kwargs):
    if kernel is unified_spttm:
        return unified_spttm(
            tensor, factors[mode], mode,
            block_size=BLOCK_SIZE, threadlen=THREADLEN, **kwargs,
        )
    return kernel(
        tensor, factors, mode,
        block_size=BLOCK_SIZE, threadlen=THREADLEN, **kwargs,
    )


def assert_folds(total, parts):
    """``total`` is ``parts`` folded in order: every additive field the
    parts' values added left to right from zero (plain additions: the
    builtin ``sum`` compensates float rounding on Python 3.12), and
    ``active_threads`` and ``imbalance_factor`` the maxima."""
    for name, value in total.as_dict().items():
        values = [getattr(part, name) for part in parts]
        if name in ("active_threads", "imbalance_factor"):
            assert value == max(values), name
        else:
            assert value == functools.reduce(operator.add, values, 0), name


def run_reference(kernel, tensor, factors, mode):
    if kernel is unified_spttm:
        return reference_spttm(tensor, factors[mode], mode)
    if kernel is unified_spmttkrp:
        return reference_mttkrp(tensor, factors, mode)
    return reference_ttmc(tensor, factors, mode)


class TestChunkPartitioner:
    """FCOOTensor.chunk: alignment, coverage and carry bookkeeping."""

    def test_chunks_cover_stream_contiguously(self):
        fcoo = FCOOTensor.from_sparse(CASES["order3-power"](), "spmttkrp", 0)
        chunks = fcoo.chunk(CHUNK_NNZ, threadlen=THREADLEN)
        assert chunks[0].start == 0
        assert chunks[-1].stop == fcoo.nnz
        for prev, nxt in zip(chunks, chunks[1:]):
            assert prev.stop == nxt.start
            assert nxt.start % THREADLEN == 0
        assert sum(c.nnz for c in chunks) == fcoo.nnz

    def test_segment_offsets_match_global_ids(self):
        fcoo = FCOOTensor.from_sparse(CASES["order3-power"](), "spmttkrp", 0)
        for chunk in fcoo.chunk(CHUNK_NNZ, threadlen=THREADLEN):
            assert chunk.segment_offset == fcoo.segment_ids[chunk.start]
            assert chunk.carries_in == (chunk.start > 0 and not fcoo.bf[chunk.start])
            # Local segment j scatters to row segment_offset + j of the
            # stream's segment table.
            np.testing.assert_array_equal(
                np.unique(fcoo.segment_ids[chunk.start : chunk.stop]),
                chunk.segment_offset + np.arange(chunk.num_segments),
            )

    def test_segment_counts_add_up(self):
        fcoo = FCOOTensor.from_sparse(boundary_straddling_tensor(), "spmttkrp", 0)
        chunks = fcoo.chunk(CHUNK_NNZ, threadlen=THREADLEN)
        carried = sum(c.carries_in for c in chunks)
        # A carried segment is counted locally by both neighbouring chunks.
        assert sum(c.num_segments for c in chunks) == fcoo.num_segments + carried
        # The crafted long fiber must actually straddle chunk boundaries.
        assert carried >= 3

    def test_empty_tensor_has_no_chunks(self):
        fcoo = FCOOTensor.from_sparse(SparseTensor.empty((5, 6, 7)), "spmttkrp", 0)
        assert fcoo.chunk(CHUNK_NNZ, threadlen=THREADLEN) == []

    def test_misaligned_chunk_rejected(self):
        fcoo = FCOOTensor.from_sparse(CASES["order3-uniform"](), "spmttkrp", 0)
        with pytest.raises(ValueError):
            fcoo.chunk(10, threadlen=THREADLEN)
        with pytest.raises(ValueError):
            fcoo.chunk(0, threadlen=THREADLEN)


class TestStreamSchedule:
    """The transfer/compute pipeline model."""

    def test_one_stream_is_fully_serial(self):
        timings = [ChunkTiming(2.0, 3.0), ChunkTiming(1.0, 4.0), ChunkTiming(2.0, 2.0)]
        schedule = schedule_chunks(timings, 1)
        assert schedule.total_time_s == pytest.approx(schedule.serial_time_s)
        assert schedule.overlap_efficiency == pytest.approx(0.0)

    def test_two_streams_land_between_bounds(self):
        timings = [ChunkTiming(2.0, 3.0), ChunkTiming(2.0, 3.0), ChunkTiming(2.0, 3.0)]
        schedule = schedule_chunks(timings, 2)
        assert schedule.ideal_time_s < schedule.total_time_s < schedule.serial_time_s
        # Steady state charges max(transfer, compute) per pipelined chunk:
        # 2 + 3 + 3 + 3 = first transfer plus three computes.
        assert schedule.total_time_s == pytest.approx(11.0)

    def test_more_streams_never_slower(self):
        rng = np.random.default_rng(0)
        timings = [
            ChunkTiming(float(t), float(c))
            for t, c in rng.uniform(0.5, 3.0, size=(10, 2))
        ]
        totals = [schedule_chunks(timings, s).total_time_s for s in (1, 2, 3, 4)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_empty_schedule(self):
        assert schedule_chunks([], 2).total_time_s == 0.0

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            ChunkTiming(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_times_rejected(self, bad):
        # ChunkTiming lets NaN and inf through its sign check; the schedule
        # refuses them, as booking them on a timeline resource would.
        for timing in (ChunkTiming(bad, 1.0), ChunkTiming(1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                schedule_chunks([ChunkTiming(1.0, 1.0), timing], 2)


class TestChunkedEqualsOneShot:
    """The property: streamed output == one-shot output == reference."""

    @pytest.mark.parametrize("kernel", [unified_spttm, unified_spmttkrp, unified_spttmc])
    @pytest.mark.parametrize("build", CASE_PARAMS)
    def test_streamed_matches_one_shot_and_reference(self, kernel, build):
        tensor = build()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        mode = tensor.order - 1 if kernel is unified_spttm else 0

        one_shot = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(streamed=False))
        streamed = run_kernel(
            kernel, tensor, factors, mode, ctx=ExecContext(streamed=True, chunk_nnz=CHUNK_NNZ)
        )
        reference = run_reference(kernel, tensor, factors, mode)

        # Streaming models time only: the numbers are the one-shot kernel's,
        # bit for bit.
        if kernel is unified_spttm:
            assert np.array_equal(streamed.output.fiber_coords, one_shot.output.fiber_coords)
            assert np.array_equal(streamed.output.fiber_values, one_shot.output.fiber_values)
            # The F-COO arrays store single-precision values (the paper's
            # cost model), so reference comparisons get float32 tolerances.
            assert streamed.output.allclose(reference, rtol=1e-5, atol=1e-6)
        else:
            assert np.array_equal(streamed.output, one_shot.output)
            np.testing.assert_allclose(streamed.output, reference, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("kernel", [unified_spttm, unified_spmttkrp, unified_spttmc])
    @pytest.mark.parametrize(
        "build", [CASE_PARAMS[0], CASE_PARAMS[1], CASE_PARAMS[2], CASE_PARAMS[7]]
    )
    def test_chunk_ledgers_sum_consistently(self, kernel, build):
        tensor = build()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        mode = tensor.order - 1 if kernel is unified_spttm else 0

        one_shot = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(streamed=False))
        streamed = run_kernel(
            kernel, tensor, factors, mode, ctx=ExecContext(streamed=True, chunk_nnz=CHUNK_NNZ)
        )
        execution = streamed.profile.streaming
        assert execution is not None
        assert execution.num_chunks == -(-tensor.nnz // CHUNK_NNZ)

        # Non-zero coverage: the chunk ledgers partition the stream exactly.
        assert sum(c.nnz for c in execution.chunks) == tensor.nnz
        # The arithmetic is chunk-size independent, so per-chunk FLOPs must
        # add up to the one-shot kernel's FLOPs.
        total_flops = sum(c.counters.flops for c in execution.chunks)
        assert total_flops == pytest.approx(one_shot.profile.counters.flops, rel=1e-9)
        # Every byte of the F-COO stream is shipped exactly once; the merged
        # profile's PCIe ledger equals the per-chunk transfer sum.
        transfer_total = sum(c.transfer_bytes for c in execution.chunks)
        assert transfer_total >= FCOOTensor.from_sparse(
            tensor,
            OperationKind.SPTTM if kernel is unified_spttm else OperationKind.SPMTTKRP,
            mode,
        ).storage_bytes(THREADLEN)
        assert streamed.profile.counters.host_to_device_bytes == pytest.approx(transfer_total)
        # And the schedule's busy totals are the ledger sums.
        assert execution.schedule.transfer_time_s == pytest.approx(
            sum(c.transfer_s for c in execution.chunks)
        )
        assert execution.schedule.compute_time_s == pytest.approx(
            sum(c.compute_s for c in execution.chunks)
        )

    @pytest.mark.parametrize("kernel", [unified_spttm, unified_spmttkrp, unified_spttmc])
    def test_profile_counters_fold_the_chunk_ledgers(self, kernel):
        tensor = CASES["boundary-straddle"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        mode = tensor.order - 1 if kernel is unified_spttm else 0
        streamed = run_kernel(
            kernel, tensor, factors, mode, ctx=ExecContext(streamed=True, chunk_nnz=CHUNK_NNZ)
        )
        chunks = streamed.profile.streaming.chunks
        assert len(chunks) >= 2
        assert_folds(streamed.profile.counters, [c.counters for c in chunks])

    def test_streamed_pricing_prices_each_chunk_once(self):
        # The streamed driver is model-only: it prices every chunk exactly
        # once and returns just the pipelined profile.
        from repro.gpusim.counters import KernelCounters
        from repro.gpusim.launch import LaunchConfig
        from repro.kernels.unified.streaming import chunk_stream, price_chunks

        fcoo = FCOOTensor.from_sparse(CASES["order3-uniform"](), OperationKind.SPMTTKRP, 0)
        priced = []

        def chunk_model(chunk):
            priced.append(chunk.nnz)
            launch = LaunchConfig.for_nnz(chunk.nnz, 1, threadlen=THREADLEN)
            return KernelCounters(flops=float(chunk.nnz), active_threads=1.0), launch

        chunking = chunk_stream(fcoo, device=TITAN_X, threadlen=THREADLEN, chunk_nnz=CHUNK_NNZ)
        profile = price_chunks(chunking, chunk_model, device=TITAN_X, name="segment-value-sums")
        assert profile.name == "segment-value-sums-streamed"
        assert priced == [c.nnz for c in profile.streaming.chunks]
        assert sum(priced) == fcoo.nnz
        assert profile.counters.flops == fcoo.nnz

    def test_streamed_pricing_on_empty_stream(self):
        from repro.kernels.unified.streaming import chunk_stream, price_chunks

        empty = FCOOTensor.from_sparse(
            SparseTensor.empty((5, 6, 7)), OperationKind.SPMTTKRP, 0
        )

        def chunk_model(chunk):  # pragma: no cover - zero chunks to price
            raise AssertionError("an empty stream has no chunks")

        # Auto chunk sizing must not choke on the empty stream.
        chunking = chunk_stream(empty, device=TITAN_X, threadlen=THREADLEN)
        profile = price_chunks(chunking, chunk_model, device=TITAN_X, name="empty")
        assert profile.streaming.num_chunks == 0
        assert profile.estimated_time_s == 0.0

    def test_chunk_nnz_below_threadlen_rejected(self):
        tensor = CASES["order3-uniform"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        with pytest.raises(ValueError, match="at least threadlen"):
            unified_spmttkrp(
                tensor, factors, 0, threadlen=THREADLEN,
                ctx=ExecContext(streamed=True, chunk_nnz=THREADLEN - 1),
            )
        # At or above threadlen it rounds down to a threadlen multiple.
        result = unified_spmttkrp(
            tensor, factors, 0, threadlen=THREADLEN,
            ctx=ExecContext(streamed=True, chunk_nnz=THREADLEN + 3),
        )
        assert result.profile.streaming.chunk_nnz == THREADLEN

    def test_forced_streaming_on_empty_tensor_degrades_to_one_shot(self):
        tensor = SparseTensor.empty((5, 6, 7))
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        result = unified_spmttkrp(
            tensor, factors, 0, ctx=ExecContext(streamed=True, chunk_nnz=CHUNK_NNZ)
        )
        assert result.profile.streaming is None
        np.testing.assert_array_equal(result.output, np.zeros((5, RANK)))


class TestOverCapacityExecution:
    """Acceptance: over-capacity tensors complete via streaming."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return random_sparse_tensor(
            (30, 50, 40), 600, seed=11, distribution="power", concentration=1.2
        )

    @pytest.fixture(scope="class")
    def tiny_device(self, tensor):
        """A device too small for the one-shot footprint but big enough for
        the dense operands plus a couple of chunk buffers."""
        return scaled_device(TITAN_X, 5e-7, name_suffix="tiny")

    def test_one_shot_raises_out_of_device_memory(self, tensor, tiny_device):
        factors = [np.asarray(f) for f in random_factors(tensor.shape, 4, seed=7)]
        with pytest.raises(OutOfDeviceMemory):
            unified_spmttkrp(
                tensor, factors, 0, device=tiny_device, ctx=ExecContext(streamed=False)
            )

    def test_auto_fallback_streams_and_matches_reference(self, tensor, tiny_device):
        factors = [np.asarray(f) for f in random_factors(tensor.shape, 4, seed=7)]
        result = unified_spmttkrp(tensor, factors, 0, device=tiny_device)
        execution = result.profile.streaming
        assert execution is not None and execution.num_chunks >= 2
        np.testing.assert_allclose(
            result.output, reference_mttkrp(tensor, factors, 0), rtol=1e-5, atol=1e-6
        )
        # The device-side footprint honoured the shrunken capacity.
        assert result.profile.device_memory_bytes <= tiny_device.global_mem_bytes

    def test_streamed_time_strictly_between_overlap_bounds(self, tensor, tiny_device):
        factors = [np.asarray(f) for f in random_factors(tensor.shape, 4, seed=7)]
        result = unified_spmttkrp(
            tensor, factors, 0, device=tiny_device, ctx=ExecContext(num_streams=2)
        )
        schedule = result.profile.streaming.schedule
        assert schedule.ideal_time_s < schedule.total_time_s < schedule.serial_time_s

    def test_auto_chunk_size_is_aligned_and_fits(self, tensor, tiny_device):
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, 0)
        chunk_nnz = choose_chunk_nnz(
            fcoo,
            device=tiny_device,
            threadlen=8,
            num_streams=2,
            resident_bytes=1024.0,
        )
        assert chunk_nnz % 8 == 0
        assert chunk_nnz >= 8

    def test_dense_operands_too_big_still_raise(self, tensor):
        factors = [np.asarray(f) for f in random_factors(tensor.shape, 4, seed=7)]
        nano = scaled_device(TITAN_X, 1e-8, name_suffix="nano")
        with pytest.raises(OutOfDeviceMemory):
            unified_spmttkrp(tensor, factors, 0, device=nano)

    def test_cp_als_completes_on_over_capacity_tensor(self, tensor, tiny_device):
        engine = UnifiedGPUEngine(device=tiny_device)
        result = cp_als(
            tensor, 4, engine=engine, max_iterations=1, seed=0, compute_fit=False
        )
        assert result.iterations == 1
        assert all(np.isfinite(f).all() for f in result.factors)
        # Numerics are device-independent: the streamed run must reproduce
        # the factors of the same decomposition on a full-size device.
        full = cp_als(
            tensor, 4, engine=UnifiedGPUEngine(), max_iterations=1, seed=0,
            compute_fit=False,
        )
        for streamed_f, full_f in zip(result.factors, full.factors):
            assert np.array_equal(streamed_f, full_f)


class TestEngineAndTunerIntegration:
    def test_engine_forwards_streaming_parameters(self):
        tensor = random_sparse_tensor((10, 12, 14), 300, seed=2)
        engine = UnifiedGPUEngine(
            ctx=ExecContext(streamed=True, chunk_nnz=64, num_streams=3)
        )
        engine.prepare(tensor, 4)
        execution = engine.profile(0, 4).streaming
        assert execution is not None
        assert execution.num_streams == 3
        assert execution.chunk_nnz == 64


# ---------------------------------------------------------------------- #
# Hypothesis sweep (the nightly CI profile raises max_examples)
# ---------------------------------------------------------------------- #


class TestStreamedHypothesis:
    """Arbitrary tensors x chunk sizes: chunked == one-shot.

    The parametrized corpus above pins the known-adversarial shapes; this
    sweep searches the space around them under the active Hypothesis
    profile (per-PR default, or the nightly high-examples profile).
    """

    @given(
        dims=st.tuples(*(st.integers(min_value=2, max_value=14),) * 3),
        nnz=st.integers(min_value=1, max_value=220),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunk_parts=st.integers(min_value=1, max_value=5),
    )
    def test_chunked_equals_one_shot(self, dims, nnz, seed, chunk_parts):
        tensor = random_sparse_tensor(dims, nnz, seed=seed)
        factors = [np.asarray(f) for f in random_factors(dims, RANK, seed=seed)]
        one_shot = run_kernel(
            unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(streamed=False)
        )
        streamed = run_kernel(
            unified_spmttkrp,
            tensor,
            factors,
            0,
            ctx=ExecContext(streamed=True, chunk_nnz=chunk_parts * THREADLEN),
        )
        assert np.array_equal(streamed.output, one_shot.output)
