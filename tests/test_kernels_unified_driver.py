"""The unified kernel driver: the cost model first, the numerics exactly once.

Every execution path — one-shot, streamed, flat-sharded, multi-node, and
sharded with streamed shards — must run the backend's product stage once,
over exactly the encoding's non-zeros, and produce the one-shot output bit
for bit under either backend.  A configuration the device cannot hold must
fail in the cost model, before any numeric work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.unified.driver as driver
from repro.backends import available_backends, get_backend
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import ETHERNET_10G, ClusterSpec
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import (
    operation_spec,
    unified_spmttkrp,
    unified_spttm,
    unified_spttmc,
)
from repro.kernels.unified.driver import model
from repro.kernels.unified.spmttkrp import spmttkrp_spec
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor
from test_streaming import BLOCK_SIZE, CASES, CHUNK_NNZ, RANK, THREADLEN, run_kernel

KERNELS = [unified_spttm, unified_spmttkrp, unified_spttmc]

#: path -> (context fields, check on the resulting profile)
PATHS = {
    "one-shot": (
        dict(streamed=False),
        lambda p: p.streaming is None and p.sharded is None,
    ),
    "streamed": (
        dict(streamed=True, chunk_nnz=CHUNK_NNZ),
        lambda p: p.streaming is not None and p.streaming.num_chunks > 1,
    ),
    "flat-sharded": (
        dict(cluster=ClusterSpec.homogeneous(TITAN_X, 3)),
        lambda p: p.sharded is not None and p.sharded.num_shards == 3,
    ),
    "multi-node": (
        dict(cluster=ClusterSpec.homogeneous(num_nodes=2, devices_per_node=2, nic=ETHERNET_10G)),
        lambda p: p.sharded is not None and p.sharded.cluster.num_nodes == 2,
    ),
    "sharded-streamed-shards": (
        dict(cluster=ClusterSpec.homogeneous(TITAN_X, 2), streamed=True, chunk_nnz=CHUNK_NNZ),
        lambda p: p.sharded is not None
        and all(s.streaming is not None for s in p.sharded.shards),
    ),
}


def spy_backend(name):
    """The named backend, recording the non-zero count of every product stage."""

    class Spy(type(get_backend(name))):
        def __init__(self):
            self.calls = []

        def hadamard_segment_sums(self, values, *args):
            self.calls.append(len(values))
            return super().hadamard_segment_sums(values, *args)

        def kron_segment_sums(self, values, *args):
            self.calls.append(len(values))
            return super().kron_segment_sums(values, *args)

    return Spy()


def arrays(output):
    """The arrays an output is made of (a semi-sparse SpTTM result has two)."""
    if hasattr(output, "fiber_values"):
        return [output.fiber_coords, output.fiber_values]
    return [output]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_path_runs_the_product_stage_once_and_matches_one_shot(kernel, backend):
    tensor = CASES["order3-power"]()
    factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
    mode = tensor.order - 1 if kernel is unified_spttm else 0
    one_shot = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(backend=backend))
    for path, (fields, took_path) in PATHS.items():
        spy = spy_backend(backend)
        result = run_kernel(
            kernel, tensor, factors, mode, ctx=ExecContext(backend=spy, **fields)
        )
        assert took_path(result.profile), path
        assert spy.calls == [tensor.nnz], path
        for got, want in zip(arrays(result.output), arrays(one_shot.output)):
            assert np.array_equal(got, want), path


def test_out_of_memory_fails_before_any_numeric_work():
    tensor = CASES["order3-power"]()
    factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
    nano = scaled_device(TITAN_X, 1e-8, name_suffix="nano")
    two_nanos = dict(cluster=ClusterSpec.homogeneous(nano, 2))
    for fields in (dict(streamed=False), dict(streamed=None), two_nanos):
        spy = spy_backend("reference")
        with pytest.raises(OutOfDeviceMemory):
            unified_spmttkrp(
                tensor, factors, 0, device=nano, ctx=ExecContext(backend=spy, **fields)
            )
        assert spy.calls == []


def test_model_alone_prices_the_kernel_call():
    tensor = CASES["boundary-straddle"]()
    factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
    fcoo = FCOOTensor.from_sparse(tensor, "spmttkrp", 0)
    four_gpus = dict(cluster=ClusterSpec.homogeneous(TITAN_X, 4))
    for fields in (dict(), dict(streamed=True, chunk_nnz=CHUNK_NNZ), four_gpus):
        ctx = ExecContext(**fields)
        kernel = unified_spmttkrp(
            fcoo, factors, 0, block_size=BLOCK_SIZE, threadlen=THREADLEN, ctx=ctx
        )
        profile = model(
            fcoo,
            spmttkrp_spec(fcoo, RANK),
            device=TITAN_X,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            ctx=ctx,
        )
        assert profile.name == kernel.profile.name
        assert profile.estimated_time_s == kernel.profile.estimated_time_s


@pytest.mark.parametrize("operation, mode", [("spttm", 2), ("spmttkrp", 0), ("spttmc", 0)])
def test_model_reads_index_columns_in_place(operation, mode, monkeypatch):
    """Pricing copies no index stream on any path: spans are priced from
    the encoding's own arrays."""
    fcoo = FCOOTensor.from_sparse(CASES["order3-power"](), operation, mode)
    op = operation_spec(fcoo, fcoo.operation, RANK)

    def forbidden(*args):
        raise AssertionError("the cost model materialised a copy")

    monkeypatch.setattr(driver, "_row_streams", forbidden)
    for path, (fields, took_path) in PATHS.items():
        profile = model(
            fcoo,
            op,
            device=TITAN_X,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            ctx=ExecContext(**fields),
        )
        assert took_path(profile), path


@st.composite
def segment_sums_inputs(draw):
    """An SpMTTKRP or SpTTMc encoding of an order-2..4 tensor whose index
    mode has empty slices, and per-non-zero partials with NaN, infinities,
    signed zeros and segments of ``-0.0`` only."""
    order = draw(st.integers(min_value=2, max_value=4))
    shape = tuple(draw(st.integers(min_value=1, max_value=6)) for _ in range(order))
    nnz = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    indices = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    tensor = SparseTensor(indices, rng.uniform(0.5, 2.0, size=nnz), shape)
    operation = draw(st.sampled_from(["spmttkrp", "spttmc"]))
    fcoo = FCOOTensor.from_sparse(tensor, operation, draw(st.integers(0, order - 1)))
    width = draw(st.integers(min_value=1, max_value=5))
    partials = rng.standard_normal((fcoo.nnz, width))
    pool = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])
    special = rng.random(partials.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    partials[special] = rng.choice(pool, size=int(special.sum()))
    negative_zero_segments = draw(st.lists(st.integers(0, fcoo.num_segments - 1), max_size=3))
    partials[np.isin(fcoo.segment_ids, negative_zero_segments)] = -0.0
    return fcoo, partials


@pytest.mark.parametrize("backend", available_backends())
@settings()
@given(segment_sums_inputs())
def test_scatter_rows_assigns_the_bits_of_a_scatter_add_into_zeros(backend, case):
    """Each segment's row is unique and its sum never ``-0.0``, so the
    assignment lands what ``np.add.at`` into zeros would, NaN payloads
    included."""
    fcoo, partials = case
    with np.errstate(invalid="ignore"):
        sums = get_backend(backend).segment_reduce(partials, fcoo.segment_ids, fcoo.num_segments)
        expected = np.zeros((fcoo.shape[fcoo.mode], sums.shape[1]))
        np.add.at(expected, fcoo.segment_index_coords[:, 0], sums)
    actual = driver.scatter_rows(fcoo, sums)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))
