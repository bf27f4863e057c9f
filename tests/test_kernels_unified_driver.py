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

from repro.backends import available_backends, get_backend
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import ETHERNET_10G, ClusterSpec
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import unified_spmttkrp, unified_spttm, unified_spttmc
from repro.kernels.unified.driver import model
from repro.kernels.unified.spmttkrp import spmttkrp_spec
from repro.tensor.random import random_factors
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
        dict(devices=3),
        lambda p: p.sharded is not None and p.sharded.num_shards == 3,
    ),
    "multi-node": (
        dict(cluster=ClusterSpec.homogeneous(num_nodes=2, devices_per_node=2, nic=ETHERNET_10G)),
        lambda p: p.sharded is not None and p.sharded.cluster.num_nodes == 2,
    ),
    "sharded-streamed-shards": (
        dict(devices=2, streamed=True, chunk_nnz=CHUNK_NNZ),
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
    for fields in (dict(streamed=False), dict(streamed=None), dict(devices=2)):
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
    for fields in (dict(), dict(streamed=True, chunk_nnz=CHUNK_NNZ), dict(devices=4)):
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
