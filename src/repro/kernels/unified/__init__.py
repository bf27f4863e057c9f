"""The unified F-COO kernels (the paper's contribution, Section IV).

All three kernels share the same skeleton:

1. every thread owns ``threadlen`` consecutive non-zeros of the F-COO
   encoded tensor (perfect load balance regardless of the sparsity
   structure);
2. each non-zero's product-mode indices select rows of the dense factor
   matrices (served by the read-only data cache) and a Hadamard (SpMTTKRP),
   Kronecker (SpTTMc) or scalar (SpTTM) product is formed and scaled by the
   non-zero value;
3. partial products are reduced into per-segment results (one per fiber or
   slice) by a warp-shuffle segmented scan driven by the F-COO bit-flags —
   no atomic updates except the per-block carries of the adjacent
   synchronisation scheme;
4. the product, scan and accumulation stages are fused into a single kernel
   launch so intermediate data never travels through global memory.

The kernels differ only in that product, so one driver runs all three
(:mod:`repro.kernels.unified.driver`), configured by a small per-operation
spec.  It returns numerically exact results (vectorised NumPy) together
with a :class:`repro.gpusim.KernelProfile` describing the simulated cost,
in two independent halves: the cost model, from the index streams alone,
then one canonical numeric pass over the whole encoding.

The execution paths below therefore model time and memory only; their
outputs are bit-identical to one-shot.  Tensors larger than device memory
are modeled out-of-core (:mod:`repro.kernels.unified.streaming`): the
non-zero stream is chunked on ``threadlen``-aligned boundaries and
pipelined through PCIe on multiple CUDA streams, overlapping each chunk's
copy with the previous chunk's kernel.

With ``ctx=ExecContext(cluster=...)`` (or ``devices=N``) the same stream
shards across a simulated multi-GPU node
(:mod:`repro.kernels.unified.sharded`): each shard is priced on its own
device — streaming per-device when it still does not fit — and the partial
outputs merge through a modeled collective.
"""

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.kernels.unified.driver import OperationSpec
from repro.kernels.unified.spttm import spttm_spec, unified_spttm
from repro.kernels.unified.spmttkrp import spmttkrp_spec, unified_spmttkrp
from repro.kernels.unified.spttmc import spttmc_spec, unified_spttmc
from repro.kernels.unified.streaming import (
    ChunkLedger,
    StreamedExecution,
    choose_chunk_nnz,
    execute_streamed,
)
from repro.kernels.unified.sharded import (
    ShardLedger,
    ShardedExecution,
    execute_sharded,
    partition_shards,
    partition_shards_hierarchical,
)

__all__ = [
    "operation_spec",
    "unified_spttm",
    "unified_spmttkrp",
    "unified_spttmc",
    "ChunkLedger",
    "StreamedExecution",
    "choose_chunk_nnz",
    "execute_streamed",
    "ShardLedger",
    "ShardedExecution",
    "execute_sharded",
    "partition_shards",
    "partition_shards_hierarchical",
]


def operation_spec(fcoo: FCOOTensor, operation: OperationKind, rank: int) -> OperationSpec:
    """The operation the kernel for ``operation`` runs on ``fcoo`` when every
    factor is ``rank`` wide: what the tuner and serving price, without
    factors."""
    if operation is OperationKind.SPTTM:
        return spttm_spec(fcoo, rank)
    if operation is OperationKind.SPMTTKRP:
        return spmttkrp_spec(fcoo, rank)
    return spttmc_spec(fcoo, [rank] * len(fcoo.roles.product_modes))
