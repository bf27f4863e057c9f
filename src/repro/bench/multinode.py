"""Multi-node scaling of the hierarchically sharded unified kernels.

The multi-GPU scaling runner (:mod:`repro.bench.scaling`) stops at one
node; this runner grows the *node count* of a two-tier
:class:`~repro.gpusim.cluster.ClusterSpec` — intra-node P2P vs an
inter-node NIC — and reports, per unified kernel and dataset analog:

* the strong-scaling curve over 1/2/4 nodes (the one-node point is the
  single-node sharded path, whose collectives never touch the NIC);
* the modeled reduction under hierarchical collectives next to what the
  topology-oblivious **flat ring** would have charged, and which algorithm
  the cost model selected — making the tentpole claim ("hierarchical is
  never costlier than the flat ring when the NIC is the slower tier")
  visible in the table and checkable by the CI regression gate.

Both interconnect tiers are projected to analog scale per dataset exactly
like the single-node runner (see
:func:`repro.bench.scaling.analog_interconnect`), so the NIC keeps its
paper-scale proportion to compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.registry import DATASETS, load_dataset
from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import ETHERNET_10G, ClusterSpec, InterconnectSpec, PCIE3_P2P
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.bench.scaling import (
    SCALING_OPERATIONS,
    _OPERATION_KINDS,
    _effective_rank,
    _run_operation,
    analog_interconnect,
)
from repro.tensor.random import random_factors
from repro.util.formatting import format_seconds, format_table

__all__ = [
    "MultiNodeRow",
    "MultiNodeScalingResult",
    "run_multinode_scaling",
    "DEFAULT_NODE_COUNTS",
]

#: The node counts of the default multi-node scaling curve.
DEFAULT_NODE_COUNTS: Tuple[int, ...] = (1, 2, 4)


@dataclass(frozen=True)
class MultiNodeRow:
    """One (operation, workload, node count) point of the scaling curve."""

    operation: str
    workload: str
    num_nodes: int
    num_devices: int
    nnz: int
    time_s: float
    baseline_s: float
    max_shard_s: float
    reduction_s: float
    flat_reduction_s: float
    reduction_algorithm: str

    @property
    def speedup(self) -> float:
        """``T(baseline) / T(this)`` — above 1 is a win.

        The baseline is the curve's *first* point (the same convention as
        the single-node scaling runner): the one-node point for the
        default ascending ``node_counts``.
        """
        return self.baseline_s / self.time_s if self.time_s else 1.0

    @property
    def efficiency(self) -> float:
        """Parallel efficiency across nodes: speedup over the node count."""
        return self.speedup / self.num_nodes


@dataclass
class MultiNodeScalingResult:
    """All rows of one multi-node scaling experiment."""

    rank: int
    node_counts: Tuple[int, ...]
    devices_per_node: int
    rows: List[MultiNodeRow]

    def rows_for(
        self, operation: str, workload: Optional[str] = None
    ) -> List[MultiNodeRow]:
        """The curve of one operation (optionally restricted to a workload)."""
        return [
            r
            for r in self.rows
            if r.operation == operation and (workload is None or r.workload == workload)
        ]

    def render(self) -> str:
        headers = [
            "kernel",
            "workload",
            "nodes",
            "GPUs",
            "time",
            "speedup",
            "efficiency",
            "slowest shard",
            "reduction",
            "flat ring",
            "algorithm",
        ]
        body = []
        for r in self.rows:
            body.append(
                [
                    r.operation,
                    r.workload,
                    r.num_nodes,
                    r.num_devices,
                    format_seconds(r.time_s),
                    f"{r.speedup:.2f}x",
                    f"{r.efficiency * 100.0:.0f}%",
                    format_seconds(r.max_shard_s),
                    format_seconds(r.reduction_s),
                    format_seconds(r.flat_reduction_s),
                    r.reduction_algorithm,
                ]
            )
        return format_table(
            headers,
            body,
            title=(
                f"Multi-node scaling of the unified kernels "
                f"(rank={self.rank}, "
                f"{'/'.join(str(m) for m in self.node_counts)} nodes x "
                f"{self.devices_per_node} GPUs, two-tier analog interconnects)"
            ),
        )


def run_multinode_scaling(
    *,
    rank: int = 16,
    datasets: Optional[Sequence[str]] = None,
    operations: Sequence[str] = SCALING_OPERATIONS,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    devices_per_node: int = 2,
    device: DeviceSpec = TITAN_X,
    intra: InterconnectSpec = PCIE3_P2P,
    nic: InterconnectSpec = ETHERNET_10G,
    block_size: int = 128,
    threadlen: int = 8,
    spttmc_rank: Optional[int] = None,
    seed: int = 0,
) -> MultiNodeScalingResult:
    """Strong scaling across nodes with hierarchical collectives.

    Every (operation, dataset) pair runs the mode-0 kernel on a growing
    number of ``devices_per_node``-GPU nodes; the curve's *first* point is
    its baseline (the one-node point for the default ascending
    ``node_counts`` — pass them smallest-first, like the single-node
    runner's ``device_counts``).  Both tiers are projected to the dataset's analog
    scale, preserving the NIC-vs-P2P bandwidth and latency ratios; the
    ``flat ring`` column prices the same all-reduce payload over the
    topology-oblivious single-tier ring for comparison (``-`` priced at
    zero for the boundary-exchange SpTTM, whose output never all-reduces).
    """
    names = list(datasets) if datasets is not None else ["brainq"]
    for op in operations:
        if op not in _OPERATION_KINDS:
            raise ValueError(
                f"unknown operation {op!r}; choose from {sorted(_OPERATION_KINDS)}"
            )
    if devices_per_node <= 0:
        raise ValueError(f"devices_per_node must be positive, got {devices_per_node}")
    mode = 0
    rows: List[MultiNodeRow] = []
    for name in names:
        spec = DATASETS[name]
        tensor = load_dataset(name)
        time_scale = tensor.nnz / spec.paper_nnz
        dense_payload_scale = tensor.shape[mode] / spec.paper_shape[mode]
        for op in operations:
            op_rank = _effective_rank(op, rank, spttmc_rank)
            factors = [
                np.asarray(f) for f in random_factors(tensor.shape, op_rank, seed=seed)
            ]
            fcoo = FCOOTensor.from_sparse(tensor, _OPERATION_KINDS[op], mode)
            payload_scale = None if op == "spttm" else dense_payload_scale
            scaled_intra = analog_interconnect(
                intra,
                time_scale=time_scale,
                payload_scale=payload_scale,
                name_suffix=f"analog {name}",
            )
            scaled_nic = analog_interconnect(
                nic,
                time_scale=time_scale,
                payload_scale=payload_scale,
                name_suffix=f"analog {name}",
            )
            baseline_s: Optional[float] = None
            for m in node_counts:
                m = int(m)
                cluster = ClusterSpec.homogeneous(
                    device,
                    devices_per_node,
                    num_nodes=m,
                    interconnect=scaled_intra,
                    nic=scaled_nic,
                )
                result = _run_operation(
                    op,
                    fcoo,
                    factors,
                    mode,
                    cluster=cluster,
                    device=device,
                    block_size=block_size,
                    threadlen=threadlen,
                )
                execution = getattr(result.profile, "sharded", None)
                if op == "spttm" or m == 1:
                    flat_reduction_s = (
                        execution.reduction_time_s if execution is not None else 0.0
                    )
                    algorithm = "boundary" if op == "spttm" else "single-node"
                else:
                    output_bytes = execution.reduction_bytes
                    flat_reduction_s = cluster.flat_allreduce_time(output_bytes)
                    algorithm = cluster.allreduce_algorithm(output_bytes)
                if baseline_s is None:
                    baseline_s = result.estimated_time_s
                rows.append(
                    MultiNodeRow(
                        operation=op,
                        workload=name,
                        num_nodes=m,
                        num_devices=m * devices_per_node,
                        nnz=fcoo.nnz,
                        time_s=result.estimated_time_s,
                        baseline_s=baseline_s,
                        max_shard_s=(
                            execution.max_shard_time_s
                            if execution is not None
                            else result.estimated_time_s
                        ),
                        reduction_s=(
                            execution.reduction_time_s if execution is not None else 0.0
                        ),
                        flat_reduction_s=flat_reduction_s,
                        reduction_algorithm=algorithm,
                    )
                )
    return MultiNodeScalingResult(
        rank=rank,
        node_counts=tuple(int(m) for m in node_counts),
        devices_per_node=devices_per_node,
        rows=rows,
    )
