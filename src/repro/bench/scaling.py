"""Multi-GPU scaling of the sharded unified kernels (extension experiment).

The paper evaluates on one Titan X; this runner measures how the sharded
execution path scales when the F-COO non-zero stream is partitioned across
a simulated multi-GPU node:

* **strong scaling** (:func:`run_scaling`) — a fixed dataset analog on 1-8
  GPUs; the speedup column is ``T(1 GPU) / T(N GPUs)`` and the parallel
  efficiency is ``speedup / N``.
* **weak scaling** (:func:`run_weak_scaling`) — the problem grows with the
  device count (``N`` times the base non-zeros on ``N`` GPUs); the
  efficiency column is ``T(1 GPU) / T(N GPUs)``, which would be 1 under
  perfect scaling.

Like the capacity experiments (which shrink the simulated device memory by
the dataset's shrink factor), the interconnect must be projected to analog
scale: the analogs carry 100-1000x fewer non-zeros than the paper's
tensors, so kernel times shrink by that factor while a real NIC latency
would not — charging 5 us of latency against a 10 us kernel would say
nothing about paper-scale behaviour.  :func:`analog_interconnect` shrinks
the latency by the dataset's *time* scale (analog nnz / paper nnz) and
rescales the bandwidth by the payload-to-time ratio, so the modeled
reduction keeps the same proportion to compute that it would have at paper
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.context import ExecContext
from repro.data.registry import DATASETS, load_dataset
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ETHERNET_10G, ClusterSpec, InterconnectSpec, PCIE3_P2P
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import Timeline, device_compute_key
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.kernels.unified.spttmc import unified_spttmc
from repro.tensor.random import random_factors, random_sparse_tensor
from repro.tensor.sparse import SparseTensor
from repro.util.formatting import format_seconds, format_table

__all__ = [
    "ScalingRow",
    "ScalingResult",
    "analog_interconnect",
    "collect_scaling_trace",
    "run_scaling",
    "run_weak_scaling",
    "DEFAULT_DEVICE_COUNTS",
    "SCALING_OPERATIONS",
]

#: The device counts of the scaling curves (a typical 8-GPU node).
DEFAULT_DEVICE_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: All three unified kernels, in the order the tables report them.
SCALING_OPERATIONS: Tuple[str, ...] = ("spttm", "spmttkrp", "spttmc")

#: Paper-scale non-zero count the weak-scaling synthetic workloads model
#: (the magnitude of the paper's large tensors: nell1/delicious, ~1.4e8).
NOMINAL_PAPER_NNZ = 1.0e8


def analog_interconnect(
    base: InterconnectSpec,
    *,
    time_scale: float,
    payload_scale: Optional[float] = None,
    name_suffix: str = "analog",
) -> InterconnectSpec:
    """Project an interconnect onto an analog-scale workload.

    ``time_scale`` is how much faster the analog's kernels run than the
    paper-scale original (its non-zero shrink factor); the latency shrinks
    by it so collective steps keep their paper-scale proportion to compute.
    ``payload_scale`` is how much smaller the analog's collective payloads
    are (its *shape* shrink factor for dense outputs); the bandwidth is
    rescaled by ``payload_scale / time_scale`` so the bandwidth term also
    keeps its paper-scale proportion.  ``payload_scale=None`` means the
    payload shrinks like the time (true for per-fiber outputs, which are
    proportional to nnz), leaving the bandwidth untouched.
    """
    if not 0 < time_scale:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    if payload_scale is None:
        payload_scale = time_scale
    if payload_scale <= 0:
        raise ValueError(f"payload_scale must be positive, got {payload_scale}")
    return InterconnectSpec(
        name=f"{base.name} [{name_suffix}]",
        bandwidth_bytes_per_s=base.bandwidth_bytes_per_s * payload_scale / time_scale,
        latency_s=base.latency_s * time_scale,
    )


@dataclass(frozen=True)
class ScalingRow:
    """One (operation, workload, device count) point of a scaling curve."""

    operation: str
    workload: str
    num_devices: int
    nnz: int
    time_s: float
    baseline_s: float
    max_shard_s: float
    reduction_s: float

    @property
    def speedup(self) -> float:
        """``T(baseline) / T(this)`` — above 1 is a win."""
        return self.baseline_s / self.time_s if self.time_s else 1.0

    @property
    def efficiency(self) -> float:
        """Parallel efficiency: strong scaling divides the speedup by N."""
        return self.speedup / self.num_devices


@dataclass
class ScalingResult:
    """All rows of a scaling experiment (one kind: strong or weak)."""

    rank: int
    kind: str
    device_counts: Tuple[int, ...]
    rows: List[ScalingRow]

    def rows_for(self, operation: str, workload: Optional[str] = None) -> List[ScalingRow]:
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
            "GPUs",
            "nnz",
            "time",
            "speedup" if self.kind == "strong" else "vs 1 GPU",
            "efficiency",
            "slowest shard",
            "reduction",
        ]
        body = []
        for r in self.rows:
            efficiency = r.efficiency if self.kind == "strong" else r.speedup
            body.append(
                [
                    r.operation,
                    r.workload,
                    r.num_devices,
                    r.nnz,
                    format_seconds(r.time_s),
                    f"{r.speedup:.2f}x",
                    f"{efficiency * 100.0:.0f}%",
                    format_seconds(r.max_shard_s),
                    format_seconds(r.reduction_s),
                ]
            )
        return format_table(
            headers,
            body,
            title=(
                f"Multi-GPU {self.kind} scaling of the unified kernels "
                f"(rank={self.rank}, {'/'.join(str(d) for d in self.device_counts)} GPUs, "
                "analog-scaled interconnect)"
            ),
        )


_OPERATION_KINDS = {
    "spttm": OperationKind.SPTTM,
    "spmttkrp": OperationKind.SPMTTKRP,
    "spttmc": OperationKind.SPTTMC,
}


def _op_payload_scale(operation: str, dense_payload_scale: float) -> Optional[float]:
    """The analog payload-scale rule, single-sourced for every runner.

    SpTTM only exchanges boundary fibers (payload ~ nnz-shaped, shrinking
    like the time scale, so the bandwidth stays untouched); the dense
    factor/unfolding outputs of the other two shrink with the mode size.
    """
    return None if operation == "spttm" else dense_payload_scale


def _run_operation(
    operation: str,
    fcoo: FCOOTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    cluster: Optional[ClusterSpec],
    device: DeviceSpec,
    block_size: int,
    threadlen: int,
):
    kwargs = dict(
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        ctx=ExecContext(cluster=cluster),
    )
    if operation == "spttm":
        return unified_spttm(fcoo, factors[mode], mode, **kwargs)
    if operation == "spmttkrp":
        return unified_spmttkrp(fcoo, factors, mode, **kwargs)
    return unified_spttmc(fcoo, factors, mode, **kwargs)


def _scaling_point(
    operation: str,
    workload: str,
    fcoo: FCOOTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    num_devices: int,
    baseline_s: Optional[float],
    *,
    device: DeviceSpec,
    interconnect: InterconnectSpec,
    block_size: int,
    threadlen: int,
) -> ScalingRow:
    """One (operation, workload, device count) measurement.

    ``baseline_s=None`` marks the curve's first point, which becomes its
    own baseline.  Shared by the strong- and weak-scaling runners so the
    row construction cannot diverge between the two tables.
    """
    cluster = (
        None
        if num_devices == 1
        else ClusterSpec.homogeneous(device, num_devices, interconnect=interconnect)
    )
    result = _run_operation(
        operation,
        fcoo,
        factors,
        mode,
        cluster=cluster,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
    )
    execution = getattr(result.profile, "sharded", None)
    return ScalingRow(
        operation=operation,
        workload=workload,
        num_devices=num_devices,
        nnz=fcoo.nnz,
        time_s=result.estimated_time_s,
        baseline_s=result.estimated_time_s if baseline_s is None else baseline_s,
        max_shard_s=(
            execution.max_shard_time_s
            if execution is not None
            else result.estimated_time_s
        ),
        reduction_s=execution.reduction_time_s if execution is not None else 0.0,
    )


def _scaling_rows(
    operation: str,
    workload: str,
    fcoo: FCOOTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    device: DeviceSpec,
    interconnect: InterconnectSpec,
    device_counts: Sequence[int],
    block_size: int,
    threadlen: int,
) -> List[ScalingRow]:
    """The strong-scaling curve of one operation on one fixed workload."""
    rows: List[ScalingRow] = []
    baseline_s: Optional[float] = None
    for n in device_counts:
        row = _scaling_point(
            operation,
            workload,
            fcoo,
            factors,
            mode,
            int(n),
            baseline_s,
            device=device,
            interconnect=interconnect,
            block_size=block_size,
            threadlen=threadlen,
        )
        baseline_s = row.baseline_s
        rows.append(row)
    return rows


def _effective_rank(operation: str, rank: int, spttmc_rank: Optional[int]) -> int:
    """SpTTMc's output width is the rank *squared*; cap it by default."""
    if operation != "spttmc":
        return rank
    return spttmc_rank if spttmc_rank is not None else min(rank, 8)


def run_scaling(
    *,
    rank: int = 16,
    datasets: Optional[Sequence[str]] = None,
    operations: Sequence[str] = SCALING_OPERATIONS,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    device: DeviceSpec = TITAN_X,
    interconnect: InterconnectSpec = PCIE3_P2P,
    block_size: int = 128,
    threadlen: int = 8,
    spttmc_rank: Optional[int] = None,
    seed: int = 0,
) -> ScalingResult:
    """Strong scaling: fixed dataset analogs on growing device counts.

    Every (operation, dataset) pair runs the mode-0 kernel on 1 GPU (the
    exact single-device path — the baseline) and on each larger count
    through the sharded path; the interconnect is projected to analog
    scale per dataset (see :func:`analog_interconnect`).  ``spttmc_rank``
    caps the SpTTMc factor rank (default ``min(rank, 8)``) because its
    output width is the product of the product-mode ranks.
    """
    names = list(datasets) if datasets is not None else ["brainq", "nell2"]
    for op in operations:
        if op not in _OPERATION_KINDS:
            raise ValueError(f"unknown operation {op!r}; choose from {sorted(_OPERATION_KINDS)}")
    mode = 0
    rows: List[ScalingRow] = []
    for name in names:
        spec = DATASETS[name]
        tensor = load_dataset(name)
        time_scale = tensor.nnz / spec.paper_nnz
        dense_payload_scale = tensor.shape[mode] / spec.paper_shape[mode]
        for op in operations:
            op_rank = _effective_rank(op, rank, spttmc_rank)
            factors = [np.asarray(f) for f in random_factors(tensor.shape, op_rank, seed=seed)]
            fcoo = FCOOTensor.from_sparse(tensor, _OPERATION_KINDS[op], mode)
            scaled_link = analog_interconnect(
                interconnect,
                time_scale=time_scale,
                payload_scale=_op_payload_scale(op, dense_payload_scale),
                name_suffix=f"analog {name}",
            )
            rows.extend(
                _scaling_rows(
                    op,
                    name,
                    fcoo,
                    factors,
                    mode,
                    device=device,
                    interconnect=scaled_link,
                    device_counts=device_counts,
                    block_size=block_size,
                    threadlen=threadlen,
                )
            )
    return ScalingResult(
        rank=rank, kind="strong", device_counts=tuple(int(d) for d in device_counts), rows=rows
    )


def collect_scaling_trace(
    *,
    rank: int = 8,
    dataset: str = "brainq",
    num_devices: int = 4,
    num_nodes: int = 1,
    device: DeviceSpec = TITAN_X,
    interconnect: InterconnectSpec = PCIE3_P2P,
    nic: InterconnectSpec = ETHERNET_10G,
    block_size: int = 128,
    threadlen: int = 8,
    spttmc_rank: Optional[int] = None,
    seed: int = 0,
) -> Timeline:
    """Book one sharded run of each kernel onto a shared unified timeline.

    The three unified kernels execute back to back on a sharded cluster
    (the interconnect projected to analog scale with the same
    :func:`_op_payload_scale` rule the scaling tables use) and each
    execution's ledger books its shard computes and partial-output
    collective onto one :class:`~repro.gpusim.timeline.Timeline` through
    :meth:`~repro.kernels.unified.sharded.ShardedExecution.book`.  With
    ``num_nodes > 1`` the cluster is a two-tier
    :class:`~repro.gpusim.cluster.ClusterSpec` of
    ``num_nodes x num_devices`` GPUs (matching the topology of ``scaling
    --nodes``), so the trace additionally shows the per-node ``nic:*``
    lanes.  Backs ``python -m repro scaling --trace out.json``:
    per-device compute lanes plus the link/NIC lanes of the reductions,
    viewable in ``chrome://tracing``.
    """
    spec = DATASETS[dataset]
    tensor = load_dataset(dataset)
    mode = 0
    time_scale = tensor.nnz / spec.paper_nnz
    dense_payload_scale = tensor.shape[mode] / spec.paper_shape[mode]
    timeline = Timeline()
    clock = 0.0
    for op in SCALING_OPERATIONS:
        op_rank = _effective_rank(op, rank, spttmc_rank)
        factors = [np.asarray(f) for f in random_factors(tensor.shape, op_rank, seed=seed)]
        fcoo = FCOOTensor.from_sparse(tensor, _OPERATION_KINDS[op], mode)
        payload_scale = _op_payload_scale(op, dense_payload_scale)
        scaled_link = analog_interconnect(
            interconnect,
            time_scale=time_scale,
            payload_scale=payload_scale,
            name_suffix=f"analog {dataset}",
        )
        if num_nodes * num_devices > 1:
            cluster = ClusterSpec.homogeneous(
                device,
                num_devices,
                num_nodes=num_nodes,
                interconnect=scaled_link,
                nic=analog_interconnect(
                    nic,
                    time_scale=time_scale,
                    payload_scale=payload_scale,
                    name_suffix=f"analog {dataset}",
                ),
            )
        else:
            cluster = None
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
        if execution is not None:
            _, clock = execution.book(timeline, ready_s=clock, label=op)
        else:
            clock = timeline.book(
                timeline.resource(device_compute_key(0), category="compute"),
                result.estimated_time_s,
                ready_s=clock,
                label=op,
            ).end_s
    return timeline


def run_weak_scaling(
    *,
    rank: int = 16,
    base_shape: Sequence[int] = (128, 160, 120),
    base_nnz: int = 24_000,
    operations: Sequence[str] = SCALING_OPERATIONS,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    device: DeviceSpec = TITAN_X,
    interconnect: InterconnectSpec = PCIE3_P2P,
    block_size: int = 128,
    threadlen: int = 8,
    spttmc_rank: Optional[int] = None,
    seed: int = 0,
) -> ScalingResult:
    """Weak scaling: the problem grows with the device count.

    The ``N``-GPU workload is a synthetic tensor with ``N`` times the base
    non-zeros and an ``N``-times-longer mode 0 (constant work per device);
    under perfect scaling ``T(N) == T(1)``, so the efficiency column is
    simply ``T(1) / T(N)``.  The interconnect latency is projected by the
    base workload's time scale against :data:`NOMINAL_PAPER_NNZ`.
    """
    for op in operations:
        if op not in _OPERATION_KINDS:
            raise ValueError(f"unknown operation {op!r}; choose from {sorted(_OPERATION_KINDS)}")
    base_shape = tuple(int(s) for s in base_shape)
    scaled_link = analog_interconnect(
        interconnect,
        time_scale=base_nnz / NOMINAL_PAPER_NNZ,
        name_suffix="analog weak",
    )
    tensors: Dict[int, SparseTensor] = {}
    for n in device_counts:
        shape = (base_shape[0] * int(n),) + base_shape[1:]
        tensors[int(n)] = random_sparse_tensor(
            shape, base_nnz * int(n), seed=seed, distribution="power", concentration=0.9
        )

    rows: List[ScalingRow] = []
    for op in operations:
        op_rank = _effective_rank(op, rank, spttmc_rank)
        # The workload grows along mode 0, so the target mode must keep
        # mode 0 among the *index* modes for the work per device to stay
        # constant: growing a product mode would densify the reduction
        # segments instead of adding them.  SpTTM's target mode is its
        # product mode, so it targets the last mode; the other two index
        # their target mode and can keep mode 0.
        mode = tensors[int(device_counts[0])].order - 1 if op == "spttm" else 0
        baseline_s: Optional[float] = None
        for n in device_counts:
            n = int(n)
            tensor = tensors[n]
            factors = [np.asarray(f) for f in random_factors(tensor.shape, op_rank, seed=seed)]
            fcoo = FCOOTensor.from_sparse(tensor, _OPERATION_KINDS[op], mode)
            row = _scaling_point(
                op,
                f"weak x{n}",
                fcoo,
                factors,
                mode,
                n,
                baseline_s,
                device=device,
                interconnect=scaled_link,
                block_size=block_size,
                threadlen=threadlen,
            )
            baseline_s = row.baseline_s
            rows.append(row)
    return ScalingResult(
        rank=rank, kind="weak", device_counts=tuple(int(d) for d in device_counts), rows=rows
    )
