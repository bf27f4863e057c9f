"""Multi-GPU and multi-node scaling of the sharded unified kernels (extension).

The paper evaluates on one Titan X; these runners measure how the sharded
execution path scales when the F-COO non-zero stream is partitioned across
a simulated cluster of Titan X GPUs.  Every point of every curve builds one
``nodes x GPUs`` :class:`~repro.gpusim.cluster.ClusterSpec`, runs one
unified kernel on it and reads its sharded ledger (:func:`_curve`); a
one-GPU cluster runs the exact single-device path, and a one-node cluster
never books its NIC.  The experiments differ only in the clusters and
tensors they walk:

* **strong scaling** (:func:`run_scaling`) — a fixed dataset analog on one
  node of 1-8 GPUs; the speedup column is ``T(1 GPU) / T(N GPUs)`` and the
  parallel efficiency is ``speedup / N``.
* **weak scaling** (:func:`run_weak_scaling`) — the problem grows with the
  device count (``N`` times the base non-zeros on ``N`` GPUs); the
  efficiency column is ``T(1 GPU) / T(N GPUs)``, which would be 1 under
  perfect scaling.
* **multi-node scaling** (:func:`run_multinode_scaling`) — brainq on 1/2/4
  nodes of :data:`DEVICES_PER_NODE` GPUs; next to the modeled reduction
  under hierarchical collectives, the table prices what the
  topology-oblivious **flat ring** would have charged and names the
  algorithm the cost model selected, making the claim "hierarchical is
  never costlier than the flat ring when the NIC is the slower tier"
  visible and checkable by the CI regression gate.
* **the trace** (:func:`collect_scaling_trace`) — one run of each kernel,
  booked back to back onto one unified timeline.

Like the capacity experiments (which shrink the simulated device memory by
the dataset's shrink factor), both interconnect tiers must be projected to
analog scale: the analogs carry 100-1000x fewer non-zeros than the paper's
tensors, so kernel times shrink by that factor while a real link latency
would not — charging 5 us of latency against a 10 us kernel would say
nothing about paper-scale behaviour.  :func:`analog_interconnect` shrinks
the latency by the dataset's *time* scale (analog nnz / paper nnz) and
rescales the bandwidth by the payload-to-time ratio, so the modeled
reduction keeps the same proportion to compute that it would have at paper
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.context import ExecContext
from repro.data.registry import DATASETS, load_dataset
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ETHERNET_10G, ClusterSpec, InterconnectSpec, PCIE3_P2P
from repro.gpusim.device import TITAN_X
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
    "MultiNodeScalingResult",
    "analog_interconnect",
    "collect_scaling_trace",
    "run_scaling",
    "run_weak_scaling",
    "run_multinode_scaling",
    "DEFAULT_DEVICE_COUNTS",
    "DEFAULT_NODE_COUNTS",
    "DEVICES_PER_NODE",
    "SCALING_OPERATIONS",
]

#: The device counts of the one-node scaling curves (a typical 8-GPU node).
DEFAULT_DEVICE_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: The node counts of the default multi-node scaling curve.
DEFAULT_NODE_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: GPUs on each node of the multi-node curve.
DEVICES_PER_NODE = 2

#: All three unified kernels, in the order the tables report them.
SCALING_OPERATIONS: Tuple[str, ...] = ("spttm", "spmttkrp", "spttmc")

#: Paper-scale non-zero count the weak-scaling synthetic workloads model
#: (the magnitude of the paper's large tensors: nell1/delicious, ~1.4e8).
NOMINAL_PAPER_NNZ = 1.0e8

#: The 1-GPU weak-scaling workload; ``N`` GPUs get an ``N``-times-longer
#: mode 0 and ``N`` times the non-zeros.
WEAK_BASE_SHAPE: Tuple[int, ...] = (128, 160, 120)
WEAK_BASE_NNZ = 24_000


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
    """One point of a scaling curve: one kernel on one ``nodes x GPUs`` cluster.

    ``baseline_s`` and ``baseline_devices`` are the curve's first point.
    Above one node, ``flat_reduction_s`` prices the same all-reduce payload
    over the topology-oblivious flat ring and ``reduction_algorithm`` names
    the collective the cost model selected; otherwise the flat ring is the
    reduction itself, named ``"boundary"`` for SpTTM's boundary exchange
    and ``"single-node"`` for the others.
    """

    operation: str
    workload: str
    num_nodes: int
    num_devices: int
    nnz: int
    time_s: float
    baseline_s: float
    baseline_devices: int
    max_shard_s: float
    reduction_s: float
    flat_reduction_s: float
    reduction_algorithm: str

    @property
    def speedup(self) -> float:
        """``T(baseline) / T(this)`` — above 1 is a win."""
        return self.baseline_s / self.time_s if self.time_s else 1.0

    @property
    def efficiency(self) -> float:
        """Parallel efficiency: the speedup over the growth in GPUs since
        the baseline (``N`` GPUs from one, or ``N`` nodes from one)."""
        return self.speedup * self.baseline_devices / self.num_devices


class _Curves:
    """The rows of one experiment, looked up one curve at a time."""

    rows: List[ScalingRow]

    def rows_for(self, operation: str, workload: Optional[str] = None) -> List[ScalingRow]:
        """The curve of one operation (optionally restricted to a workload)."""
        return [
            r
            for r in self.rows
            if r.operation == operation and (workload is None or r.workload == workload)
        ]


@dataclass
class ScalingResult(_Curves):
    """All rows of a one-node scaling experiment (one kind: strong or weak)."""

    rank: int
    kind: str
    device_counts: Tuple[int, ...]
    rows: List[ScalingRow]

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


@dataclass
class MultiNodeScalingResult(_Curves):
    """All rows of one multi-node scaling experiment."""

    rank: int
    node_counts: Tuple[int, ...]
    rows: List[ScalingRow]

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
        body = [
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
            for r in self.rows
        ]
        return format_table(
            headers,
            body,
            title=(
                f"Multi-node scaling of the unified kernels "
                f"(rank={self.rank}, "
                f"{'/'.join(str(m) for m in self.node_counts)} nodes x "
                f"{DEVICES_PER_NODE} GPUs, two-tier analog interconnects)"
            ),
        )


_OPERATION_KINDS = {
    "spttm": OperationKind.SPTTM,
    "spmttkrp": OperationKind.SPMTTKRP,
    "spttmc": OperationKind.SPTTMC,
}


@dataclass(frozen=True)
class _Workload:
    """One kernel on one tensor, with both interconnect tiers (intra-node
    ``link`` and inter-node ``nic``) projected to the tensor's scale."""

    operation: str
    name: str
    fcoo: FCOOTensor
    factors: List[np.ndarray]
    link: InterconnectSpec
    nic: InterconnectSpec


def _workload(
    operation: str,
    name: str,
    tensor: SparseTensor,
    mode: int,
    rank: int,
    *,
    time_scale: float,
    payload_scale: Optional[float],
    suffix: str,
) -> _Workload:
    """``operation`` on ``tensor``'s mode ``mode``, labelled ``name``;
    the projected tiers' names end in ``[suffix]``.

    SpTTMc's output width is the rank *squared*, so its factor rank is
    capped at 8.
    """
    op_rank = min(rank, 8) if operation == "spttmc" else rank
    link, nic = (
        analog_interconnect(
            base, time_scale=time_scale, payload_scale=payload_scale, name_suffix=suffix
        )
        for base in (PCIE3_P2P, ETHERNET_10G)
    )
    return _Workload(
        operation=operation,
        name=name,
        fcoo=FCOOTensor.from_sparse(tensor, _OPERATION_KINDS[operation], mode),
        factors=[np.asarray(f) for f in random_factors(tensor.shape, op_rank, seed=0)],
        link=link,
        nic=nic,
    )


def _dataset_workloads(name: str, rank: int) -> Iterator[_Workload]:
    """Every kernel's mode-0 workload on one dataset analog.

    The tiers shrink their latency by the analog's non-zero scale.  SpTTM
    only exchanges boundary fibers (payloads shrinking like the time, so
    the bandwidth stays untouched); the dense factor/unfolding outputs of
    the other two shrink with mode 0's size.
    """
    spec = DATASETS[name]
    tensor = load_dataset(name)
    time_scale = tensor.nnz / spec.paper_nnz
    dense_payload_scale = tensor.shape[0] / spec.paper_shape[0]
    for op in SCALING_OPERATIONS:
        yield _workload(
            op,
            name,
            tensor,
            0,
            rank,
            time_scale=time_scale,
            payload_scale=None if op == "spttm" else dense_payload_scale,
            suffix=f"analog {name}",
        )


def _run(workload: _Workload, devices_per_node: int, num_nodes: int):
    """Run ``workload``'s kernel on ``num_nodes`` nodes of
    ``devices_per_node`` Titan X GPUs; returns ``(cluster, result)``."""
    cluster = ClusterSpec.homogeneous(
        TITAN_X,
        devices_per_node,
        num_nodes=num_nodes,
        interconnect=workload.link,
        nic=workload.nic,
    )
    ctx = ExecContext(cluster=cluster)
    fcoo, factors, mode = workload.fcoo, workload.factors, workload.fcoo.mode
    if workload.operation == "spttm":
        return cluster, unified_spttm(fcoo, factors[mode], mode, ctx=ctx)
    if workload.operation == "spmttkrp":
        return cluster, unified_spmttkrp(fcoo, factors, mode, ctx=ctx)
    return cluster, unified_spttmc(fcoo, factors, mode, ctx=ctx)


def _curve(points: Iterable[Tuple[_Workload, int, int]]) -> List[ScalingRow]:
    """The rows of one curve, one per ``(workload, GPUs per node, nodes)``
    point; the first point is the baseline of every point."""
    rows: List[ScalingRow] = []
    for workload, devices_per_node, num_nodes in points:
        cluster, result = _run(workload, devices_per_node, num_nodes)
        execution = result.profile.sharded
        time_s = result.estimated_time_s
        reduction_s = execution.reduction_time_s if execution is not None else 0.0
        if workload.operation == "spttm" or num_nodes == 1:
            flat_s = reduction_s
            algorithm = "boundary" if workload.operation == "spttm" else "single-node"
        else:
            flat_s = cluster.flat_allreduce_time(execution.reduction_bytes)
            algorithm = cluster.allreduce_algorithm(execution.reduction_bytes)
        baseline = rows[0] if rows else None
        rows.append(
            ScalingRow(
                operation=workload.operation,
                workload=workload.name,
                num_nodes=num_nodes,
                num_devices=cluster.num_devices,
                nnz=workload.fcoo.nnz,
                time_s=time_s,
                baseline_s=baseline.time_s if baseline else time_s,
                baseline_devices=baseline.num_devices if baseline else cluster.num_devices,
                max_shard_s=execution.max_shard_time_s if execution is not None else time_s,
                reduction_s=reduction_s,
                flat_reduction_s=flat_s,
                reduction_algorithm=algorithm,
            )
        )
    return rows


def run_scaling(
    *,
    rank: int = 16,
    datasets: Optional[Sequence[str]] = None,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
) -> ScalingResult:
    """Strong scaling: fixed dataset analogs on one node of growing size.

    Every (operation, dataset) pair runs the mode-0 kernel on each device
    count; the curve's first point is its baseline (1 GPU, the exact
    single-device path, for the default ``device_counts``).
    """
    counts = tuple(int(n) for n in device_counts)
    rows: List[ScalingRow] = []
    for name in datasets if datasets is not None else ("brainq", "nell2"):
        for workload in _dataset_workloads(name, rank):
            rows.extend(_curve((workload, n, 1) for n in counts))
    return ScalingResult(rank=rank, kind="strong", device_counts=counts, rows=rows)


def run_weak_scaling(
    *,
    rank: int = 16,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
) -> ScalingResult:
    """Weak scaling: the problem grows with the device count.

    The ``N``-GPU workload is a synthetic tensor with ``N`` times the
    :data:`WEAK_BASE_NNZ` non-zeros and an ``N``-times-longer mode 0
    (constant work per device); under perfect scaling ``T(N) == T(1)``, so
    the efficiency column is simply ``T(1) / T(N)``.  The interconnect
    latency is projected by the base workload's time scale against
    :data:`NOMINAL_PAPER_NNZ`.
    """
    counts = tuple(int(n) for n in device_counts)
    tensors = {
        n: random_sparse_tensor(
            (WEAK_BASE_SHAPE[0] * n,) + WEAK_BASE_SHAPE[1:],
            WEAK_BASE_NNZ * n,
            seed=0,
            distribution="power",
            concentration=0.9,
        )
        for n in counts
    }
    rows: List[ScalingRow] = []
    for op in SCALING_OPERATIONS:
        # The workload grows along mode 0, so the target mode must keep
        # mode 0 among the *index* modes for the work per device to stay
        # constant: growing a product mode would densify the reduction
        # segments instead of adding them.  SpTTM's target mode is its
        # product mode, so it targets the last mode; the other two index
        # their target mode and can keep mode 0.
        mode = len(WEAK_BASE_SHAPE) - 1 if op == "spttm" else 0
        points = (
            (
                _workload(
                    op,
                    f"weak x{n}",
                    tensors[n],
                    mode,
                    rank,
                    time_scale=WEAK_BASE_NNZ / NOMINAL_PAPER_NNZ,
                    payload_scale=None,
                    suffix="analog weak",
                ),
                n,
                1,
            )
            for n in counts
        )
        rows.extend(_curve(points))
    return ScalingResult(rank=rank, kind="weak", device_counts=counts, rows=rows)


def run_multinode_scaling(
    *,
    rank: int = 16,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
) -> MultiNodeScalingResult:
    """Strong scaling of brainq across nodes with hierarchical collectives.

    Every operation runs the mode-0 kernel on a growing number of
    :data:`DEVICES_PER_NODE`-GPU nodes; the curve's *first* point is its
    baseline (the one-node point for the default ascending
    ``node_counts``).  Both tiers are projected to the analog's scale,
    preserving the NIC-vs-P2P bandwidth and latency ratios; the ``flat
    ring`` column prices the same all-reduce payload over the
    topology-oblivious single-tier ring for comparison.
    """
    counts = tuple(int(m) for m in node_counts)
    rows: List[ScalingRow] = []
    for workload in _dataset_workloads("brainq", rank):
        rows.extend(_curve((workload, DEVICES_PER_NODE, m) for m in counts))
    return MultiNodeScalingResult(rank=rank, node_counts=counts, rows=rows)


def collect_scaling_trace(
    *,
    rank: int = 8,
    num_devices: int = 4,
    num_nodes: int = 1,
) -> Timeline:
    """Book one sharded run of each kernel onto a shared unified timeline.

    The three unified kernels run back to back on brainq over
    ``num_nodes`` nodes of ``num_devices`` GPUs (the tiers projected to
    analog scale like the scaling tables'), and each execution's ledger
    books its shard computes and partial-output collective onto one
    :class:`~repro.gpusim.timeline.Timeline` through
    :meth:`~repro.kernels.unified.sharded.ShardedExecution.book`; above one
    node the trace also shows the per-node ``nic:*`` lanes.  Backs
    ``python -m repro scaling --trace out.json``: per-device compute lanes
    plus the link/NIC lanes of the reductions, viewable in
    ``chrome://tracing``.
    """
    timeline = Timeline()
    clock = 0.0
    for workload in _dataset_workloads("brainq", rank):
        _, result = _run(workload, num_devices, num_nodes)
        execution = result.profile.sharded
        if execution is not None:
            _, clock = execution.book(timeline, ready_s=clock, label=workload.operation)
        else:
            clock = timeline.book(
                timeline.resource(device_compute_key(0), category="compute"),
                result.estimated_time_s,
                ready_s=clock,
                label=workload.operation,
            ).end_s
    return timeline
