"""Capability-aware job placement over a heterogeneous cluster.

The placer answers two questions per job, using only host-side tensor
statistics (no encoding is built before admission passes):

* **admission** — can the cluster run this job at all?  The dense operands
  (factor matrices and the output) must stay resident on a device for the
  whole kernel even on the streamed path, so a job whose resident bytes
  plus two minimal chunk buffers exceed *every* device's memory is rejected
  up front with a clear reason instead of dying inside the kernel with
  :class:`~repro.gpusim.timing.OutOfDeviceMemory`.

* **placement** — where should it run?  Jobs whose one-shot footprint fits
  a single device are placed on the device minimising the estimated
  completion time (the device's earliest compute slot plus the job's
  modeled traffic over that device's roofline throughput — so a twice-as-
  fast device is preferred even when slightly busier).  Jobs larger than
  the biggest device shard across the whole cluster through
  :mod:`repro.kernels.unified.sharded`, whose capability-weighted
  partitioner sizes each device's shard proportional to its modeled
  throughput.

On a :class:`~repro.gpusim.cluster.ClusterSpec` of several nodes the
placer is additionally **node-aware**: an oversize job that fits inside a
single node's aggregate memory shards across *that node only* — its
collectives stay on the fast intra-node P2P tier and never cross the NIC —
choosing among qualifying nodes by estimated completion time (data
locality first, load balance among the local options).  Only a job too
large for every individual node spills to a cluster-wide shard over the
NIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import ClusterSpec
from repro.gpusim.device import DeviceSpec
from repro.serve.job import Job, JobKind

__all__ = [
    "BLOCK_SIZE",
    "THREADLEN",
    "NUM_STREAMS",
    "JobGeometry",
    "job_geometry",
    "Placement",
    "Placer",
]

#: The launch every placement starts from; the tuner cache replaces it per
#: job shape when the scheduler autotunes.
BLOCK_SIZE = 128
THREADLEN = 8

#: Streams (and in-flight chunk buffers) of the kernels' out-of-core path.
NUM_STREAMS = 2

#: Bytes per stored factor/output element (the kernels' single precision).
_VALUE_BYTES = 4.0

#: Largest tensor value magnitude F-COO's float32 values can hold.
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class JobGeometry:
    """Host-side size estimate of one job's device-memory needs.

    Attributes
    ----------
    fcoo_bytes:
        The F-COO encoding's storage (Table II accounting) — the bytes
        staged over PCIe for a resident job, or streamed chunk-by-chunk.
    resident_bytes:
        Dense operands that must stay on-device for the whole kernel: the
        gathered factor matrices plus the output (for decompositions, the
        worst mode's operands).
    output_bytes:
        The output portion of ``resident_bytes`` (what an all-reduce would
        move for a sharded dense-output kernel).
    """

    fcoo_bytes: float
    resident_bytes: float
    output_bytes: float
    nnz: int = 0

    @property
    def footprint_bytes(self) -> float:
        """One-shot device footprint: encoding plus resident operands."""
        return self.fcoo_bytes + self.resident_bytes

    @property
    def factor_bytes(self) -> float:
        """The input half of the resident operands — the dense factor
        matrices that actually cross PCIe (the output is produced on the
        device and only occupies memory there)."""
        return self.resident_bytes - self.output_bytes

    @property
    def bytes_per_nnz(self) -> float:
        """Encoding bytes per non-zero (sizes the minimal streamed chunk)."""
        return self.fcoo_bytes / self.nnz if self.nnz else 0.0


def _kernel_geometry(
    job: Job,
    kind: JobKind,
    mode: int,
    ranks: Optional[Sequence[int]] = None,
) -> JobGeometry:
    """Geometry of one kernel invocation at :data:`THREADLEN` (shared with
    the decomposition estimates, which take the worst mode).  ``ranks``
    gives the per-mode factor widths (``job.rank`` everywhere by default;
    Tucker passes its shape-clamped multilinear rank)."""
    tensor = job.tensor
    shape = tensor.shape
    order = tensor.order
    if ranks is None:
        ranks = (job.rank,) * order
    product_modes = (
        (mode,) if kind is JobKind.SPTTM else tuple(m for m in range(order) if m != mode)
    )
    nnz = tensor.nnz
    fcoo_bytes = FCOOTensor.estimate_storage_bytes(
        nnz, len(product_modes), threadlen=THREADLEN
    )

    factor_bytes = sum(shape[m] * ranks[m] * _VALUE_BYTES for m in product_modes)
    if kind is JobKind.SPTTM:
        fibers = tensor.num_fibers(mode)
        rank = ranks[mode]
        output_bytes = fibers * rank * _VALUE_BYTES + fibers * (order - 1) * _VALUE_BYTES
    elif kind is JobKind.SPMTTKRP:
        output_bytes = shape[mode] * ranks[mode] * _VALUE_BYTES
    else:  # SPTTMC: the unfolding's width is the product-mode ranks' product
        out_width = 1
        for m in product_modes:
            out_width *= ranks[m]
        output_bytes = shape[mode] * out_width * _VALUE_BYTES
    return JobGeometry(
        fcoo_bytes=float(fcoo_bytes),
        resident_bytes=float(factor_bytes + output_bytes),
        output_bytes=float(output_bytes),
        nnz=nnz,
    )


def job_geometry(job: Job) -> JobGeometry:
    """Device-memory geometry of a job, from host-side statistics alone.

    Kernel jobs size their one invocation; decomposition jobs take the
    worst per-mode geometry of their bottleneck kernel (CP-ALS runs one
    SpMTTKRP per mode per sweep, Tucker one SpTTMc — with Tucker's
    per-mode ranks clamped to the shape, exactly as ``tucker_hooi``
    clamps them), since every mode's kernel must fit during the
    decomposition.
    """
    if job.kind.is_kernel:
        return _kernel_geometry(job, job.kind, job.mode)
    if job.kind is JobKind.CP_ALS:
        inner, ranks = JobKind.SPMTTKRP, None
    else:
        inner, ranks = JobKind.SPTTMC, job.tucker_ranks
    per_mode = [
        _kernel_geometry(job, inner, mode, ranks)
        for mode in range(job.tensor.order)
    ]
    worst = max(per_mode, key=lambda g: g.footprint_bytes)
    return worst


@dataclass(frozen=True)
class Placement:
    """Where (and how) one job executes.

    ``cluster`` is ``None`` for a single-device placement (``device_slots``
    then has one entry and ``device`` is that slot's spec).  For a sharded
    placement ``cluster`` is what the kernel executes on: the serving
    cluster itself when the job spans every member, its survivor topology
    after a node loss, or — on a multi-node serving cluster — one node as
    a one-node :class:`~repro.gpusim.cluster.ClusterSpec`
    (:meth:`~repro.gpusim.cluster.NodeSpec.as_cluster`) for a node-local
    shard (``node_index`` then names the node and ``device_slots`` are the
    node's *flat* serving slots).  ``device`` is ``None`` either way.
    """

    device_slots: Tuple[int, ...]
    cluster: Optional[ClusterSpec]
    block_size: int
    threadlen: int
    device: Optional[DeviceSpec] = None
    node_index: Optional[int] = None

    @property
    def sharded(self) -> bool:
        """Whether the job shards across several devices."""
        return self.cluster is not None

    @property
    def crosses_nic(self) -> bool:
        """Whether this placement's execution touches the inter-node NIC.

        Only a sharded placement whose execution cluster spans several
        nodes reduces over the NIC; single-device and node-local placements
        stay inside one node by construction.
        """
        return self.cluster is not None and self.cluster.num_nodes > 1

    @property
    def primary_device(self) -> DeviceSpec:
        """The placement's nominal device: the chosen device for a
        single-device placement, the cluster's first member otherwise
        (sharded kernel calls ignore it — the cluster wins inside
        ``resolve_cluster`` — but the decomposition engines and the tuner
        need one definite spec)."""
        if self.device is not None:
            return self.device
        return self.cluster.devices[0]


class Placer:
    """Capability-aware (and, over two tiers, node-aware) placement policy."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        #: Roofline throughput score per device slot (bytes/s) — the same
        #: scores whose normalisation weights the shard partitioner, so
        #: placement preference and shard sizing cannot diverge.
        self.scores: Tuple[float, ...] = cluster.capability_scores()

    @property
    def multinode(self) -> bool:
        """Whether the serving cluster has an inter-node NIC tier."""
        return self.cluster.num_nodes > 1

    # ------------------------------------------------------------------ #
    def admit(self, job: Job, geometry: Optional[JobGeometry] = None) -> Optional[str]:
        """Admission control: a rejection reason, or ``None`` to admit.

        The tensor must have at least two modes: every F-COO operation
        needs a product mode and an index mode.  A job is admitted
        when at least one device can hold its resident dense operands next
        to :data:`NUM_STREAMS` minimal streamed chunk buffers — the
        weakest execution mode the kernels support.  (Sharding does not
        relax this bound: every shard stages the full factor matrices.)
        Callers that already sized the job pass its ``geometry`` to avoid
        recomputing it.

        Every tensor value must also be finite and within the float32
        range F-COO stores values in: a value outside it would become
        ``inf`` in the encoding and poison the job's output (or hang the
        SVD of a Tucker job).  A decomposition's tensor must keep a
        non-zero value after that float32 cast, which flushes values below
        float32's smallest subnormal to zero: the fit of an all-zero
        tensor is undefined, and both decompositions raise on it.
        """
        if job.tensor.order < 2:
            return (
                f"tensor order {job.tensor.order} is below 2; every F-COO "
                f"operation needs a product mode and an index mode"
            )
        if geometry is None:
            geometry = job_geometry(job)
        needed = geometry.resident_bytes + self._min_chunk_bytes(geometry)
        if needed > self.cluster.max_device_memory_bytes:
            return (
                f"resident operands need {needed:.0f} B but the largest device "
                f"holds {self.cluster.max_device_memory_bytes} B"
            )
        # ``<=`` is False for NaN, so one pass catches NaN, inf and overflow.
        bad = int(np.count_nonzero(~(np.abs(job.tensor.values) <= FLOAT32_MAX)))
        if bad:
            return (
                f"{bad} tensor value(s) are not finite or exceed the float32 "
                f"range of F-COO values"
            )
        if not job.kind.is_kernel and not np.any(job.tensor.values.astype(np.float32)):
            return (
                "every tensor value is zero as a float32 F-COO value; a "
                "decomposition's fit is undefined"
            )
        return None

    def _min_chunk_bytes(self, geometry: JobGeometry) -> float:
        """Bytes of the smallest viable streamed chunk buffers: one
        ``threadlen`` partition per in-flight stream."""
        return NUM_STREAMS * THREADLEN * geometry.bytes_per_nnz

    def feasible_slots(
        self, geometry: JobGeometry, excluded: AbstractSet[int] = frozenset()
    ) -> Tuple[int, ...]:
        """Slots whose device can run the job at least in streamed mode.

        ``excluded`` removes slots from consideration — the scheduler
        passes the slots of failed nodes so nothing places on a dead
        device.
        """
        needed = geometry.resident_bytes + self._min_chunk_bytes(geometry)
        return tuple(
            slot
            for slot, device in enumerate(self.cluster.devices)
            if slot not in excluded and needed <= device.global_mem_bytes
        )

    def _node_local_placement(
        self,
        geometry: JobGeometry,
        compute_free_s: Sequence[float],
        now_s: float,
        excluded_nodes: AbstractSet[int] = frozenset(),
    ) -> Optional[Placement]:
        """The best single-node sharded placement, or ``None``.

        A node qualifies when it has devices to shard over, every member
        can hold the resident operands (next to minimal chunk buffers),
        and the node's aggregate memory fits the whole job one-shot — the
        encoding split across the members with each member's replica of
        the dense operands.  Among qualifying nodes the placer minimises
        the estimated completion time ``max(now, node's busiest compute
        slot) + traffic / node aggregate throughput`` — data locality
        first, load balance among the local options.
        """
        cluster = self.cluster
        needed = geometry.resident_bytes + self._min_chunk_bytes(geometry)
        best: Optional[Tuple[float, int]] = None
        traffic = geometry.footprint_bytes + geometry.output_bytes
        for index, node in enumerate(cluster.nodes):
            if index in excluded_nodes:
                continue
            if node.num_devices < 2:
                continue
            if needed > min(d.global_mem_bytes for d in node.devices):
                continue
            aggregate = (
                geometry.fcoo_bytes + node.num_devices * geometry.resident_bytes
            )
            if aggregate > sum(d.global_mem_bytes for d in node.devices):
                continue
            slots = cluster.node_slots(index)
            throughput = sum(self.scores[s] for s in slots)
            finish = (
                max([now_s] + [compute_free_s[s] for s in slots])
                + traffic / throughput
            )
            if best is None or (finish, index) < best:
                best = (finish, index)
        if best is None:
            return None
        index = best[1]
        return Placement(
            device_slots=cluster.node_slots(index),
            cluster=cluster.nodes[index].as_cluster(),
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            node_index=index,
        )

    def place(
        self,
        geometry: JobGeometry,
        compute_free_s: Sequence[float],
        now_s: float,
        excluded_nodes: FrozenSet[int] = frozenset(),
        excluded_slots: FrozenSet[int] = frozenset(),
    ) -> Placement:
        """Choose the execution site of an admitted job.

        Single-device placements minimise the estimated completion time
        ``max(now, device free) + traffic / device roofline throughput``;
        jobs whose one-shot footprint exceeds every device shard — inside
        a single node when one can hold the whole job (the collectives
        then never cross the NIC), across the whole cluster otherwise
        (capability-weighted shards, per-device streamed fallback).

        ``excluded_nodes`` / ``excluded_slots`` remove failed nodes (and
        their flat device slots) from every option: node-local shards skip
        failed nodes, a cluster-spanning shard runs on the survivor
        topology, and single-device placements never pick a dead slot.
        """
        cluster = self.cluster
        # Sharding stages the full dense operands on *every* member (only
        # the non-zero stream is split), so it is feasible only when the
        # resident bytes fit the smallest device.
        resident_everywhere = (
            geometry.resident_bytes + self._min_chunk_bytes(geometry)
            <= cluster.min_device_memory_bytes
        )
        if (
            cluster.num_devices > 1
            and geometry.footprint_bytes > cluster.max_device_memory_bytes
        ):
            if self.multinode:
                local = self._node_local_placement(
                    geometry, compute_free_s, now_s, excluded_nodes
                )
                if local is not None:
                    return local
            if resident_everywhere:
                exec_cluster = cluster
                flat = list(range(cluster.num_devices))
                # Drop failed nodes highest-index first so the remaining
                # node indices stay valid while shrinking.
                for node in sorted(excluded_nodes, reverse=True):
                    if exec_cluster.num_nodes > 1 and node < exec_cluster.num_nodes:
                        survivors = exec_cluster.surviving_slots(node)
                        flat = [flat[s] for s in survivors]
                        exec_cluster = exec_cluster.without_node(node)
                return Placement(
                    device_slots=tuple(flat),
                    cluster=exec_cluster,
                    block_size=BLOCK_SIZE,
                    threadlen=THREADLEN,
                )
        slots = self.feasible_slots(geometry, excluded=excluded_slots)
        if not slots:  # admit() keeps this unreachable; defensive
            slots = tuple(
                s for s in range(cluster.num_devices) if s not in excluded_slots
            ) or tuple(range(cluster.num_devices))
        traffic = geometry.footprint_bytes + geometry.output_bytes

        # Prefer devices the job fits on one-shot (a streamed fallback
        # re-ships the encoding every execution); among those, minimise the
        # estimated completion time.
        best = min(
            slots,
            key=lambda s: (
                geometry.footprint_bytes > cluster.devices[s].global_mem_bytes,
                max(now_s, compute_free_s[s]) + traffic / self.scores[s],
                s,
            ),
        )
        return Placement(
            device_slots=(best,),
            cluster=None,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            device=cluster.devices[best],
        )
