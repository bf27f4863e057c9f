"""Multi-GPU sharded execution of the unified kernels.

The streamed path broke the single-device *memory* ceiling; this
module breaks the single-device *throughput* ceiling: the F-COO non-zero
stream is partitioned across the devices of a
:class:`~repro.gpusim.cluster.ClusterSpec` (one node, or several nodes
over a NIC) on the same segment-safe, ``threadlen``-aligned boundaries the
out-of-core path uses (:meth:`~repro.formats.fcoo.FCOOTensor.chunk`), each
shard is priced as the unchanged one-shot kernel on its own device —
falling back to the per-device streamed model when the shard still exceeds
that device's memory — and the per-device partial outputs merge through a
modeled collective:

* an **all-reduce** of the dense output for SpMTTKRP / SpTTMc (every
  device needs the updated factor for the next ALS/HOOI sweep), or
* a **boundary exchange** for SpTTM (the semi-sparse output stays
  partitioned across the devices for the next pipeline stage to consume in
  place; only the partial fibers straddling a shard boundary move to a
  neighbour, over the NIC when the neighbour is in another node).

Shards are treated as *staged*: like the single-device one-shot kernels
(whose profiles exclude the initial tensor transfer — the CP engine charges
it once in ``prepare()``), a shard's H2D staging bytes are recorded in its
ledger but not charged to the kernel makespan.  A shard that falls back to
streaming re-ships its chunks every execution and is charged exactly as the
single-device streamed path would be.

The driver models time and memory only.  The numbers come from one
canonical pass over the whole stream
(:func:`repro.kernels.unified.driver.compute`), so outputs are
*bit-identical* to the one-shot kernels for every cluster shape.
``tests/test_sharded.py`` is the property harness proving it across 1/2/4
devices, and mid-run fault recovery (checkpoint/replay on the survivor
topology) relies on it for recovered-run == failure-free-run factor
identity.  :func:`plan_node_recovery` prices that recovery's re-staging;
the decompositions' run core
(:class:`~repro.algorithms.decomposition.DecompositionTimeline`) books
the plans and each :class:`ShardedExecution` on one timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.formats.fcoo import FCOOChunk, FCOOTensor
from repro.gpusim.cluster import ClusterSpec
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.device import DeviceSpec
from repro.gpusim.timeline import Timeline, device_compute_key, device_copy_key
from repro.util.validation import check_positive_int

__all__ = [
    "ShardLedger",
    "ShardedExecution",
    "RecoveryPlan",
    "partition_shards",
    "partition_shards_hierarchical",
    "partition_for_cluster",
    "plan_node_recovery",
    "execute_sharded",
]

#: Prices one shard: maps the shard's F-COO encoding and its device to the
#: profile of executing it on that device (one-shot or streamed).
ShardModel = Callable[[FCOOTensor, DeviceSpec], KernelProfile]


def partition_shards(
    fcoo: FCOOTensor,
    num_shards: int,
    *,
    threadlen: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> List[FCOOChunk]:
    """Split the non-zero stream into at most ``num_shards`` device shards.

    With ``weights=None`` (the homogeneous fast path) the shard size is
    ``ceil(nnz / num_shards)`` rounded *up* to a ``threadlen`` multiple, so
    shard boundaries coincide with per-thread partition boundaries and the
    shard count never exceeds the device count (a short stream simply
    leaves trailing devices idle).

    With ``weights`` (one positive entry per shard — typically
    :meth:`~repro.gpusim.cluster.ClusterSpec.capability_weights` of a
    heterogeneous cluster) the per-thread partitions are allocated to
    shards *proportionally to the weights* by largest remainder, so a
    device with twice the modeled throughput receives (up to ``threadlen``
    granularity) twice the non-zeros and the shards finish together.
    Exactly ``num_shards`` chunks are returned in this mode, empty chunks
    included, so ``shards[i]`` always executes on device ``i`` — a device
    allocated no partitions gets an empty placeholder, not a shifted
    neighbour's shard.

    Either way boundaries are ``threadlen``-aligned and segment safety — a
    fiber/slice straddling a shard boundary — is handled by the same
    global-segment-id bookkeeping the out-of-core chunks use.
    """
    num_shards = check_positive_int(num_shards, "num_shards")
    threadlen = check_positive_int(threadlen, "threadlen")
    if fcoo.nnz == 0:
        return []
    if weights is None:
        per_shard = -(-fcoo.nnz // num_shards)
        per_shard = -(-per_shard // threadlen) * threadlen
        return fcoo.chunk(per_shard, threadlen=threadlen)

    weights = [float(w) for w in weights]
    if len(weights) != num_shards:
        raise ValueError(
            f"need one weight per shard ({num_shards}), got {len(weights)}"
        )
    n_parts = -(-fcoo.nnz // threadlen)
    alloc = _allocate_partitions(n_parts, weights)
    return _chunks_from_allocation(fcoo, alloc, threadlen)


def _allocate_partitions(n_parts: int, weights: Sequence[float]) -> List[int]:
    """Allocate ``n_parts`` whole thread partitions by largest remainder.

    Floor each slot's ideal share, then hand the leftover partitions to
    the largest fractional parts (ties broken toward the heavier weight,
    then the lower slot, for determinism).
    """
    weights = [float(w) for w in weights]
    if any(not np.isfinite(w) or w <= 0.0 for w in weights):
        raise ValueError(f"shard weights must be positive and finite, got {weights}")
    total = sum(weights)
    ideal = [n_parts * w / total for w in weights]
    alloc = [int(share) for share in ideal]
    order = sorted(
        range(len(weights)), key=lambda i: (-(ideal[i] - alloc[i]), -weights[i], i)
    )
    for i in order[: n_parts - sum(alloc)]:
        alloc[i] += 1
    return alloc


def _chunks_from_allocation(
    fcoo: FCOOTensor, alloc: Sequence[int], threadlen: int
) -> List[FCOOChunk]:
    """Materialise contiguous shard spans from a per-slot partition count."""
    chunks: List[FCOOChunk] = []
    consumed = 0
    for parts in alloc:
        start = min(consumed * threadlen, fcoo.nnz)
        stop = min((consumed + parts) * threadlen, fcoo.nnz)
        chunks.append(fcoo.chunk_span(start, stop, threadlen=threadlen))
        consumed += parts
    return chunks


def partition_shards_hierarchical(
    fcoo: FCOOTensor,
    cluster: ClusterSpec,
    *,
    threadlen: int = 1,
) -> List[FCOOChunk]:
    """Topology-aware sharding: node spans first, devices within them.

    The ``threadlen``-aligned partitions of the non-zero stream are first
    allocated to *nodes* proportionally to each node's aggregate
    capability (:meth:`~repro.gpusim.cluster.ClusterSpec.node_capability_weights`),
    so every node owns one contiguous span; each node's span is then
    subdivided across its member devices proportionally to their
    individual capabilities.  Exactly ``cluster.num_devices`` chunks come
    back in flat slot order, empty placeholders included, so
    ``shards[i]`` always executes on flat device slot ``i``.

    Boundaries are ``threadlen``-aligned everywhere, and node-span
    boundaries coincide with shard boundaries by construction — a segment
    straddling two nodes is merged by the same global-segment-id
    bookkeeping as any other shard boundary, only priced over the NIC by
    the reduction model instead of the P2P tier.
    """
    threadlen = check_positive_int(threadlen, "threadlen")
    if fcoo.nnz == 0:
        return []
    n_parts = -(-fcoo.nnz // threadlen)
    node_alloc = _allocate_partitions(n_parts, cluster.node_capability_weights())
    scores = cluster.capability_scores()
    alloc: List[int] = []
    start = 0
    for node, node_parts in zip(cluster.nodes, node_alloc):
        node_scores = scores[start : start + node.num_devices]
        start += node.num_devices
        alloc.extend(_allocate_partitions(node_parts, node_scores))
    return _chunks_from_allocation(fcoo, alloc, threadlen)


def partition_for_cluster(
    fcoo: FCOOTensor,
    cluster: ClusterSpec,
    *,
    threadlen: int = 1,
) -> List[FCOOChunk]:
    """The shard partition ``execute_sharded`` uses for ``cluster``.

    Topology-aware (:func:`partition_shards_hierarchical`) for a cluster
    of several nodes, capability-weighted for a heterogeneous one-node
    cluster, and the exact even-split fast path for a homogeneous one.
    Single-sourced so the recovery planner reasons about precisely the
    shards a re-executed kernel will use — the partition for a given
    ``(fcoo, cluster, threadlen)`` is a pure function of its arguments.
    """
    if cluster.num_nodes > 1:
        return partition_shards_hierarchical(fcoo, cluster, threadlen=threadlen)
    weights = None if cluster.is_homogeneous else cluster.capability_weights()
    return partition_shards(
        fcoo, cluster.num_devices, threadlen=threadlen, weights=weights
    )


@dataclass(frozen=True)
class RecoveryPlan:
    """Re-partitioning plan after the loss of one node mid-run.

    Attributes
    ----------
    survivor_cluster:
        The topology the re-executed kernels run on
        (:meth:`~repro.gpusim.cluster.ClusterSpec.without_node`).
    slot_map:
        Survivor-local device slot ``i`` is original flat slot
        ``slot_map[i]`` — how recovery bookings land on the correct
        physical lanes of the shared timeline.
    restaged_bytes:
        Host-to-device bytes each survivor must re-stage, in
        survivor-local slot order: the part of its *new* shard span not
        already resident from its old span (the failed node's non-zeros
        redistributed across the survivors, plus any span drift from the
        re-balanced weights).
    """

    survivor_cluster: ClusterSpec
    slot_map: Tuple[int, ...]
    restaged_bytes: Tuple[float, ...]

    @property
    def total_restaged_bytes(self) -> float:
        """Aggregate re-staged bytes across every survivor."""
        return float(sum(self.restaged_bytes))

    def book(
        self,
        timeline: Timeline,
        *,
        ready_s: float = 0.0,
        label: str = "restage",
    ) -> float:
        """Book the re-staging onto the survivors' copy engines.

        Each survivor's transfer books its *original* slot's copy lane
        (via :attr:`slot_map`) from a common start; returns the time the
        last transfer lands — when replay may begin.
        """
        end = ready_s
        for local, nbytes in enumerate(self.restaged_bytes):
            if nbytes <= 0.0:
                continue
            slot = self.slot_map[local]
            lane = timeline.resource(device_copy_key(slot), category="copy")
            device = self.survivor_cluster.devices[local]
            booking = lane.book(
                nbytes / device.pcie_bandwidth_bytes_per_s,
                ready_s=ready_s,
                label=f"{label}:dev{slot}",
            )
            end = max(end, booking.end_s)
        return end


def plan_node_recovery(
    fcoo: FCOOTensor,
    cluster: ClusterSpec,
    failed_node: int,
    *,
    threadlen: int = 1,
) -> RecoveryPlan:
    """Plan the re-partitioning of ``fcoo`` after losing ``failed_node``.

    Compares the shard spans of the original topology against the spans
    of the survivor topology (both through :func:`partition_for_cluster`,
    so they are exactly what ``execute_sharded`` used and will use): each
    survivor re-stages the part of its new contiguous span that its old
    span did not already hold.  Bytes are priced at the encoding's mean
    storage bytes per non-zero.
    """
    survivor = cluster.without_node(failed_node)
    slot_map = cluster.surviving_slots(failed_node)
    old_shards = partition_for_cluster(fcoo, cluster, threadlen=threadlen)
    new_shards = partition_for_cluster(fcoo, survivor, threadlen=threadlen)
    bytes_per_nnz = (
        float(fcoo.storage_bytes(threadlen)) / fcoo.nnz if fcoo.nnz else 0.0
    )
    restaged: List[float] = [0.0] * survivor.num_devices
    for local, chunk in enumerate(new_shards):
        if chunk.nnz == 0:
            continue
        original_slot = slot_map[local]
        if original_slot < len(old_shards):
            old_chunk = old_shards[original_slot]
            overlap = max(
                0, min(chunk.stop, old_chunk.stop) - max(chunk.start, old_chunk.start)
            )
        else:
            overlap = 0
        restaged[local] = (chunk.nnz - overlap) * bytes_per_nnz
    return RecoveryPlan(
        survivor_cluster=survivor,
        slot_map=slot_map,
        restaged_bytes=tuple(restaged),
    )


@dataclass(frozen=True)
class ShardLedger:
    """Counter ledger of one device's shard.

    Attributes
    ----------
    index:
        Device slot the shard executed on (``cluster.devices[index]``).
    device_name:
        The device's human-readable name.
    start / stop / nnz / num_segments / carries_in:
        Position and statistics of the shard in the non-zero stream
        (``carries_in`` marks a segment straddling the boundary with the
        previous shard).
    staged_bytes:
        Host-to-device bytes staged before execution (the shard's F-COO
        arrays); informational — staging happens once, outside the kernel,
        exactly like the single-device one-shot path.
    time_s:
        The shard's wall time on its device (streamed makespan when the
        shard fell back to the out-of-core path).
    counters:
        The shard kernel's work ledger.
    streaming:
        The per-device :class:`~repro.kernels.unified.streaming.StreamedExecution`
        ledger when the shard exceeded its device's memory; ``None`` for a
        resident shard.
    """

    index: int
    device_name: str
    start: int
    stop: int
    nnz: int
    num_segments: int
    carries_in: bool
    staged_bytes: float
    time_s: float
    counters: KernelCounters
    streaming: Optional[object] = None


@dataclass
class ShardedExecution:
    """Full ledger of one multi-GPU sharded kernel execution.

    Attributes
    ----------
    cluster / threadlen:
        The cluster and alignment the stream was sharded with.
    shards:
        One :class:`ShardLedger` per executed shard, in device order.
    reduction_kind / reduction_bytes / reduction_time_s:
        The modeled collective merging the per-device partial outputs
        (``"allreduce"`` or ``"boundary"``; zero-cost when a single shard
        executed).
    """

    cluster: ClusterSpec
    threadlen: int
    shards: List[ShardLedger]
    reduction_kind: str
    reduction_bytes: float
    reduction_time_s: float

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Shards actually executed (at most ``cluster.num_devices``)."""
        return len(self.shards)

    @property
    def num_devices(self) -> int:
        """Devices in the cluster (idle trailing devices included)."""
        return self.cluster.num_devices

    @property
    def device_times(self) -> Dict[int, float]:
        """Per-device busy seconds, keyed by device slot."""
        return {shard.index: shard.time_s for shard in self.shards}

    @property
    def max_shard_time_s(self) -> float:
        """Wall time of the slowest device (shards run concurrently)."""
        return max((s.time_s for s in self.shards), default=0.0)

    @property
    def busy_time_s(self) -> float:
        """Aggregate busy seconds across all devices."""
        return sum(s.time_s for s in self.shards)

    @property
    def total_time_s(self) -> float:
        """Makespan: slowest shard plus the partial-output reduction."""
        return self.max_shard_time_s + self.reduction_time_s

    @property
    def parallel_efficiency(self) -> float:
        """Busy fraction of the cluster over the makespan, in ``(0, 1]``.

        ``busy / (N * makespan)``: 1 when every device computes for the
        whole execution and nothing is spent reducing; idle devices (a
        stream shorter than ``N`` shards), load imbalance and the reduction
        all pull it below 1.
        """
        total = self.total_time_s
        if total <= 0.0:
            return 1.0
        return min(1.0, self.busy_time_s / (self.num_devices * total))

    @property
    def has_streaming_shards(self) -> bool:
        """Whether any shard fell back to the per-device streamed path."""
        return any(s.streaming is not None for s in self.shards)

    # ------------------------------------------------------------------ #
    def book(
        self,
        timeline: Timeline,
        *,
        ready_s: float = 0.0,
        label: str = "sharded-kernel",
        slot_map: Optional[Sequence[int]] = None,
    ) -> Tuple[float, float]:
        """Book this execution onto a shared timeline; returns ``(start, end)``.

        Each shard's busy seconds book its device slot's compute engine
        (all shards start together — they run concurrently) and the
        partial-output reduction books the cluster's collective resources
        (intra-node links, per-node NICs) after the slowest shard.  On an
        idle timeline ``end - start`` equals :attr:`total_time_s` (up to
        float association); busy collective resources — another job's
        in-flight all-reduce on a shared NIC — can only push the end
        later.  This is how the decomposition drivers and the scaling
        trace exporter place kernel executions on the unified timeline.

        ``slot_map`` translates shard slots to physical device slots (a
        survivor cluster after a node loss numbers its slots locally);
        without it the shard index itself is the physical slot.
        """

        def physical(slot: int) -> int:
            if slot_map is not None and slot < len(slot_map):
                return slot_map[slot]
            return slot

        compute = [
            timeline.resource(device_compute_key(physical(s.index)), category="compute")
            for s in self.shards
        ]
        start = ready_s
        for resource in compute:
            start = max(start, resource.free_s)
        for resource, shard in zip(compute, self.shards):
            resource.book(
                shard.time_s,
                ready_s=start,
                label=f"{label}:shard{physical(shard.index)}",
            )
        compute_end = start + self.max_shard_time_s
        end = compute_end
        if self.reduction_time_s > 0.0 and len(self.shards) > 1:
            gang = self.cluster.book_collective(
                timeline,
                self.reduction_time_s,
                ready_s=compute_end,
                label=f"{label}:{self.reduction_kind}",
            )
            end = gang.end_s
        return start, end


def execute_sharded(
    fcoo: FCOOTensor,
    shard_model: ShardModel,
    *,
    cluster: ClusterSpec,
    threadlen: int,
    output_bytes: float,
    output_width: int,
    reduction: str = "allreduce",
    name: str = "unified-sharded",
) -> KernelProfile:
    """Model a unified kernel run shard-by-shard across a cluster.

    Parameters
    ----------
    fcoo:
        The full (host-resident) F-COO encoding.
    shard_model:
        Kernel-specific callable; see :data:`ShardModel`.
    cluster / threadlen:
        The cluster and the chunk alignment.
    output_bytes:
        Size of the dense output an all-reduce moves (ignored by the
        boundary exchange, which sizes payloads from the per-shard segment
        bookkeeping).
    output_width:
        Column count of each reduced segment (sizes the boundary
        payloads).
    reduction:
        ``"allreduce"`` (dense factor outputs that every device needs) or
        ``"boundary"`` (outputs that stay partitioned across the devices —
        the semi-sparse SpTTM fibers — where only shard-straddling
        segments exchange with a neighbour).
    name:
        Profile name; ``-sharded`` is appended.

    Returns
    -------
    KernelProfile
        The makespan profile; ``profile.sharded`` carries the
        :class:`ShardedExecution` ledger.
    """
    threadlen = check_positive_int(threadlen, "threadlen")
    if reduction not in ("allreduce", "boundary"):
        raise ValueError(f"reduction must be 'allreduce' or 'boundary', got {reduction!r}")
    # Topology-aware for a multi-node cluster (nodes own capability-weighted
    # contiguous spans, devices subdivide within their node), capability-
    # weighted for a heterogeneous single node, even-split otherwise.
    shards = partition_for_cluster(fcoo, cluster, threadlen=threadlen)

    ledgers: List[ShardLedger] = []
    merged = KernelCounters()
    peak_device_bytes = 0.0

    for i, shard in enumerate(shards):
        if shard.nnz == 0:
            # A weighted placeholder for a device allocated no partitions
            # (or a stream shorter than the device count): the slot idles.
            continue
        device = cluster.devices[i]
        profile = shard_model(shard.tensor, device)
        staged = (
            0.0
            if profile.streaming is not None  # streamed shards re-ship chunks
            else float(shard.tensor.storage_bytes(threadlen))
        )
        ledgers.append(
            ShardLedger(
                index=i,
                device_name=device.name,
                start=shard.start,
                stop=shard.stop,
                nnz=shard.nnz,
                num_segments=shard.num_segments,
                carries_in=shard.carries_in,
                staged_bytes=staged,
                time_s=profile.estimated_time_s,
                counters=profile.counters,
                streaming=profile.streaming,
            )
        )
        merged = merged.merge(profile.counters)
        peak_device_bytes = max(peak_device_bytes, profile.device_memory_bytes)

    if len(ledgers) <= 1:
        reduction_bytes, reduction_time = 0.0, 0.0
    elif reduction == "allreduce":
        reduction_bytes = float(output_bytes)
        reduction_time = cluster.allreduce_time(reduction_bytes)
    else:
        # A carried segment's partial sum moves from the previous *executed*
        # shard — with empty placeholder shards in between, that can be a
        # lower slot than index - 1, possibly in another node (then the
        # exchange crosses the NIC).
        pairs = [
            (prev.index, cur.index)
            for prev, cur in zip(ledgers, ledgers[1:])
            if cur.carries_in
        ]
        payloads = [float(output_width * fcoo.value_dtype.itemsize) for _ in pairs]
        reduction_bytes = float(sum(payloads))
        reduction_time = cluster.neighbor_exchange_time(
            payloads,
            slots=[dst for _, dst in pairs],
            sources=[src for src, _ in pairs],
        )

    execution = ShardedExecution(
        cluster=cluster,
        threadlen=threadlen,
        shards=ledgers,
        reduction_kind=reduction,
        reduction_bytes=reduction_bytes,
        reduction_time_s=reduction_time,
    )
    return KernelProfile(
        name=f"{name}-sharded",
        counters=merged,
        estimated_time_s=execution.total_time_s,
        device_memory_bytes=peak_device_bytes,
        breakdown={
            "compute": execution.max_shard_time_s,
            "reduction": reduction_time,
            "devices": float(cluster.num_devices),
            "shards": float(len(ledgers)),
        },
        sharded=execution,
    )
