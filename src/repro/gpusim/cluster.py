"""Multi-GPU cluster model: devices joined by an interconnect.

The paper evaluates on a single Titan X; production sparse tensor
factorisation distributes the non-zeros across several GPUs of one node
(the DFacTo / SPLATT distributed-memory line of related work).  This module
models the *node*: a :class:`ClusterSpec` is an ordered set of
:class:`~repro.gpusim.device.DeviceSpec` s joined by an
:class:`InterconnectSpec` with a bandwidth and a per-message latency.

Three collective cost models are provided, all first-order but shaped like
the real algorithms:

* :meth:`ClusterSpec.allreduce_time` — ring all-reduce (reduce-scatter +
  all-gather): each device sends ``2 (N - 1) / N`` of the payload over its
  link, in ``2 (N - 1)`` latency-bound steps.  This is what merging the
  per-device partial MTTKRP/TTMc outputs costs, since every device needs
  the updated dense factor for the next iteration.
* :meth:`ClusterSpec.neighbor_exchange_time` — pairwise exchange of the
  partial segments straddling shard boundaries, for outputs that stay
  partitioned across the devices (the semi-sparse SpTTM fibers).
* :meth:`ClusterSpec.gather_time` — root-ingest gather: the root device
  receives every peer's payload over its single link (the payloads
  serialise there), one latency per peer — for callers that need a
  partitioned output collected on one device.

The models are deliberately symmetric in the devices (a ring does not care
which member is slowest as long as the link is shared); heterogeneous
*compute* is supported by :class:`ClusterSpec` holding arbitrary device
specs, and the sharded execution driver charges each shard on its own
device.

Beyond the single node, :class:`NodeSpec` / :class:`MultiNodeClusterSpec`
model a *cluster of nodes* with two interconnect tiers — intra-node
P2P/NVLink and an inter-node NIC — and hierarchical collectives
(reduce-scatter inside each node, a ring across the nodes, an intra-node
all-gather) whose modeled cost is never worse than the topology-oblivious
flat ring, and strictly better whenever the NIC is the slower tier.

Each collective exists in two forms: the closed-form ``*_time`` scalar
(the cost on idle links) and a ``book_*`` variant that *books* that cost
onto the shared :class:`~repro.gpusim.timeline.Timeline` — the intra-node
links and the per-node NICs are explicit serial resources there, so two
concurrent cross-node collectives queue on the shared NIC instead of each
pricing it as idle.  On an idle timeline the booked end time equals the
closed form exactly; contention can only push it later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2
from typing import List, Optional, Sequence, Tuple, Union

from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import (
    CollectiveRequest,
    GangBooking,
    NicDiscipline,
    Resource,
    Timeline,
)

__all__ = [
    "InterconnectSpec",
    "ClusterSpec",
    "NodeSpec",
    "MultiNodeClusterSpec",
    "NodeFailure",
    "ClusterLike",
    "PCIE3_P2P",
    "NVLINK1",
    "ETHERNET_10G",
    "INFINIBAND_EDR",
    "collapse_cluster",
    "resolve_cluster",
]


@dataclass(frozen=True)
class InterconnectSpec:
    """A device-to-device link used by the collective cost models.

    Attributes
    ----------
    name:
        Human-readable link name.
    bandwidth_bytes_per_s:
        Achievable per-direction bandwidth of one device's link.
    latency_s:
        Per-message latency (one collective step costs at least this).
    """

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float

    def validate(self) -> None:
        """Raise :class:`ValueError` if the specification is inconsistent."""
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"InterconnectSpec.bandwidth_bytes_per_s must be positive, got "
                f"{self.bandwidth_bytes_per_s}"
            )
        if self.latency_s < 0:
            raise ValueError(
                f"InterconnectSpec.latency_s must be non-negative, got {self.latency_s}"
            )


#: PCIe 3.0 x16 peer-to-peer through the switch — what a multi-GPU Maxwell
#: node (the paper's era) actually has: the same ~12 GB/s achievable as the
#: host link, with a few microseconds of latency per transfer.
PCIE3_P2P = InterconnectSpec("PCIe 3.0 x16 P2P", 12e9, 5e-6)

#: First-generation NVLink (Pascal-era nodes): ~40 GB/s achievable per
#: direction, noticeably lower latency than PCIe.
NVLINK1 = InterconnectSpec("NVLink 1.0", 40e9, 2e-6)

#: 10-gigabit Ethernet NIC: ~1.25 GB/s per direction and tens of
#: microseconds of latency through the kernel network stack — the slow
#: inter-node tier of a commodity cluster.
ETHERNET_10G = InterconnectSpec("10 GbE NIC", 1.25e9, 50e-6)

#: InfiniBand EDR (100 Gb/s): ~12.5 GB/s per direction with RDMA-class
#: latency — the fast inter-node tier of an HPC cluster, still no faster
#: than intra-node PCIe P2P and far below NVLink.
INFINIBAND_EDR = InterconnectSpec("InfiniBand EDR NIC", 12.5e9, 1.5e-6)


@dataclass(frozen=True)
class NodeFailure:
    """A timeline-scheduled loss (and optional return) of one node.

    The failure-domain event of the fault-tolerance layer: at simulated
    time ``time_s`` node ``node_index`` of a
    :class:`MultiNodeClusterSpec` drops out, taking its device slots, its
    intra-node link and its NIC lane with it.  When ``recover_s`` is set
    the node returns to service at that time (already-recovered work is
    not migrated back; the node simply becomes placeable again).

    Lives in the cluster model — not the serving layer — because the
    decomposition drivers (``cp_als`` / ``tucker_hooi``) consume these
    events directly; :func:`repro.serve.workload.generate_chaos` is the
    seeded generator that produces them.
    """

    time_s: float
    node_index: int
    recover_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {self.time_s}")
        if self.node_index < 0:
            raise ValueError(
                f"node_index must be non-negative, got {self.node_index}"
            )
        if self.recover_s is not None and self.recover_s <= self.time_s:
            raise ValueError(
                f"recover_s must follow time_s, got recover_s={self.recover_s} "
                f"<= time_s={self.time_s}"
            )


@dataclass(frozen=True)
class ClusterSpec:
    """An ordered set of GPUs joined by one interconnect.

    Attributes
    ----------
    devices:
        The member :class:`DeviceSpec` s; ``devices[i]`` executes shard ``i``
        of a sharded kernel.
    interconnect:
        The link used by the collective cost models.
    name:
        Human-readable cluster name.
    """

    devices: Tuple[DeviceSpec, ...]
    interconnect: InterconnectSpec = PCIE3_P2P
    name: str = "cluster"

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("ClusterSpec needs at least one device")
        object.__setattr__(self, "devices", tuple(self.devices))
        # Validate eagerly: a zero-throughput member or an inconsistent link
        # would otherwise only surface as a division failure deep inside the
        # sharded execution driver or the capability-weighted partitioner.
        try:
            self.interconnect.validate()
        except ValueError as exc:
            raise ValueError(f"ClusterSpec interconnect is invalid: {exc}") from exc
        seen: dict = {}
        for i, device in enumerate(self.devices):
            try:
                device.validate()
            except ValueError as exc:
                raise ValueError(f"ClusterSpec devices[{i}] is invalid: {exc}") from exc
            previous = seen.get(device.name)
            if previous is not None and previous != device:
                raise ValueError(
                    f"ClusterSpec devices[{i}] reuses the device id {device.name!r} "
                    "with a different specification; give distinct devices distinct "
                    "names (identical repeated specs — a homogeneous cluster — are fine)"
                )
            seen[device.name] = device

    # ------------------------------------------------------------------ #
    @classmethod
    def homogeneous(
        cls,
        device: DeviceSpec = TITAN_X,
        num_devices: int = 4,
        *,
        interconnect: InterconnectSpec = PCIE3_P2P,
        name: Optional[str] = None,
    ) -> "ClusterSpec":
        """A cluster of ``num_devices`` identical ``device`` s."""
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        return cls(
            devices=(device,) * num_devices,
            interconnect=interconnect,
            name=name or f"{num_devices}x {device.name}",
        )

    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        """Number of member GPUs."""
        return len(self.devices)

    @property
    def min_device_memory_bytes(self) -> int:
        """Capacity of the smallest member (bounds an evenly-sharded tensor)."""
        return min(d.global_mem_bytes for d in self.devices)

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate device memory across the cluster."""
        return sum(d.global_mem_bytes for d in self.devices)

    @property
    def max_device_memory_bytes(self) -> int:
        """Capacity of the largest member (bounds a single-device placement)."""
        return max(d.global_mem_bytes for d in self.devices)

    @property
    def is_homogeneous(self) -> bool:
        """Whether every member device has the identical specification."""
        return all(d == self.devices[0] for d in self.devices[1:])

    def capability_scores(self, *, flops_per_byte: float = 0.5) -> Tuple[float, ...]:
        """Per-device roofline throughput scores (bytes/s), unnormalised.

        Each device's score is its roofline throughput at the nominal
        arithmetic intensity of the unified kernels,
        ``min(achievable_bandwidth, peak_flops / flops_per_byte)`` — the
        kernels stream the non-zeros once and gather cached factor rows, so
        at the default intensity of 0.5 FLOP/byte every realistic GPU is
        bandwidth-bound and the score reduces to achievable DRAM bandwidth.
        Single-sourced here so the shard partitioner's weights and the
        serving placer's completion-time estimates cannot diverge.
        """
        if flops_per_byte <= 0:
            raise ValueError(f"flops_per_byte must be positive, got {flops_per_byte}")
        return tuple(
            min(d.achievable_bandwidth_bytes_per_s, d.peak_flops / flops_per_byte)
            for d in self.devices
        )

    def capability_weights(self, *, flops_per_byte: float = 0.5) -> Tuple[float, ...]:
        """Per-device throughput weights, normalised to sum to 1.

        The :meth:`capability_scores` roofline scores, normalised.  A
        homogeneous cluster yields exactly uniform weights.  The
        capability-weighted shard partitioner
        (:func:`repro.kernels.unified.sharded.partition_shards`) sizes each
        device's shard proportional to these weights, and the serving
        placer uses them to rank devices for job placement.
        """
        scores = self.capability_scores(flops_per_byte=flops_per_byte)
        total = sum(scores)
        return tuple(score / total for score in scores)

    def validate(self) -> None:
        """Validate every member device and the interconnect.

        Construction already performs this validation; the method is kept so
        callers holding a spec from any source can re-assert consistency.
        """
        self.interconnect.validate()
        for device in self.devices:
            device.validate()

    # ------------------------------------------------------------------ #
    # Collective cost models
    # ------------------------------------------------------------------ #
    def allreduce_time(self, nbytes: float) -> float:
        """Ring all-reduce of an ``nbytes`` payload resident on every device.

        Reduce-scatter plus all-gather: ``2 (N - 1)`` steps, each moving
        ``nbytes / N`` over every device's link simultaneously, so the
        bandwidth term is ``2 (N - 1) / N * nbytes / bandwidth`` — the
        classic bandwidth-optimal ring.  Zero for a single device.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        n = self.num_devices
        if n == 1 or nbytes == 0:
            return 0.0
        steps = 2 * (n - 1)
        bandwidth_term = (2.0 * (n - 1) / n) * nbytes / self.interconnect.bandwidth_bytes_per_s
        return bandwidth_term + steps * self.interconnect.latency_s

    def gather_time(self, nbytes_per_device: Sequence[float]) -> float:
        """Gather per-device payloads onto device 0 (the root).

        The root's ingest link is the serial resource: every peer's payload
        crosses it once, paying one latency per peer.  The root's own
        payload does not move.  Zero for a single device.
        """
        payloads = [float(b) for b in nbytes_per_device]
        if any(b < 0 for b in payloads):
            raise ValueError("per-device payloads must be non-negative")
        if len(payloads) > self.num_devices:
            raise ValueError(
                f"got {len(payloads)} payloads for {self.num_devices} devices"
            )
        if len(payloads) <= 1:
            return 0.0
        incoming = sum(payloads[1:])
        steps = len(payloads) - 1
        bandwidth_term = incoming / self.interconnect.bandwidth_bytes_per_s
        return bandwidth_term + steps * self.interconnect.latency_s

    def neighbor_exchange_time(self, nbytes_per_boundary: Sequence[float]) -> float:
        """Pairwise exchange of boundary payloads between adjacent devices.

        Used when the output stays *partitioned* across the devices (the
        semi-sparse SpTTM result feeding the next pipeline stage in place)
        and only the partial segments straddling a shard boundary must
        merge: payload ``i`` moves point-to-point from device ``i`` to
        device ``i + 1``.  The links are full duplex and the pairs are
        disjoint per direction, so the exchanges overlap: one latency plus
        the largest payload's wire time.  Zero with no straddling
        boundaries.
        """
        payloads = [float(b) for b in nbytes_per_boundary]
        if any(b < 0 for b in payloads):
            raise ValueError("per-boundary payloads must be non-negative")
        if not payloads:
            return 0.0
        return (
            max(payloads) / self.interconnect.bandwidth_bytes_per_s
            + self.interconnect.latency_s
        )

    def broadcast_time(self, nbytes: float) -> float:
        """Binomial-tree broadcast of ``nbytes`` from device 0 to every peer.

        ``ceil(log2 N)`` stages, each shipping the full payload over the
        sender links active in that stage.  Used for staging dense factor
        matrices that every device needs.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        n = self.num_devices
        if n == 1 or nbytes == 0:
            return 0.0
        stages = ceil(log2(n))
        return stages * (
            nbytes / self.interconnect.bandwidth_bytes_per_s + self.interconnect.latency_s
        )

    # ------------------------------------------------------------------ #
    # Timeline bookings: collectives as occupancy of the shared link
    # ------------------------------------------------------------------ #
    def link_resource_key(self) -> str:
        """Resource key of this cluster's shared device-to-device link.

        Keyed by the cluster *name*, so a node viewed through
        :meth:`NodeSpec.as_cluster` books the same link resource as the
        enclosing :class:`MultiNodeClusterSpec` does for that node — a
        node-local collective and a cluster-wide one contend correctly on
        a shared timeline.
        """
        return f"link:{self.name}"

    def collective_resources(self, timeline: Timeline) -> Tuple[Resource, ...]:
        """The timeline resources a collective of this cluster occupies."""
        return (timeline.resource(self.link_resource_key(), category="link"),)

    def book_collective(
        self,
        timeline: Timeline,
        duration_s: float,
        *,
        ready_s: float = 0.0,
        label: str = "collective",
        discipline: Optional[NicDiscipline] = None,
        request: Optional[CollectiveRequest] = None,
    ) -> GangBooking:
        """Book a pre-priced collective of ``duration_s`` onto the link.

        The booking starts at ``max(ready_s, link free)``: on an idle
        timeline it ends exactly ``duration_s`` after ``ready_s`` — the
        closed-form cost — and a busy link delays it, which is how
        link/NIC *contention* between concurrent jobs falls out of the
        shared timeline instead of each job pricing the link as idle.

        A caller serving several jobs under a NIC queue ``discipline``
        passes it (with the job's :class:`CollectiveRequest`) so the
        discipline's per-job service ledger stays accurate; the booking
        arithmetic itself is discipline-free — reordering is the
        *scheduler's* move (it releases and re-books queued gangs), never
        this primitive's.
        """
        gang = timeline.book_together(
            self.collective_resources(timeline),
            duration_s,
            ready_s=ready_s,
            label=label,
        )
        if discipline is not None and request is not None:
            discipline.note_dispatch(request)
        return gang

    def book_allreduce(
        self, timeline: Timeline, nbytes: float, *, ready_s: float = 0.0, label: str = "allreduce"
    ) -> GangBooking:
        """Book a ring all-reduce (:meth:`allreduce_time`) onto the link."""
        return self.book_collective(
            timeline, self.allreduce_time(nbytes), ready_s=ready_s, label=label
        )

    def book_gather(
        self,
        timeline: Timeline,
        nbytes_per_device: Sequence[float],
        *,
        ready_s: float = 0.0,
        label: str = "gather",
    ) -> GangBooking:
        """Book a root gather (:meth:`gather_time`) onto the link."""
        return self.book_collective(
            timeline, self.gather_time(nbytes_per_device), ready_s=ready_s, label=label
        )

    def book_neighbor_exchange(
        self,
        timeline: Timeline,
        nbytes_per_boundary: Sequence[float],
        *,
        ready_s: float = 0.0,
        label: str = "boundary-exchange",
    ) -> GangBooking:
        """Book a boundary exchange (:meth:`neighbor_exchange_time`)."""
        return self.book_collective(
            timeline,
            self.neighbor_exchange_time(nbytes_per_boundary),
            ready_s=ready_s,
            label=label,
        )

    def book_broadcast(
        self, timeline: Timeline, nbytes: float, *, ready_s: float = 0.0, label: str = "broadcast"
    ) -> GangBooking:
        """Book a broadcast (:meth:`broadcast_time`) onto the link."""
        return self.book_collective(
            timeline, self.broadcast_time(nbytes), ready_s=ready_s, label=label
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterSpec(name={self.name!r}, num_devices={self.num_devices}, "
            f"interconnect={self.interconnect.name!r})"
        )


@dataclass(frozen=True)
class NodeSpec:
    """One node of a multi-node cluster: GPUs joined by the intra-node tier.

    Attributes
    ----------
    devices:
        The node's member :class:`DeviceSpec` s.
    interconnect:
        The intra-node device-to-device link (P2P/NVLink) — the *fast*
        tier of a :class:`MultiNodeClusterSpec`.
    name:
        Human-readable node name.
    """

    devices: Tuple[DeviceSpec, ...]
    interconnect: InterconnectSpec = PCIE3_P2P
    name: str = "node"

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        # Construction-time validation with ClusterSpec's exact rules: a
        # node *is* a single-interconnect cluster, viewed in isolation.
        self.as_cluster()

    @classmethod
    def homogeneous(
        cls,
        device: DeviceSpec = TITAN_X,
        num_devices: int = 4,
        *,
        interconnect: InterconnectSpec = PCIE3_P2P,
        name: Optional[str] = None,
    ) -> "NodeSpec":
        """A node of ``num_devices`` identical ``device`` s."""
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        return cls(
            devices=(device,) * num_devices,
            interconnect=interconnect,
            name=name or f"{num_devices}x {device.name}",
        )

    @property
    def num_devices(self) -> int:
        """Number of member GPUs."""
        return len(self.devices)

    def as_cluster(self) -> ClusterSpec:
        """This node viewed as a standalone single-interconnect cluster.

        The returned :class:`ClusterSpec` is what a node-local sharded
        placement executes on — its collectives never touch the NIC — and
        what every degenerate one-node :class:`MultiNodeClusterSpec`
        reduces to.
        """
        return ClusterSpec(
            devices=self.devices, interconnect=self.interconnect, name=self.name
        )


@dataclass(frozen=True)
class MultiNodeClusterSpec:
    """Nodes joined by a NIC: the two-tier interconnect hierarchy.

    ``devices`` flattens node-by-node, so flat device slot ``i`` is
    comparable to a :class:`ClusterSpec` slot; the sharded execution
    driver and the serving scheduler index the flat order throughout.

    The collective cost models come in two algorithms, mirroring what real
    collective libraries (NCCL & friends) choose between:

    * **flat ring** — one ring over all ``N`` devices laid out
      node-by-node.  Every step is synchronised, so the per-step cost is
      governed by the *slowest* link in the ring — the NIC, whenever there
      is more than one node.
    * **hierarchical** — reduce-scatter inside each node over the P2P
      tier, a ring across the nodes over the NIC (each device's chunk
      rides its own NIC lane, the rail-optimised layout of modern GPU
      clusters), then an intra-node all-gather.  The expensive NIC tier
      carries only the inter-node ring, so for equal-sized nodes the
      hierarchical schedule is never slower than the flat ring whenever
      the NIC is the slower, higher-latency tier — and strictly faster as
      soon as the P2P tier has bandwidth to spare.

    :meth:`allreduce_time` models the library's algorithm selection: it
    charges whichever schedule is cheaper, so the modeled collective is
    *never* costlier than the flat ring.
    """

    nodes: Tuple[NodeSpec, ...]
    nic: InterconnectSpec = INFINIBAND_EDR
    name: str = "multi-node cluster"
    #: Flat node index of every flat device slot (derived, not an input).
    device_node: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("MultiNodeClusterSpec needs at least one node")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        try:
            self.nic.validate()
        except ValueError as exc:
            raise ValueError(f"MultiNodeClusterSpec NIC is invalid: {exc}") from exc
        for i, node in enumerate(self.nodes):
            if not isinstance(node, NodeSpec):
                raise ValueError(
                    f"MultiNodeClusterSpec nodes[{i}] must be a NodeSpec, "
                    f"got {type(node).__name__}"
                )
        # Device ids must be consistent across nodes too, not just within
        # one: the serving cache and the ledgers key on device names.
        seen: dict = {}
        for i, node in enumerate(self.nodes):
            for device in node.devices:
                previous = seen.get(device.name)
                if previous is not None and previous != device:
                    raise ValueError(
                        f"MultiNodeClusterSpec nodes[{i}] reuses the device id "
                        f"{device.name!r} with a different specification"
                    )
                seen[device.name] = device
        object.__setattr__(
            self,
            "device_node",
            tuple(i for i, node in enumerate(self.nodes) for _ in node.devices),
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def homogeneous(
        cls,
        device: DeviceSpec = TITAN_X,
        num_nodes: int = 2,
        devices_per_node: int = 4,
        *,
        intra: InterconnectSpec = PCIE3_P2P,
        nic: InterconnectSpec = INFINIBAND_EDR,
        name: Optional[str] = None,
    ) -> "MultiNodeClusterSpec":
        """``num_nodes`` identical nodes of ``devices_per_node`` GPUs."""
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        node = NodeSpec.homogeneous(device, devices_per_node, interconnect=intra)
        return cls(
            nodes=tuple(
                NodeSpec(
                    devices=node.devices,
                    interconnect=intra,
                    name=f"node{i}: {node.name}",
                )
                for i in range(num_nodes)
            ),
            nic=nic,
            name=name
            or f"{num_nodes} nodes x {devices_per_node}x {device.name} over {nic.name}",
        )

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of member nodes."""
        return len(self.nodes)

    @property
    def devices(self) -> Tuple[DeviceSpec, ...]:
        """Every member GPU, flattened node-by-node."""
        return tuple(d for node in self.nodes for d in node.devices)

    @property
    def num_devices(self) -> int:
        """Total GPUs across all nodes."""
        return sum(node.num_devices for node in self.nodes)

    def node_slots(self, node_index: int) -> Tuple[int, ...]:
        """The flat device slots belonging to node ``node_index``."""
        if not 0 <= node_index < self.num_nodes:
            raise ValueError(
                f"node_index must be in [0, {self.num_nodes}), got {node_index}"
            )
        start = sum(node.num_devices for node in self.nodes[:node_index])
        return tuple(range(start, start + self.nodes[node_index].num_devices))

    @property
    def min_device_memory_bytes(self) -> int:
        """Capacity of the smallest member across all nodes."""
        return min(d.global_mem_bytes for d in self.devices)

    @property
    def max_device_memory_bytes(self) -> int:
        """Capacity of the largest member across all nodes."""
        return max(d.global_mem_bytes for d in self.devices)

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate device memory across every node."""
        return sum(d.global_mem_bytes for d in self.devices)

    @property
    def is_homogeneous(self) -> bool:
        """Whether every member device (across all nodes) is identical."""
        devices = self.devices
        return all(d == devices[0] for d in devices[1:])

    def capability_scores(self, *, flops_per_byte: float = 0.5) -> Tuple[float, ...]:
        """Per-device roofline scores in flat slot order (bytes/s).

        The same formula as :meth:`ClusterSpec.capability_scores`, so
        node-local and cluster-wide placement decisions rank devices
        identically.
        """
        if flops_per_byte <= 0:
            raise ValueError(f"flops_per_byte must be positive, got {flops_per_byte}")
        return tuple(
            min(d.achievable_bandwidth_bytes_per_s, d.peak_flops / flops_per_byte)
            for d in self.devices
        )

    def capability_weights(self, *, flops_per_byte: float = 0.5) -> Tuple[float, ...]:
        """Per-device throughput weights in flat slot order, summing to 1."""
        scores = self.capability_scores(flops_per_byte=flops_per_byte)
        total = sum(scores)
        return tuple(score / total for score in scores)

    def node_capability_weights(self, *, flops_per_byte: float = 0.5) -> Tuple[float, ...]:
        """Per-*node* throughput weights (member scores summed), summing to 1.

        The topology-aware shard partitioner sizes each node's contiguous
        span of the non-zero stream proportional to these weights before
        subdividing the span across the node's devices.
        """
        scores = self.capability_scores(flops_per_byte=flops_per_byte)
        node_scores = []
        start = 0
        for node in self.nodes:
            node_scores.append(sum(scores[start : start + node.num_devices]))
            start += node.num_devices
        total = sum(node_scores)
        return tuple(score / total for score in node_scores)

    def without_node(self, node_index: int) -> "ClusterLike":
        """The survivor topology after losing node ``node_index``.

        Drops the node (its devices, intra-node link and NIC lane) and
        returns the remaining cluster; with exactly one node left the
        result collapses to that node's plain :class:`ClusterSpec` — the
        survivor has no NIC tier to model, matching
        :func:`collapse_cluster` semantics everywhere else.
        """
        if not 0 <= node_index < self.num_nodes:
            raise ValueError(
                f"node_index must be in [0, {self.num_nodes}), got {node_index}"
            )
        if self.num_nodes == 1:
            raise ValueError("cannot drop the only node of a cluster")
        survivors = tuple(
            node for i, node in enumerate(self.nodes) if i != node_index
        )
        return collapse_cluster(
            MultiNodeClusterSpec(
                nodes=survivors,
                nic=self.nic,
                name=f"{self.name} [-node{node_index}]",
            )
        )

    def surviving_slots(self, node_index: int) -> Tuple[int, ...]:
        """Original flat slots that survive the loss of node ``node_index``.

        Survivor-local slot ``i`` (the indexing of
        :meth:`without_node`'s result) corresponds to original flat slot
        ``surviving_slots(node_index)[i]`` — the mapping recovery logic
        uses to keep booking the correct physical lanes after a failure.
        """
        failed = set(self.node_slots(node_index))
        return tuple(s for s in range(self.num_devices) if s not in failed)

    def validate(self) -> None:
        """Re-assert consistency of every node and the NIC."""
        self.nic.validate()
        for node in self.nodes:
            node.as_cluster().validate()

    # ------------------------------------------------------------------ #
    # Two-tier collective cost models
    # ------------------------------------------------------------------ #
    def _slowest_link(self) -> InterconnectSpec:
        """The bottleneck link of a flat ring laid out node-by-node: the
        NIC when the ring crosses nodes, the slowest P2P tier otherwise."""
        links = [node.interconnect for node in self.nodes]
        if self.num_nodes > 1:
            links.append(self.nic)
        return min(links, key=lambda link: (link.bandwidth_bytes_per_s, -link.latency_s))

    def flat_allreduce_time(self, nbytes: float) -> float:
        """Topology-oblivious ring all-reduce over all ``N`` devices.

        The classic ``2 (N - 1)`` step ring, with every synchronised step
        paying the *slowest* link's wire time and latency — for a ring
        laid out node-by-node, the inter-node NIC hop whenever there is
        more than one node.  This is the cost a single-tier
        :class:`ClusterSpec` model would charge, kept as the comparison
        baseline (and as a real algorithm choice for NVLink-style nodes
        whose NIC is *not* the slower tier).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        n = self.num_devices
        if n == 1 or nbytes == 0:
            return 0.0
        slowest = self._slowest_link()
        latency = max(
            [node.interconnect.latency_s for node in self.nodes]
            + ([self.nic.latency_s] if self.num_nodes > 1 else [])
        )
        steps = 2 * (n - 1)
        bandwidth_term = (2.0 * (n - 1) / n) * nbytes / slowest.bandwidth_bytes_per_s
        return bandwidth_term + steps * latency

    def hierarchical_allreduce_time(self, nbytes: float) -> float:
        """Three-phase hierarchical all-reduce.

        1. **Intra-node reduce-scatter** over each node's P2P tier (nodes
           run concurrently; the slowest node gates the phase): device
           ``j`` of an ``n``-device node ends up owning the node-reduced
           chunk ``j`` of the payload.
        2. **Inter-node ring** over the NIC: chunk ``j`` all-reduces
           around the ``M`` node leaders' ``j``-th devices.  Each chunk's
           ring rides its own device's NIC lane (the rail-optimised
           layout), so the rings run concurrently and each moves
           ``2 (M - 1) / M`` of its ``nbytes / n_min`` chunk.
        3. **Intra-node all-gather** over the P2P tier, mirroring phase 1.

        A one-node cluster degenerates to exactly
        :meth:`ClusterSpec.allreduce_time` of that node (the inter phase
        vanishes and reduce-scatter + all-gather *is* the ring).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if self.num_devices == 1 or nbytes == 0:
            return 0.0
        intra = 0.0
        for node in self.nodes:
            n = node.num_devices
            if n == 1:
                continue
            link = node.interconnect
            phase = (n - 1) / n * nbytes / link.bandwidth_bytes_per_s + (n - 1) * link.latency_s
            intra = max(intra, 2.0 * phase)  # reduce-scatter + all-gather
        m = self.num_nodes
        if m == 1:
            return intra
        n_min = min(node.num_devices for node in self.nodes)
        inter = (
            2.0 * (m - 1) / m * (nbytes / n_min) / self.nic.bandwidth_bytes_per_s
            + 2 * (m - 1) * self.nic.latency_s
        )
        return intra + inter

    def allreduce_time(self, nbytes: float) -> float:
        """All-reduce under algorithm selection: the cheaper of the
        hierarchical and flat-ring schedules, so the modeled collective is
        never costlier than the flat ring — and genuinely cheaper whenever
        the NIC is the slower, higher-latency tier."""
        return min(self.hierarchical_allreduce_time(nbytes), self.flat_allreduce_time(nbytes))

    def allreduce_algorithm(self, nbytes: float) -> str:
        """Which schedule :meth:`allreduce_time` charges for ``nbytes``
        (``"hierarchical"`` or ``"flat-ring"``; ties go hierarchical)."""
        hier = self.hierarchical_allreduce_time(nbytes)
        return "hierarchical" if hier <= self.flat_allreduce_time(nbytes) else "flat-ring"

    def gather_time(self, nbytes_per_slot: Sequence[float]) -> float:
        """Hierarchical gather onto flat device slot 0.

        Within each node the peers' payloads serialise into the node
        leader over the P2P tier (nodes run concurrently); the non-root
        leaders' node aggregates then serialise into the root's NIC.  A
        one-node cluster degenerates to exactly
        :meth:`ClusterSpec.gather_time`.
        """
        payloads = [float(b) for b in nbytes_per_slot]
        if any(b < 0 for b in payloads):
            raise ValueError("per-slot payloads must be non-negative")
        if len(payloads) != self.num_devices:
            raise ValueError(
                f"got {len(payloads)} payloads for {self.num_devices} devices"
            )
        if self.num_devices <= 1:
            return 0.0
        intra = 0.0
        node_totals = []
        start = 0
        for node in self.nodes:
            n = node.num_devices
            slot_payloads = payloads[start : start + n]
            start += n
            node_totals.append(sum(slot_payloads))
            incoming = sum(slot_payloads[1:])
            if n > 1:
                link = node.interconnect
                intra = max(
                    intra,
                    incoming / link.bandwidth_bytes_per_s + (n - 1) * link.latency_s,
                )
        if self.num_nodes == 1:
            return intra
        crossing = sum(node_totals[1:])
        inter = (
            crossing / self.nic.bandwidth_bytes_per_s
            + (self.num_nodes - 1) * self.nic.latency_s
        )
        return intra + inter

    def neighbor_exchange_time(
        self,
        nbytes_per_boundary: Sequence[float],
        *,
        slots: Optional[Sequence[int]] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> float:
        """Pairwise boundary exchange, priced per tier.

        ``slots[i]`` is the flat device slot *receiving* boundary payload
        ``i``, and ``sources[i]`` the slot sending it — by default the
        adjacent ``slots[i] - 1``, but the sharded execution driver passes
        the previous *executed* shard's slot, which can sit further left
        (or in another node) when empty placeholder shards lie between
        them.  A boundary between devices of different nodes crosses the
        NIC, one within a node rides that node's P2P tier.  The pairs are
        disjoint and full duplex, so the exchanges overlap and the worst
        boundary gates the phase.  Without ``slots`` every boundary
        conservatively pays the slowest tier.
        """
        payloads = [float(b) for b in nbytes_per_boundary]
        if any(b < 0 for b in payloads):
            raise ValueError("per-boundary payloads must be non-negative")
        if not payloads:
            return 0.0
        if slots is None:
            if sources is not None:
                raise ValueError("sources requires slots")
            slowest = self._slowest_link()
            return max(payloads) / slowest.bandwidth_bytes_per_s + slowest.latency_s
        if len(slots) != len(payloads):
            raise ValueError(
                f"got {len(slots)} slots for {len(payloads)} boundary payloads"
            )
        if sources is None:
            sources = [slot - 1 for slot in slots]
        if len(sources) != len(slots):
            raise ValueError(
                f"got {len(sources)} sources for {len(slots)} boundary slots"
            )
        worst = 0.0
        for payload, slot, source in zip(payloads, slots, sources):
            if not 1 <= slot < self.num_devices:
                raise ValueError(
                    f"boundary slot must be in [1, {self.num_devices}), got {slot}"
                )
            if not 0 <= source < slot:
                raise ValueError(
                    f"boundary source must be in [0, {slot}), got {source}"
                )
            if self.device_node[source] != self.device_node[slot]:
                link = self.nic
            else:
                link = self.nodes[self.device_node[slot]].interconnect
            worst = max(worst, payload / link.bandwidth_bytes_per_s + link.latency_s)
        return worst

    def broadcast_time(self, nbytes: float) -> float:
        """Two-tier broadcast from flat slot 0 to every device.

        A binomial tree over the node leaders on the NIC, then concurrent
        intra-node binomial trees on the P2P tier.  A one-node cluster
        degenerates to exactly :meth:`ClusterSpec.broadcast_time`.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if self.num_devices == 1 or nbytes == 0:
            return 0.0
        m = self.num_nodes
        inter = 0.0
        if m > 1:
            inter = ceil(log2(m)) * (
                nbytes / self.nic.bandwidth_bytes_per_s + self.nic.latency_s
            )
        intra = 0.0
        for node in self.nodes:
            n = node.num_devices
            if n == 1:
                continue
            link = node.interconnect
            intra = max(
                intra,
                ceil(log2(n)) * (nbytes / link.bandwidth_bytes_per_s + link.latency_s),
            )
        return inter + intra

    # ------------------------------------------------------------------ #
    # Timeline bookings: collectives occupy every participating tier
    # ------------------------------------------------------------------ #
    def nic_resource_key(self, node_index: int) -> str:
        """Resource key of one node's NIC (the inter-node serial resource)."""
        return f"nic:{self.nodes[node_index].name}"

    def collective_resources(self, timeline: Timeline) -> Tuple[Resource, ...]:
        """The timeline resources a cluster-wide collective occupies.

        Every multi-device node's intra-node link (keyed exactly as that
        node's standalone :meth:`ClusterSpec.link_resource_key`, so
        node-local jobs contend with cluster-wide ones) plus — whenever
        the cluster spans nodes — every node's NIC.  A collective holds
        all of them for its window: the intra phases ride the links, the
        inter-node ring rides the NIC lanes, and no second collective can
        slot into either tier meanwhile.
        """
        resources: List[Resource] = [
            timeline.resource(node.as_cluster().link_resource_key(), category="link")
            for node in self.nodes
            if node.num_devices > 1
        ]
        if self.num_nodes > 1:
            resources.extend(
                timeline.resource(self.nic_resource_key(i), category="nic")
                for i in range(self.num_nodes)
            )
        return tuple(resources)

    def book_collective(
        self,
        timeline: Timeline,
        duration_s: float,
        *,
        ready_s: float = 0.0,
        label: str = "collective",
        discipline: Optional[NicDiscipline] = None,
        request: Optional[CollectiveRequest] = None,
    ) -> GangBooking:
        """Book a pre-priced collective onto every participating tier.

        On an idle timeline the booking ends exactly ``duration_s`` after
        ``ready_s`` — the closed-form cost.  When another job's collective
        already holds a shared NIC, this one waits for it: shared-NIC
        *congestion* under concurrent cross-node jobs, with the idle model
        as the exact lower bound (and the degenerate single-job case).

        ``discipline``/``request`` mirror
        :meth:`ClusterSpec.book_collective`: the NIC queue discipline's
        per-job service ledger is updated, while any reordering stays the
        scheduler's move.
        """
        gang = timeline.book_together(
            self.collective_resources(timeline),
            duration_s,
            ready_s=ready_s,
            label=label,
        )
        if discipline is not None and request is not None:
            discipline.note_dispatch(request)
        return gang

    def book_allreduce(
        self, timeline: Timeline, nbytes: float, *, ready_s: float = 0.0, label: str = "allreduce"
    ) -> GangBooking:
        """Book an all-reduce (:meth:`allreduce_time`, algorithm-selected)."""
        return self.book_collective(
            timeline, self.allreduce_time(nbytes), ready_s=ready_s, label=label
        )

    def book_gather(
        self,
        timeline: Timeline,
        nbytes_per_slot: Sequence[float],
        *,
        ready_s: float = 0.0,
        label: str = "gather",
    ) -> GangBooking:
        """Book a hierarchical gather (:meth:`gather_time`)."""
        return self.book_collective(
            timeline, self.gather_time(nbytes_per_slot), ready_s=ready_s, label=label
        )

    def book_neighbor_exchange(
        self,
        timeline: Timeline,
        nbytes_per_boundary: Sequence[float],
        *,
        ready_s: float = 0.0,
        label: str = "boundary-exchange",
        slots: Optional[Sequence[int]] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> GangBooking:
        """Book a boundary exchange (:meth:`neighbor_exchange_time`)."""
        return self.book_collective(
            timeline,
            self.neighbor_exchange_time(nbytes_per_boundary, slots=slots, sources=sources),
            ready_s=ready_s,
            label=label,
        )

    def book_broadcast(
        self, timeline: Timeline, nbytes: float, *, ready_s: float = 0.0, label: str = "broadcast"
    ) -> GangBooking:
        """Book a two-tier broadcast (:meth:`broadcast_time`)."""
        return self.book_collective(
            timeline, self.broadcast_time(nbytes), ready_s=ready_s, label=label
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiNodeClusterSpec(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"num_devices={self.num_devices}, nic={self.nic.name!r})"
        )


#: Anything the sharded execution driver and the serving placer accept as
#: "the cluster": one node's GPUs, or several nodes over a NIC.
ClusterLike = Union[ClusterSpec, MultiNodeClusterSpec]


def collapse_cluster(cluster: ClusterLike) -> ClusterLike:
    """Collapse a one-*node* multi-node spec to its node's :class:`ClusterSpec`.

    There is no NIC tier to model in a one-node cluster, and the
    single-node cost path is bit-identical by construction; collapsing
    eagerly keeps every consumer (kernels, placer, scheduler, reports) on
    the exact single-tier code path.  Idempotent; anything else passes
    through unchanged.
    """
    if isinstance(cluster, MultiNodeClusterSpec) and cluster.num_nodes == 1:
        return cluster.nodes[0].as_cluster()
    return cluster


def resolve_cluster(
    device: DeviceSpec,
    cluster: Optional[ClusterLike],
    devices: Optional[int],
) -> Tuple[DeviceSpec, Optional[ClusterLike]]:
    """Normalise the ``cluster`` / ``devices`` fields of an execution context.

    The kernels accept a full :class:`ClusterSpec`, a two-tier
    :class:`MultiNodeClusterSpec`, or a bare device count (which builds a
    homogeneous single-node cluster of the kernel's ``device``).  Returns
    ``(single_device, multi_cluster)`` where exactly one execution mode is
    active: the cluster is ``None`` when execution is effectively
    single-device — no cluster requested, or a cluster/count of one — so
    callers keep the exact single-GPU code path (and its numerics and
    profile shape) in that case, running on the cluster's sole member when
    one was given.  A one-*node* multi-node cluster likewise collapses to
    its node's plain :class:`ClusterSpec` — there is no NIC tier to model,
    and the single-node cost path is bit-identical by construction.
    """
    if cluster is not None and devices is not None and devices != cluster.num_devices:
        raise ValueError(
            f"devices={devices} contradicts the provided cluster of "
            f"{cluster.num_devices} devices; pass one or the other"
        )
    if cluster is None:
        if devices is None:
            return device, None
        if devices <= 0:
            raise ValueError(f"devices must be positive, got {devices}")
        if devices == 1:
            return device, None
        cluster = ClusterSpec.homogeneous(device, devices)
    cluster = collapse_cluster(cluster)
    if cluster.num_devices == 1:
        return cluster.devices[0], None
    return device, cluster
