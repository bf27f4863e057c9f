"""GPU cluster model: nodes of GPUs joined by a two-tier interconnect.

The paper evaluates on a single Titan X; production sparse tensor
factorisation distributes the non-zeros across several GPUs (the DFacTo /
SPLATT distributed-memory line of related work).  A :class:`ClusterSpec` is
an ordered set of :class:`NodeSpec` s.  Each node holds
:class:`~repro.gpusim.device.DeviceSpec` s joined by an intra-node
:class:`InterconnectSpec` (PCIe P2P or NVLink), and the nodes are joined by
a NIC, the slower inter-node tier.  One GPU node is simply a one-node
cluster (:meth:`NodeSpec.as_cluster`): its collectives ride the node's link
alone and the NIC is never priced.

Two collective cost models are provided, both first-order but shaped like
the real algorithms:

* :meth:`ClusterSpec.allreduce_time` — all-reduce under algorithm
  selection between the **flat ring** (``2 (N - 1)`` synchronised steps,
  each paying the slowest link) and the **hierarchical** schedule
  (reduce-scatter inside each node, a ring across the nodes over the NIC,
  an intra-node all-gather).  The cheaper one is charged, so the modeled
  collective is never costlier than the flat ring, and strictly cheaper
  whenever the NIC is the slower tier.  On one node both schedules are the
  classic bandwidth-optimal ring.  This is what merging the per-device
  partial MTTKRP/TTMc outputs costs, since every device needs the updated
  dense factor for the next iteration.
* :meth:`ClusterSpec.neighbor_exchange_time` — pairwise exchange of the
  partial segments straddling shard boundaries, for outputs that stay
  partitioned across the devices (the semi-sparse SpTTM fibers).  Each
  boundary rides its node's link, or the NIC when its two devices sit in
  different nodes.

The models are symmetric in the devices of a node; heterogeneous *compute*
is supported by nodes holding arbitrary device specs, and
:func:`~repro.kernels.unified.sharded.execute_sharded` charges each shard on
its own device.

Each collective also has a ``book_*`` form that *books* its cost onto the
shared :class:`~repro.gpusim.timeline.Timeline`.  The intra-node links and
the per-node NICs are explicit serial resources there, so two concurrent
cross-node collectives queue on the shared NIC instead of each pricing it
as idle.  On an idle timeline the booked end time equals the closed form
exactly; contention can only push it later.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import GangBooking, Resource, Timeline

__all__ = [
    "InterconnectSpec",
    "ClusterSpec",
    "NodeSpec",
    "NodeFailure",
    "PCIE3_P2P",
    "NVLINK1",
    "ETHERNET_10G",
    "INFINIBAND_EDR",
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
    time ``time_s`` node ``node_index`` of a multi-node
    :class:`ClusterSpec` drops out, taking its device slots, its
    intra-node link and its NIC lane with it.  When ``recover_s`` is set
    the node returns to service at that time (already-recovered work is
    not migrated back; the node simply becomes placeable again).  On a
    one-node cluster the serving scheduler reads ``node_index`` as a
    device slot, and ``cp_als`` / ``tucker_hooi`` ignore the event.

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


def _check_device_ids(devices: Sequence[DeviceSpec], owner: str) -> None:
    """Reject one device id naming two different specifications.

    The serving cache and the ledgers key on device names, so distinct
    devices need distinct names; identical repeated specs are fine.
    """
    seen: Dict[str, DeviceSpec] = {}
    for i, device in enumerate(devices):
        if seen.setdefault(device.name, device) != device:
            raise ValueError(
                f"{owner} devices[{i}] reuses the device id {device.name!r} "
                "with a different specification; give distinct devices distinct "
                "names (identical repeated specs — a homogeneous node — are fine)"
            )


@dataclass(frozen=True)
class NodeSpec:
    """One node: GPUs joined by the intra-node link.

    Attributes
    ----------
    devices:
        The node's member :class:`DeviceSpec` s.
    interconnect:
        The intra-node device-to-device link (P2P/NVLink), the fast tier.
    name:
        Node name.  It keys the node's ``link:`` and ``nic:`` lanes on a
        shared timeline, so the nodes of one cluster need distinct names.
    """

    devices: Tuple[DeviceSpec, ...]
    interconnect: InterconnectSpec = PCIE3_P2P
    name: str = "node"

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValueError("NodeSpec needs at least one device")
        # Validate eagerly: a zero-throughput member or an inconsistent link
        # would otherwise only surface as a division failure deep inside the
        # sharded execution driver or the capability-weighted partitioner.
        try:
            self.interconnect.validate()
        except ValueError as exc:
            raise ValueError(f"NodeSpec interconnect is invalid: {exc}") from exc
        for i, device in enumerate(self.devices):
            try:
                device.validate()
            except ValueError as exc:
                raise ValueError(f"NodeSpec devices[{i}] is invalid: {exc}") from exc
        _check_device_ids(self.devices, "NodeSpec")

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

    def as_cluster(self) -> "ClusterSpec":
        """This node as a one-node cluster of the same name.

        What a node-local sharded placement executes on: its collectives
        book this node's link, the same lane the enclosing cluster books
        for the node, and never the NIC.
        """
        return ClusterSpec(nodes=(self,), name=self.name)


@dataclass(frozen=True)
class ClusterSpec:
    """Nodes of GPUs joined by a NIC: the two-tier interconnect hierarchy.

    ``devices`` flattens node-by-node: flat slot ``i`` executes shard ``i``
    of a sharded kernel, and the serving scheduler indexes the flat order
    throughout.  A one-node cluster is a single GPU node; its NIC is never
    priced.

    The all-reduce comes in two algorithms, mirroring what real collective
    libraries (NCCL & friends) choose between:

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
    charges whichever schedule is cheaper.

    Attributes
    ----------
    nodes:
        The member :class:`NodeSpec` s, with distinct names.
    nic:
        The inter-node link; each node has one lane of it.
    name:
        Human-readable cluster name.
    devices / device_node:
        Derived at construction: every member GPU in flat slot order, and
        the index of the node holding each slot.
    """

    nodes: Tuple[NodeSpec, ...]
    nic: InterconnectSpec = INFINIBAND_EDR
    name: str = "cluster"
    devices: Tuple[DeviceSpec, ...] = field(init=False, repr=False)
    device_node: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("ClusterSpec needs at least one node")
        try:
            self.nic.validate()
        except ValueError as exc:
            raise ValueError(f"ClusterSpec NIC is invalid: {exc}") from exc
        for i, node in enumerate(self.nodes):
            if not isinstance(node, NodeSpec):
                raise ValueError(
                    f"ClusterSpec nodes[{i}] must be a NodeSpec, got {type(node).__name__}"
                )
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(
                f"ClusterSpec node names must be distinct (they key the link and "
                f"NIC lanes), got {names}"
            )
        devices = tuple(d for node in self.nodes for d in node.devices)
        # Device ids must be consistent across nodes too, not just within one.
        _check_device_ids(devices, "ClusterSpec")
        object.__setattr__(self, "devices", devices)
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
        devices_per_node: int = 4,
        *,
        num_nodes: int = 1,
        interconnect: InterconnectSpec = PCIE3_P2P,
        nic: InterconnectSpec = INFINIBAND_EDR,
        name: Optional[str] = None,
    ) -> "ClusterSpec":
        """``num_nodes`` identical nodes of ``devices_per_node`` ``device`` s.

        The node of a one-node cluster carries the cluster's name
        (``"4x <device>"`` by default); several nodes are named
        ``"node0: 4x <device>"``, ``"node1: ..."`` and so on.
        """
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        node = NodeSpec.homogeneous(device, devices_per_node, interconnect=interconnect)
        if num_nodes == 1:
            name = name or node.name
            node_names = [name]
        else:
            name = name or f"{num_nodes} nodes x {node.name} over {nic.name}"
            node_names = [f"node{i}: {node.name}" for i in range(num_nodes)]
        return cls(nodes=tuple(replace(node, name=n) for n in node_names), nic=nic, name=name)

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of member nodes."""
        return len(self.nodes)

    @property
    def num_devices(self) -> int:
        """Total GPUs across all nodes."""
        return len(self.devices)

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
        """Capacity of the smallest member (bounds an evenly-sharded tensor)."""
        return min(d.global_mem_bytes for d in self.devices)

    @property
    def max_device_memory_bytes(self) -> int:
        """Capacity of the largest member (bounds a single-device placement)."""
        return max(d.global_mem_bytes for d in self.devices)

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate device memory across every node."""
        return sum(d.global_mem_bytes for d in self.devices)

    @property
    def is_homogeneous(self) -> bool:
        """Whether every member device (across all nodes) is identical."""
        return all(d == self.devices[0] for d in self.devices[1:])

    def capability_scores(self, *, flops_per_byte: float = 0.5) -> Tuple[float, ...]:
        """Per-device roofline throughput scores (bytes/s) in flat slot order.

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
        """Per-device throughput weights in flat slot order, summing to 1.

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

    def without_node(self, node_index: int) -> "ClusterSpec":
        """The survivor topology after losing node ``node_index``.

        Drops the node (its devices, intra-node link and NIC lane); the
        remaining nodes keep their names, so they keep booking the same
        timeline lanes.
        """
        if not 0 <= node_index < self.num_nodes:
            raise ValueError(
                f"node_index must be in [0, {self.num_nodes}), got {node_index}"
            )
        if self.num_nodes == 1:
            raise ValueError("cannot drop the only node of a cluster")
        return ClusterSpec(
            nodes=tuple(node for i, node in enumerate(self.nodes) if i != node_index),
            nic=self.nic,
            name=f"{self.name} [-node{node_index}]",
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
        """Re-assert consistency of every device and link.

        Construction already performs this validation; the method is kept so
        callers holding a spec from any source can re-assert consistency.
        """
        self.nic.validate()
        for node in self.nodes:
            node.interconnect.validate()
        for device in self.devices:
            device.validate()

    # ------------------------------------------------------------------ #
    # Collective cost models
    # ------------------------------------------------------------------ #
    def flat_allreduce_time(self, nbytes: float) -> float:
        """Topology-oblivious ring all-reduce over all ``N`` devices.

        The classic ``2 (N - 1)`` step ring, each step moving ``nbytes / N``
        over every device's link simultaneously, so the bandwidth term is
        ``2 (N - 1) / N * nbytes / bandwidth``.  Every synchronised step
        pays the *slowest* link's wire time and latency — for a ring laid
        out node-by-node, the inter-node NIC hop whenever there is more
        than one node.  Zero for a single device.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        n = self.num_devices
        if n == 1 or nbytes == 0:
            return 0.0
        # The ring crosses every node's link, and the NIC when it spans nodes.
        links = [node.interconnect for node in self.nodes]
        if self.num_nodes > 1:
            links.append(self.nic)
        bandwidth = min(link.bandwidth_bytes_per_s for link in links)
        latency = max(link.latency_s for link in links)
        steps = 2 * (n - 1)
        bandwidth_term = (2.0 * (n - 1) / n) * nbytes / bandwidth
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

        On one node the inter phase vanishes and reduce-scatter plus
        all-gather *is* the flat ring, to the bit.
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

    def neighbor_exchange_time(
        self,
        nbytes_per_boundary: Sequence[float],
        *,
        slots: Sequence[int],
        sources: Sequence[int],
    ) -> float:
        """Pairwise boundary exchange, priced per tier.

        Used when the output stays *partitioned* across the devices (the
        semi-sparse SpTTM result feeding the next pipeline stage in place)
        and only the partial segments straddling a shard boundary merge.
        Payload ``i`` moves point-to-point from flat slot ``sources[i]`` to
        flat slot ``slots[i]``.  ``execute_sharded`` passes the previous
        *executed* shard's slot as the source, which can sit further left
        (or in another node) when empty placeholder shards lie between
        them.  A boundary between devices of different nodes crosses the
        NIC, one within a node rides that node's P2P tier.  The pairs are
        disjoint and full duplex, so the exchanges overlap and the worst
        boundary gates the phase.  Zero with no straddling boundaries.
        """
        payloads = [float(b) for b in nbytes_per_boundary]
        if any(b < 0 for b in payloads):
            raise ValueError("per-boundary payloads must be non-negative")
        if not len(slots) == len(sources) == len(payloads):
            raise ValueError(
                f"got {len(slots)} slots and {len(sources)} sources for "
                f"{len(payloads)} boundary payloads"
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

    # ------------------------------------------------------------------ #
    # Timeline bookings: collectives occupy every participating tier
    # ------------------------------------------------------------------ #
    def link_resource_key(self, node_index: int) -> str:
        """Resource key of one node's device-to-device link.

        Keyed by the node *name*, so a node viewed through
        :meth:`NodeSpec.as_cluster` books the same link resource as the
        enclosing cluster does for that node — a node-local collective and
        a cluster-wide one contend correctly on a shared timeline.
        """
        return f"link:{self.nodes[node_index].name}"

    def nic_resource_key(self, node_index: int) -> str:
        """Resource key of one node's NIC (the inter-node serial resource)."""
        return f"nic:{self.nodes[node_index].name}"

    def collective_resources(self, timeline: Timeline) -> Tuple[Resource, ...]:
        """The timeline resources a cluster-wide collective occupies.

        Every multi-device node's intra-node link plus — whenever the
        cluster spans nodes — every node's NIC.  A collective holds all of
        them for its window: the intra phases ride the links, the
        inter-node ring rides the NIC lanes, and no second collective can
        slot into either tier meanwhile.
        """
        resources: List[Resource] = [
            timeline.resource(self.link_resource_key(i), category="link")
            for i, node in enumerate(self.nodes)
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
    ) -> GangBooking:
        """Book a pre-priced collective onto every participating tier.

        The booking starts at ``max(ready_s, every lane free)``: on an idle
        timeline it ends exactly ``duration_s`` after ``ready_s`` — the
        closed-form cost.  When another job's collective already holds a
        shared link or NIC, this one waits for it: contention between
        concurrent jobs falls out of the shared timeline instead of each
        job pricing the link as idle.
        """
        return timeline.book_together(
            self.collective_resources(timeline),
            duration_s,
            ready_s=ready_s,
            label=label,
        )

    def book_allreduce(
        self, timeline: Timeline, nbytes: float, *, ready_s: float = 0.0, label: str = "allreduce"
    ) -> GangBooking:
        """Book an all-reduce (:meth:`allreduce_time`, algorithm-selected)."""
        return self.book_collective(
            timeline, self.allreduce_time(nbytes), ready_s=ready_s, label=label
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterSpec(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"num_devices={self.num_devices}, nic={self.nic.name!r})"
        )


def resolve_cluster(
    device: DeviceSpec, cluster: Optional[ClusterSpec]
) -> Tuple[DeviceSpec, Optional[ClusterSpec]]:
    """Normalise the ``cluster`` field of an execution context.

    Returns ``(single_device, multi_cluster)`` where exactly one execution
    mode is active: the cluster is ``None`` when execution is effectively
    single-device — no cluster requested, or a cluster of one device — so
    callers keep the exact single-GPU code path (and its numerics and
    profile shape) in that case, running on the cluster's sole member when
    one was given.
    """
    if cluster is not None and cluster.num_devices == 1:
        return cluster.devices[0], None
    return device, cluster
