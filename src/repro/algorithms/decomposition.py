"""The run core both decomposition drivers share.

:func:`~repro.algorithms.cp.cp_als` and
:func:`~repro.algorithms.tucker.tucker_hooi` run one unified kernel per
step of a sweep, in two passes: a numeric pass computes the numbers with no
timeline, then a modeled pass books the same sweeps from each kernel's
model-only profile.  One :class:`DecompositionTimeline` per modeled pass
owns what is not the algorithm's numerics: the run's
:class:`~repro.gpusim.timeline.Timeline` (each kernel books at the makespan
before it), the per-device busy ledger, and node-loss recovery (current
topology, slot map, pending chaos events, :class:`RecoveryRecord` ledger).

When :meth:`DecompositionTimeline.due_failure` reports a node lost during
a kernel, the modeled pass calls :meth:`DecompositionTimeline.recover` and
books the interrupted sweep again on the survivors.  No numbers are
recomputed: a kernel's numbers do not depend on the topology, so the
numeric pass's are the failure-free run's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import ClusterSpec, NodeFailure
from repro.gpusim.timeline import Resource, Timeline, device_compute_key
from repro.kernels.common import Profile
from repro.kernels.unified.sharded import plan_node_recovery
from repro.obs.metrics import MetricsRegistry, observe_decomposition

__all__ = ["DecompositionTimeline", "RecoveryRecord", "kernel_context"]


@dataclass(frozen=True)
class RecoveryRecord:
    """Ledger entry for one mid-run node loss the run survived.

    Attributes
    ----------
    failure:
        The :class:`~repro.gpusim.cluster.NodeFailure` that fired.
    iteration:
        0-based sweep that was interrupted (and then booked again in full
        on the survivors).
    mode:
        Mode of the kernel after which the loss was detected; the partial
        sweep up to and including it is discarded as wasted work.
    restage_s:
        Modeled seconds spent re-staging the failed node's shards onto the
        survivors (booked on the decomposition timeline's copy lanes).
    restaged_bytes:
        Total bytes re-staged across all modes and survivors.
    survivor_devices:
        Device count of the topology the run continued on.
    """

    failure: NodeFailure
    iteration: int
    mode: int
    restage_s: float
    restaged_bytes: float
    survivor_devices: int


def kernel_context(ctx: ExecContext, cluster: Optional[ClusterSpec]) -> ExecContext:
    """The context a decomposition runs its kernels with.

    The streaming fields and the backend of ``ctx``, sharded across
    ``cluster`` (the run's current topology; ``None`` for one device).
    ``metrics`` stays unset: the decomposition publishes its own series,
    and per-kernel series would land in the serving exports.
    """
    return ExecContext(
        streamed=ctx.streamed,
        num_streams=ctx.num_streams,
        chunk_nnz=ctx.chunk_nnz,
        cluster=cluster,
        backend=ctx.backend,
    )


class DecompositionTimeline:
    """One decomposition run's timeline, busy ledger and node-loss recovery.

    ``cluster`` is the topology the run starts on (``None`` for a single
    device), ``chaos`` the node failures to survive.
    """

    def __init__(
        self,
        cluster: Optional[ClusterSpec],
        chaos: Optional[Sequence[NodeFailure]] = None,
    ) -> None:
        self.timeline = Timeline()
        self.cluster = cluster
        self.num_devices = cluster.num_devices if cluster is not None else 1
        self._compute = [
            self.timeline.resource(device_compute_key(slot), category="compute")
            for slot in range(self.num_devices)
        ]
        # Current-topology slot -> original physical slot.
        self._slot_map: Tuple[int, ...] = tuple(range(self.num_devices))
        self._busy_s: Dict[int, float] = {}
        self._sharded_s = 0.0
        self._pending = sorted(chaos or (), key=lambda f: (f.time_s, f.node_index))
        self.recoveries: List[RecoveryRecord] = []
        self.recovery_overhead_s = 0.0

    @property
    def lanes(self) -> List[Resource]:
        """The compute engines of the current topology, in its slot order."""
        return [self._compute[slot] for slot in self._slot_map]

    def book(self, profile: Profile, label: str) -> Tuple[float, float]:
        """Book one kernel at the makespan; returns its compute end and end.

        A sharded profile books its shards and all-reduce through
        :meth:`~repro.kernels.unified.sharded.ShardedExecution.book` on the
        physical slots, and adds its shards to the busy ledger.  Any other
        profile books the current topology's first compute engine.
        """
        ready = self.timeline.makespan_s
        execution = getattr(profile, "sharded", None)
        if execution is None:
            lane = self._compute[self._slot_map[0]]
            end = lane.book(profile.estimated_time_s, ready_s=ready, label=label).end_s
            return end, end
        for slot, busy in execution.device_times.items():
            slot = self._slot_map[slot]
            self._busy_s[slot] = self._busy_s.get(slot, 0.0) + busy
        self._sharded_s += execution.total_time_s
        start, end = execution.book(
            self.timeline, ready_s=ready, label=label, slot_map=self._slot_map
        )
        return start + execution.max_shard_time_s, end

    def due_failure(self) -> Optional[NodeFailure]:
        """The first pending failure the makespan has reached that applies.

        A failure applies while the run shards across several nodes and
        its node index names one of them.  Reached failures that do not
        apply are consumed and ignored.
        """
        while self._pending and self._pending[0].time_s <= self.timeline.makespan_s:
            failure = self._pending.pop(0)
            nodes = self.cluster.num_nodes if self.cluster is not None else 1
            if nodes > 1 and failure.node_index < nodes:
                return failure
        return None

    def recover(
        self,
        failure: NodeFailure,
        resident: Sequence[Tuple[FCOOTensor, int]],
        *,
        iteration: int,
        mode: int,
    ) -> None:
        """Move the run onto the survivors of ``failure`` and record it.

        ``resident`` holds each mode's device-resident encoding with its
        threadlen.  Each one's re-staging is planned against the current
        topology and mapped onto physical slots, the topology shrinks to
        the survivors, and the plans book the copy engines one after another
        from the later of the makespan and the failure instant.  The
        interrupted kernel's bookings stay on the timeline as wasted work;
        booking the sweep again is the caller's job.
        """
        cluster = self.cluster
        plans = [
            plan_node_recovery(encoding, cluster, failure.node_index, threadlen=threadlen)
            for encoding, threadlen in resident
        ]
        # A plan's slot map is relative to the current topology; compose it
        # with the run's so a second loss books the survivors' own lanes.
        plans = [
            replace(plan, slot_map=tuple(self._slot_map[slot] for slot in plan.slot_map))
            for plan in plans
        ]
        survivors = cluster.surviving_slots(failure.node_index)
        self._slot_map = tuple(self._slot_map[slot] for slot in survivors)
        self.cluster = cluster.without_node(failure.node_index)
        ready = max(self.timeline.makespan_s, failure.time_s)
        end = ready
        for plan in plans:
            end = plan.book(self.timeline, ready_s=end, label=f"restage:node{failure.node_index}")
        self.recovery_overhead_s += end - ready
        self.recoveries.append(
            RecoveryRecord(
                failure=failure,
                iteration=iteration,
                mode=mode,
                restage_s=end - ready,
                restaged_bytes=sum(p.total_restaged_bytes for p in plans),
                survivor_devices=self.cluster.num_devices,
            )
        )

    def finish(
        self, metrics: Optional[MetricsRegistry], algorithm: str, iterations: int
    ) -> Dict[str, Any]:
        """The result fields the run core owns; publishes the run into
        ``metrics`` when set.

        ``device_time_by_device`` holds each original physical slot's busy
        seconds over the sharded kernels, and ``parallel_efficiency`` is
        ``sum(busy) / (N * sum(sharded makespans))`` with ``N`` the starting
        device count; both are ``None`` for a single-device run.
        """
        makespan_s = self.timeline.makespan_s
        if metrics is not None:
            observe_decomposition(
                metrics,
                algorithm=algorithm,
                iterations=iterations,
                makespan_s=makespan_s,
                recoveries=len(self.recoveries),
                recovery_overhead_s=self.recovery_overhead_s,
            )
        sharded = self.cluster is not None
        efficiency = None
        if sharded and self._sharded_s > 0.0:
            busy = sum(self._busy_s.values())
            efficiency = min(1.0, busy / (self.num_devices * self._sharded_s))
        return dict(
            device_time_by_device=dict(self._busy_s) if sharded else None,
            parallel_efficiency=efficiency,
            makespan_s=makespan_s,
            timeline=self.timeline,
            recoveries=self.recoveries,
            recovery_overhead_s=self.recovery_overhead_s,
        )
