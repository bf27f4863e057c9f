"""Event-driven multi-tenant scheduler over the simulated cluster.

The scheduler turns a stream of :class:`~repro.serve.job.Job` s into a
deterministic simulated-time schedule:

* **admission** — on arrival a job is either rejected by admission
  control *before* any preprocessing is spent (a tensor no F-COO
  operation or float32 value can hold, or resident dense operands that
  cannot fit next to two minimal streamed chunk buffers on any device —
  see :meth:`~repro.serve.placement.Placer.admit`), or preprocessed: its
  F-COO encoding (and, with ``autotune``, its tuned launch parameters)
  come from the scheduler's :class:`~repro.serve.cache.PreprocCache`.
  Preprocessing is host work done tenant-side and overlaps freely across
  jobs; a cache miss delays only that job's stage-readiness, never the
  cluster.

* **queueing** — admitted jobs wait in a priority queue
  (``policy="priority"``: lower priority class first, FIFO within a class;
  ``policy="fifo"``: strict arrival order; ``policy="deadline"``:
  earliest-deadline-first over the jobs' :class:`~repro.context.SLO`
  deadlines, then priority class — on a workload without SLOs every
  deadline is ``inf`` and the policy degenerates to ``"priority"``
  bit for bit).

* **preemption** — under ``policy="deadline"``, a dispatched job that
  would miss its deadline may preempt one committed batch job
  (preemptible, no deadline of its own) sharing its device slots, as long
  as the victim has not started computing: its not-yet-started timeline
  bookings are *released* back to the resource pool
  (:meth:`~repro.gpusim.timeline.Timeline.release`), a staging booking in
  flight is *truncated* at the preemption instant
  (:meth:`~repro.gpusim.timeline.Timeline.truncate`), and the victim
  re-queues to re-dispatch from scratch.  Outputs are bit-identical with
  or without preemption — the numbers are computed once per run and only
  *time* is replayed.

* **dispatch** — a job is dispatched when a copy engine frees *and* the job
  is stage-ready, so its staging overlaps the predecessor's compute.
  Arrivals earlier than the dispatch instant always enter the queue first,
  so a late high-priority job overtakes queued batch work; a job still
  preprocessing never blocks stage-ready ones.

* **batching** — up to :data:`MAX_BATCH` compatible stage-ready jobs
  (same tensor content, operation, mode and rank — i.e. the same F-COO
  encoding and launch geometry) ride one dispatch: the encoding is staged
  once for the whole batch and the members execute back to back on the
  batch's device.
  Batching changes *when* work runs, never *what* it computes.

* **pricing and numerics** — every dispatch prices the job on its
  placement with the cost model alone
  (:func:`~repro.serve.execute.price_job`).  A job's numbers do not depend
  on its placement, so :func:`~repro.serve.execute.execute_job` computes
  them at most once per run: re-dispatches after a preemption or a node
  loss reuse them.

* **feasibility** — every run ends by checking that no resource of its
  timeline is busy for longer than the run
  (:meth:`~repro.gpusim.timeline.Timeline.violations`), and that every
  resource's busy seconds reconcile with the seconds its bookings'
  spans attribute (:attr:`~repro.obs.attribution.ResourceCost.reconciles`).
  Preemption and chaos re-booking release and re-book committed work; an
  over-booked resource means one of them double-counted time, and an
  unreconciled one that its busy-seconds total and its bookings disagree
  (release and truncate edit both).  Either way the run raises
  ``RuntimeError`` instead of reporting that schedule.

All time bookkeeping lives on one shared
:class:`~repro.gpusim.timeline.Timeline`: every device contributes a copy
engine and a compute engine resource (the PR 1 stream-pipeline pair, now
first-class), and a sharded job's partial-output collective books the
execution cluster's intra-node link / per-node NIC resources through
:meth:`~repro.gpusim.cluster.ClusterSpec.book_collective`.  On idle
resources the booked schedule reproduces the pre-refactor closed forms bit
for bit; when concurrent cross-node jobs share a NIC, the later collective
queues behind the earlier one and the job finishes later — shared-NIC
congestion, falling out of the resource model instead of being priced as
idle.  The timeline also powers the per-resource utilisation of
:class:`~repro.serve.engine.ServingReport` and the ``--trace`` Chrome
trace export.

Everything is simulated time derived from the deterministic cost models —
two runs of the same workload produce identical schedules, which is what
lets ``tests/test_serving.py`` assert bit-identical outputs and the CI
regression gate track throughput/latency without timer noise.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import ClusterSpec, NodeFailure
from repro.gpusim.timeline import (
    Booking,
    Resource,
    Span,
    Timeline,
    device_compute_key,
    device_copy_key,
)
from repro.gpusim.timing import OutOfDeviceMemory
from repro.obs.attribution import Attribution, attribute
from repro.obs.events import Event, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import PreprocCache
from repro.serve.execute import ExecutionOutcome, execute_job, price_job
from repro.serve.job import Job, JobKind, JobResult, JobStatus
from repro.serve.placement import JobGeometry, Placement, Placer, job_geometry

__all__ = [
    "MAX_BATCH",
    "PreemptionRecord",
    "ScheduleOutcome",
    "Scheduler",
]

#: Largest batch of compatible jobs one dispatch carries.
MAX_BATCH = 4


@dataclass(frozen=True)
class PreemptionRecord:
    """One preemption: who was cut, by whom, when, and what it freed.

    ``time_s`` is the preemption instant: the victim's staging (if in
    flight) was cut there and everything later released.  ``released_s``
    is the busy time given back to the resource pool.
    """

    job_id: int
    preempted_by: int
    time_s: float
    released_s: float


@dataclass(eq=False)
class _ReadyEntry:
    """One admitted, preprocessed job waiting in the queue."""

    job: Job
    geometry: JobGeometry
    #: The F-COO encodings preprocessing looked up, by mode: the job's mode
    #: for a kernel job, every mode for a decomposition.
    encodings: Dict[int, FCOOTensor]
    ready_s: float  # earliest staging start: preprocessing done AND the
    #                 encodings it reuses finished building
    preproc_s: float
    encode_hit: bool
    tuner_hit: Optional[bool]
    launch: Optional[Tuple[int, int]]  # tuned (BLOCK_SIZE, threadlen)
    #: Preemption bookkeeping: times preempted so far and the last
    #: preemption instant.
    preemptions: int = 0
    preempted_from_s: float = 0.0
    #: Whether this entry is a post-failure re-admission — its re-staging
    #: is attributed to the ``recovery`` span phase rather than ``stage``.
    requeued: bool = False


@dataclass
class _CommittedJob:
    """The booking ledger of one committed (dispatched) job.

    What preemption needs: every timeline booking the commit made, in
    booking order, plus the stage booking singled out so the preemptor
    can tell "caught mid-staging" (preemptible) from any other booking in
    flight (not preemptible).
    """

    entry: _ReadyEntry
    placement: Placement
    bookings: List[Booking]
    stage_booking: Optional[Booking]  # single-lane stage (non-sharded)
    finish_s: float
    batch_id: Optional[int]
    # The provisional log events this commitment emitted (timestamps lie in
    # the committed future).  Revoking the commitment — trial re-book,
    # preemption, chaos teardown — must retract the stale ones.
    start_event: Optional[Event] = None  # "dispatch"
    complete_event: Optional[Event] = None


@dataclass
class _RunState:
    """The shared timeline of one scheduler run plus its device resources."""

    timeline: Timeline
    copy: List[Resource]
    compute: List[Resource]
    dispatches: List[int]
    #: Flat slots / node indices currently down (chaos); new placements
    #: exclude them until the node's recovery event (if any) fires.
    failed_slots: set = field(default_factory=set)
    failed_nodes: set = field(default_factory=set)
    #: Per-job booking ledgers of committed runs (keyed by job id) — what
    #: the deadline policy preempts from.
    committed: Dict[int, _CommittedJob] = field(default_factory=dict)
    #: Preemptions performed, in firing order.
    preemption_records: List[PreemptionRecord] = field(default_factory=list)
    #: Telemetry sinks of the run (both optional; observation-only).
    metrics: Optional[MetricsRegistry] = None
    events: Optional[EventLog] = None
    #: Job id -> the job's numbers (:func:`~repro.serve.execute.execute_job`),
    #: computed at most once per run.
    numerics: Dict[int, Any] = field(default_factory=dict)


@dataclass
class ScheduleOutcome:
    """Everything one scheduler run produced."""

    results: List[JobResult]
    #: Dispatches per device slot, re-commits after a preemption or a node
    #: loss included.
    dispatches: List[int]
    #: The shared simulated-time timeline of the run: per-device copy and
    #: compute engines plus the link/NIC resources the sharded jobs'
    #: collectives booked.  Export with ``timeline.write_chrome_trace``.
    timeline: Timeline = field(repr=False)
    #: Chaos events that fired during the run, in firing order.
    failures: List[NodeFailure] = field(default_factory=list)
    #: Total job re-queues: every time a node loss tore an in-flight job
    #: off its placement and sent it back to the queue.
    requeued_jobs: int = 0
    #: Preemptions the deadline policy performed, in firing order.
    preemptions: List[PreemptionRecord] = field(default_factory=list)
    #: The span-folded cost breakdown of the run's timeline (per-job and
    #: per-resource attributed seconds; see :mod:`repro.obs.attribution`).
    attribution: Optional[Attribution] = field(default=None, repr=False)

    @property
    def makespan_s(self) -> float:
        """Completion time of the last job (0 for an all-rejected run)."""
        return max((r.finish_s for r in self.results if r.completed), default=0.0)


class Scheduler:
    """Deterministic simulated-time scheduler for one serving cluster.

    The scheduler owns its :class:`~repro.serve.cache.PreprocCache`
    (``cache``): encodings and tuned launch configs outlive a run, so a
    later run on the same scheduler starts warm.  Jobs launch with
    :data:`~repro.serve.placement.BLOCK_SIZE` and
    :data:`~repro.serve.placement.THREADLEN` unless tuned.

    Parameters
    ----------
    cluster:
        The serving cluster.
    policy:
        ``"priority"`` (default), ``"fifo"`` or ``"deadline"``
        (earliest-deadline-first, preempting batch jobs that have not
        started computing; see the module docstring).
    autotune:
        Look up tuned ``(BLOCK_SIZE, threadlen)`` per kernel-job shape in
        the cache (sweeping on a miss, reusing on a hit); tuning runs on
        the cluster's most capable device.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        policy: str = "priority",
        autotune: bool = False,
    ) -> None:
        if policy not in ("priority", "fifo", "deadline"):
            raise ValueError(
                f"policy must be 'priority', 'fifo' or 'deadline', got {policy!r}"
            )
        self.cluster = cluster
        self.cache = PreprocCache()
        self.policy = policy
        self.autotune = autotune
        self.placer = Placer(cluster)
        weights = cluster.capability_weights()
        #: Where tuner sweeps run: the most capable member (ties: lowest slot).
        self._tuner_device = cluster.devices[
            max(range(cluster.num_devices), key=lambda s: (weights[s], -s))
        ]

    # ------------------------------------------------------------------ #
    def _queue_key(self, job: Job) -> Tuple:
        if self.policy == "deadline":
            # EDF, then the priority order.  Without SLOs every deadline
            # is inf and this degenerates to the "priority" key exactly.
            return (job.deadline_s, job.priority, job.arrival_s, job.job_id)
        if self.policy == "priority":
            return (job.priority, job.arrival_s, job.job_id)
        return (job.arrival_s, job.job_id)

    def _preprocess(
        self,
        job: Job,
        geometry: JobGeometry,
        availability: Dict[Tuple, float],
    ) -> _ReadyEntry:
        """Run one admitted job's host preprocessing through the cache.

        ``availability`` maps a cache entry's key (encoding or tuner
        config) to the simulated time its build completes: a cache *hit*
        is free but cannot make the job stage-ready before the entry it
        reuses physically exists, so a job arriving just behind the miss
        that builds it waits for that build, not zero.
        """
        encodings: Dict[int, FCOOTensor] = {}
        launch = None
        tuner_hit: Optional[bool] = None
        ready_s = job.arrival_s
        # The kernel job's mode, or every mode the decomposition will sweep;
        # the misses are this job's preprocessing bill.
        modes = (job.mode,) if job.kind.is_kernel else range(job.tensor.order)
        encode_hit, preproc_s = True, 0.0
        for mode in modes:
            key = (job.tensor.content_key, job.operation.value, mode)
            encodings[mode], hit, cost_s = self.cache.encoding(
                job.tensor, job.operation, mode
            )
            encode_hit = encode_hit and hit
            preproc_s += cost_s
            if hit:
                ready_s = max(ready_s, availability.get(key, job.arrival_s))
            else:
                availability[key] = job.arrival_s + preproc_s
                ready_s = max(ready_s, availability[key])
        if job.kind.is_kernel and self.autotune:
            launch, tuner_hit, tune_s = self.cache.tuner_config(
                job.tensor,
                job.operation,
                job.mode,
                job.rank,
                device=self._tuner_device,
                encoding=encodings[job.mode],
            )
            preproc_s += tune_s
            tuner_key = (
                "tuner",
                job.tensor.content_key,
                job.operation.value,
                job.mode,
                job.rank,
            )
            if tuner_hit:
                ready_s = max(ready_s, availability.get(tuner_key, job.arrival_s))
            else:
                # The sweep runs after this job's encode lands.
                ready_s += tune_s
                availability[tuner_key] = ready_s
        return _ReadyEntry(
            job=job,
            geometry=geometry,
            encodings=encodings,
            ready_s=ready_s,
            preproc_s=preproc_s,
            encode_hit=encode_hit,
            tuner_hit=tuner_hit,
            launch=launch,
        )

    def _admit(
        self,
        pending: deque,
        ready: List[Tuple[Tuple, _ReadyEntry]],
        clock: float,
        results: Dict[int, JobResult],
        availability: Dict[Tuple, float],
        events: Optional[EventLog] = None,
    ) -> None:
        """Process arrivals up to ``clock``: reject or preprocess."""
        while pending and pending[0].arrival_s <= clock:
            job = pending.popleft()
            geometry = job_geometry(job)
            reason = self.placer.admit(job, geometry)
            if reason is not None:
                results[job.job_id] = self._rejected(job, reason)
                if events is not None:
                    events.emit(
                        "reject",
                        time_s=job.arrival_s,
                        job_id=f"job{job.job_id}",
                        reason="admission_control",
                    )
                continue
            entry = self._preprocess(job, geometry, availability)
            ready.append((self._queue_key(job), entry))
            if events is not None:
                events.emit(
                    "admit",
                    time_s=job.arrival_s,
                    job_id=f"job{job.job_id}",
                    job_kind=job.kind.value,
                    tenant=job.tenant,
                    priority=job.priority,
                    ready_s=entry.ready_s,
                )

    @staticmethod
    def _rejected(job: Job, reason: str) -> JobResult:
        return JobResult(
            job=job,
            status=JobStatus.REJECTED,
            reject_reason=reason,
            stage_start_s=job.arrival_s,
            exec_start_s=job.arrival_s,
            finish_s=job.arrival_s,
        )

    def _pop_best_ready(
        self, ready: List[Tuple[Tuple, _ReadyEntry]], t: float
    ) -> Optional[_ReadyEntry]:
        """Pop the best queued job that is stage-ready at ``t`` (work
        conservation: a job still preprocessing never blocks ready ones)."""
        candidates = [entry for entry in ready if entry[1].ready_s <= t]
        if not candidates:
            return None
        best = min(candidates, key=lambda entry: entry[0])[1]
        ready[:] = [e for e in ready if e[1].job.job_id != best.job.job_id]
        return best

    def _pop_batch_mates(
        self, ready: List[Tuple[Tuple, _ReadyEntry]], leader: Job, t: float
    ) -> List[_ReadyEntry]:
        """Extract up to ``MAX_BATCH - 1`` stage-ready jobs batchable with
        ``leader``."""
        if not leader.kind.is_kernel:
            return []
        leader_key = leader.batch_key
        matching = sorted(
            (
                entry
                for entry in ready
                # The mate must itself be a kernel job: a decomposition on
                # the same tensor shares the leader's batch_key (CP-ALS
                # preprocesses the SpMTTKRP encoding) but is not one kernel
                # invocation and must keep its own placement.
                if entry[1].job.kind.is_kernel
                and entry[1].job.batch_key == leader_key
                and entry[1].ready_s <= t
            ),
            key=lambda entry: entry[0],
        )
        take = matching[: MAX_BATCH - 1]
        if take:
            taken = {entry[1].job.job_id for entry in take}
            ready[:] = [entry for entry in ready if entry[1].job.job_id not in taken]
        return [entry[1] for entry in take]

    # ------------------------------------------------------------------ #
    def _node_slots(self, node_index: int) -> Tuple[int, ...]:
        """Flat serving-cluster slots a chaos event on ``node_index`` kills.

        On a multi-node cluster the event takes out a whole node; on a
        one-node cluster the "node" index is read as a single device slot.
        Out-of-range indices map to no slots — the event is inapplicable
        and ignored, mirroring the decomposition drivers.
        """
        cluster = self.cluster
        if cluster.num_nodes > 1:
            if 0 <= node_index < cluster.num_nodes:
                return cluster.node_slots(node_index)
            return ()
        if 0 <= node_index < cluster.num_devices:
            return (node_index,)
        return ()

    def run(
        self,
        jobs: Sequence[Job],
        chaos: Optional[Sequence[NodeFailure]] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> ScheduleOutcome:
        """Schedule and execute ``jobs``; returns the full ledger.

        ``chaos`` injects seeded node-loss events
        (:class:`~repro.gpusim.cluster.NodeFailure`, e.g. from
        :func:`~repro.serve.workload.generate_chaos`).  When an event
        fires, the node's slots stop accepting new placements, and every
        job whose committed run overlaps the failure instant on a dead
        slot (``finish_s > time_s``) is torn down: its result is dropped,
        its bookings stay on the timeline as wasted work, and the job is
        re-queued (re-preprocessing hits the warm cache) to be re-admitted
        on surviving slots.  An event's ``recover_s`` returns the node's
        slots to the placement pool at that time.  Numeric outputs are
        unaffected — a re-queued job recomputes the same bits on the
        survivor placement — so chaos perturbs only the schedule.

        ``metrics`` and ``events`` are the run's optional telemetry sinks
        (see :mod:`repro.obs`): with ``metrics``, every layer a job
        touches publishes into the registry (kernels included — it is
        threaded through :func:`~repro.serve.execute.price_job` onto
        the :class:`~repro.context.ExecContext`); with ``events``, the
        event loop appends one structured record per scheduling decision.
        Both are observation-only: bookings and results are bit-identical
        with or without them.

        Raises ``RuntimeError`` naming every over-booked resource and its
        excess busy seconds when the finished run's timeline has any
        (:meth:`~repro.gpusim.timeline.Timeline.violations`), and naming
        every resource whose busy seconds do not reconcile with its
        attributed and untagged seconds, with the gap.
        """
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique within one scheduler run")
        timeline = Timeline()
        state = _RunState(
            timeline=timeline,
            copy=[
                timeline.resource(device_copy_key(i), category="copy")
                for i in range(self.cluster.num_devices)
            ],
            compute=[
                timeline.resource(device_compute_key(i), category="compute")
                for i in range(self.cluster.num_devices)
            ],
            dispatches=[0] * self.cluster.num_devices,
            metrics=metrics,
            events=events,
        )
        pending = deque(sorted(jobs, key=lambda j: (j.arrival_s, j.job_id)))
        ready: List[Tuple[Tuple, _ReadyEntry]] = []
        results: Dict[int, JobResult] = {}
        #: encoding key -> simulated time its host build completes, for
        #: this run only (a fresh run restarts the simulated clock).
        availability: Dict[Tuple, float] = {}
        clock = timeline.clock
        batch_seq = 0
        chaos_events = deque(sorted(chaos or (), key=lambda e: (e.time_s, e.node_index)))
        #: (recover_s, node_index, slots) for nodes that will come back.
        pending_recovery: List[Tuple[float, int, Tuple[int, ...]]] = []
        requeue_counts: Dict[int, int] = {}
        fired: List[NodeFailure] = []

        def fire_due(now: float) -> None:
            """Apply every chaos/recovery event due at ``now``.

            Recoveries apply first so a node failing and recovering at the
            same instant nets out failed (the failure is the later event).
            A failure tears down every committed job overlapping it on a
            dead slot and re-queues it; the victim's bookings stay on the
            timeline as wasted work.
            """
            pending_recovery.sort()
            while pending_recovery and pending_recovery[0][0] <= now:
                recover_at, node, slots = pending_recovery.pop(0)
                state.failed_nodes.discard(node)
                state.failed_slots.difference_update(slots)
                if events is not None:
                    events.emit(
                        "node_recovery",
                        time_s=recover_at,
                        node=node,
                        slots=list(slots),
                    )
            while chaos_events and chaos_events[0].time_s <= now:
                event = chaos_events.popleft()
                slots = self._node_slots(event.node_index)
                if not slots:
                    continue  # inapplicable event (node index out of range)
                fired.append(event)
                state.failed_nodes.add(event.node_index)
                state.failed_slots.update(slots)
                if event.recover_s is not None:
                    pending_recovery.append((event.recover_s, event.node_index, slots))
                dead = set(slots)
                victims = [
                    r
                    for r in results.values()
                    if r.status is JobStatus.COMPLETED
                    and r.finish_s > event.time_s
                    and dead & set(r.device_slots)
                ]
                if events is not None:
                    events.emit(
                        "node_failure",
                        time_s=event.time_s,
                        node=event.node_index,
                        slots=list(slots),
                        victims=len(victims),
                    )
                for victim in victims:
                    job = victim.job
                    requeue_counts[job.job_id] = requeue_counts.get(job.job_id, 0) + 1
                    del results[job.job_id]
                    ledger = state.committed.pop(job.job_id, None)
                    if ledger is not None:
                        # A victim that started before the failure ran real
                        # (wasted) work; one committed for a post-failure
                        # start never did — retract its phantom dispatch.
                        self._revoke_events(
                            state,
                            ledger,
                            work_started=victim.stage_start_s < event.time_s,
                        )
                    geometry = job_geometry(job)
                    entry = self._preprocess(job, geometry, availability)
                    # Re-admission cannot predate the failure that caused it.
                    entry.ready_s = max(entry.ready_s, event.time_s)
                    entry.requeued = True
                    ready.append((self._queue_key(job), entry))
                    if events is not None:
                        events.emit(
                            "requeue",
                            time_s=event.time_s,
                            job_id=f"job{job.job_id}",
                            node=event.node_index,
                        )

        while pending or ready or chaos_events:
            fire_due(clock.now_s)
            self._admit(pending, ready, clock.now_s, results, availability, events)
            upcoming = [
                t
                for t in (
                    pending[0].arrival_s if pending else None,
                    chaos_events[0].time_s if chaos_events else None,
                    min(pending_recovery)[0] if pending_recovery else None,
                )
                if t is not None
            ]
            if not ready:
                if not upcoming:
                    break
                clock.advance_to(max(clock.now_s, min(upcoming)))
                continue
            # The next staging can begin when some live copy engine frees
            # (a lost node's idle engine stages nothing; with every node
            # down, any engine will do)...
            live = [lane for slot, lane in enumerate(state.copy) if slot not in state.failed_slots]
            t = max(clock.now_s, min(lane.free_s for lane in live or state.copy))
            # ...but arrivals and chaos/recovery events before that instant
            # reshape the queue (or the placement pool) first.
            blocker = min(upcoming, default=math.inf)
            if blocker <= t:
                clock.advance_to(max(clock.now_s, blocker))
                continue
            entry = self._pop_best_ready(ready, t)
            if entry is None:
                # Everyone queued is still preprocessing; advance to the
                # earliest readiness (or the next arrival/event).
                next_ready = min(e[1].ready_s for e in ready)
                clock.advance_to(min(next_ready, blocker))
                continue
            clock.advance_to(t)
            batch_seq = self._dispatch(entry, t, ready, results, state, batch_seq)

        overbooked = timeline.violations()
        if overbooked:
            raise RuntimeError(
                "scheduler run over-booked its timeline: "
                + ", ".join(
                    f"{key} busy {excess!r} s longer than the run"
                    for key, excess in sorted(overbooked.items())
                )
            )
        # Fold the span-tagged trace into the per-job cost breakdown.  The
        # fold reads the timeline; it never writes, so the schedule is
        # bit-identical with or without telemetry consumers.
        attribution = attribute(timeline)
        unreconciled = sorted(
            (cost.key, float(cost.gap_s))
            for cost in attribution.resources.values()
            if not cost.reconciles
        )
        if unreconciled:
            raise RuntimeError(
                "scheduler run's attribution does not reconcile: "
                + ", ".join(f"{key} gap {gap!r} s" for key, gap in unreconciled)
            )
        ordered = [
            replace(results[job_id], requeues=requeue_counts[job_id])
            if job_id in requeue_counts
            else results[job_id]
            for job_id in sorted(results)
        ]
        # Backfill the attributed fields on every completed result.
        for result in ordered:
            cost = attribution.jobs.get(f"job{result.job.job_id}")
            if result.completed and cost is not None:
                result.nic_wait_s = cost.nic_wait_s
                result.compute_s = cost.compute_s
                result.recovery_s = cost.recovery_s
        if metrics is not None:
            attribution.publish(metrics)
            queue_wait = metrics.histogram(
                "repro_job_queue_wait_seconds",
                "Simulated seconds completed jobs waited between arrival "
                "and staging.",
            )
            for result in ordered:
                if result.completed:
                    queue_wait.observe(result.queue_wait_s)
        return ScheduleOutcome(
            results=ordered,
            dispatches=state.dispatches,
            timeline=timeline,
            failures=fired,
            requeued_jobs=sum(requeue_counts.values()),
            preemptions=list(state.preemption_records),
            attribution=attribution,
        )

    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        entry: _ReadyEntry,
        t0: float,
        ready: List[Tuple[Tuple, _ReadyEntry]],
        results: Dict[int, JobResult],
        state: _RunState,
        batch_seq: int,
    ) -> int:
        job = entry.job
        geometry = entry.geometry
        placement = self.placer.place(
            geometry,
            [lane.free_s for lane in state.compute],
            t0,
            excluded_nodes=frozenset(state.failed_nodes),
            excluded_slots=frozenset(state.failed_slots),
        )
        if entry.launch is not None:
            placement = replace(
                placement, block_size=entry.launch[0], threadlen=entry.launch[1]
            )

        mates = [] if placement.sharded else self._pop_batch_mates(ready, job, t0)
        batch_id: Optional[int] = None
        if mates:
            batch_id = batch_seq
            batch_seq += 1

        outcome = self._execute_or_reject(entry, placement, t0, results, state)
        if outcome is None:
            for mate in mates:
                ready.append((self._queue_key(mate.job), mate))
            return batch_seq
        result = self._commit(
            entry,
            t0,
            placement,
            geometry,
            outcome,
            state,
            batch_id=batch_id,
            batch_leader=bool(mates),
            encoding_staged=True,
        )
        if (
            self.policy == "deadline"
            and math.isfinite(job.deadline_s)
            and result.finish_s > job.deadline_s
        ):
            # The deadline job would miss as booked: try to free its lanes
            # by preempting a committed batch job, then re-book.
            result = self._repreempt_and_recommit(
                entry,
                t0,
                placement,
                geometry,
                outcome,
                state,
                ready,
                results,
                result,
                batch_id=batch_id,
                batch_leader=bool(mates),
            )
        results[job.job_id] = result

        for mate in mates:
            # The batch shares the leader's encoding (already staged) and
            # device; only the mate's dense operands still move.
            mate_outcome = self._execute_or_reject(mate, placement, t0, results, state)
            if mate_outcome is None:
                continue
            results[mate.job.job_id] = self._commit(
                mate,
                t0,
                placement,
                geometry,
                mate_outcome,
                state,
                batch_id=batch_id,
                batch_leader=False,
                encoding_staged=False,
            )
        return batch_seq

    def _execute_or_reject(
        self,
        entry: _ReadyEntry,
        placement: Placement,
        t0: float,
        results: Dict[int, JobResult],
        state: _RunState,
    ) -> Optional[ExecutionOutcome]:
        """:meth:`_execute`, or ``None`` once a capacity failure has
        rejected ``entry``'s job.

        The admission estimate is first-order (autotune can raise the
        threadlen after sizing, and geometry is host arithmetic); a
        kernel-level capacity failure rejects this one job, a batch leader
        or a mate, instead of aborting the whole serving run.
        """
        job = entry.job
        try:
            return self._execute(entry, placement, state)
        except OutOfDeviceMemory as exc:
            results[job.job_id] = self._rejected(job, f"rejected at execution: {exc}")
            if state.events is not None:
                state.events.emit(
                    "reject",
                    time_s=t0,
                    job_id=f"job{job.job_id}",
                    reason="out_of_device_memory",
                )
            return None

    def _execute(
        self, entry: _ReadyEntry, placement: Placement, state: _RunState
    ) -> ExecutionOutcome:
        """``entry``'s job priced on ``placement``, with its numbers.

        A kernel job is priced first, so a placement that does not fit
        raises :class:`~repro.gpusim.timing.OutOfDeviceMemory` before any
        numeric work.  A decomposition's numbers come first: its modeled
        pass books as many sweeps as its numeric pass ran.  The numbers
        are computed at most once per run (``state.numerics``).
        """
        job = entry.job

        def numbers() -> Any:
            if job.job_id not in state.numerics:
                state.numerics[job.job_id] = execute_job(job, encodings=entry.encodings)
            return state.numerics[job.job_id]

        kwargs = dict(encodings=entry.encodings, metrics=state.metrics)
        if job.kind.is_kernel:
            outcome = price_job(job, placement, **kwargs)
            outcome.output = numbers()
            return outcome
        return price_job(job, placement, numbers(), **kwargs)

    # ------------------------------------------------------------------ #
    def _staging_seconds(
        self,
        job: Job,
        placement: Placement,
        geometry: JobGeometry,
        outcome: ExecutionOutcome,
        *,
        encoding_staged: bool,
    ) -> float:
        """Host-to-device staging time of one dispatched job.

        Resident jobs ship the F-COO arrays once plus the dense factor
        matrices (the output is produced on the device — it occupies
        memory there but never crosses PCIe, matching the CP engine's
        transfer accounting); a job that fell back to the streamed path
        re-ships its chunks inside the kernel (charged there), so only the
        factors stage here; batch mates reuse the leader's staged
        encoding.  CP jobs charge their transfer inside the engine setup
        (already part of ``exec_s``); Tucker has no setup accounting, so
        its worst-mode staging is charged here.
        """
        if outcome.execution == "decomposition":
            if job.kind is JobKind.TUCKER:
                return (
                    geometry.fcoo_bytes + geometry.factor_bytes
                ) / placement.primary_device.pcie_bandwidth_bytes_per_s
            return 0.0
        if placement.sharded:
            execution = getattr(outcome.profile, "sharded", None)
            if execution is None:
                return 0.0
            # Every device stages its own shard (plus its replica of the
            # dense factors) over its own host link, concurrently.  The
            # ledgers index the *execution* cluster — one node of the
            # serving cluster for a node-local shard.
            devices = placement.cluster.devices
            return max(
                (
                    (ledger.staged_bytes + geometry.factor_bytes)
                    / devices[ledger.index].pcie_bandwidth_bytes_per_s
                    for ledger in execution.shards
                ),
                default=0.0,
            )
        device = placement.device
        fcoo_bytes = geometry.fcoo_bytes if encoding_staged else 0.0
        if outcome.execution == "streamed":
            fcoo_bytes = 0.0
        return (fcoo_bytes + geometry.factor_bytes) / device.pcie_bandwidth_bytes_per_s

    def _commit(
        self,
        entry: _ReadyEntry,
        t0: float,
        placement: Placement,
        geometry: JobGeometry,
        outcome: ExecutionOutcome,
        state: _RunState,
        *,
        batch_id: Optional[int],
        batch_leader: bool,
        encoding_staged: bool,
    ) -> JobResult:
        """Book one executed job onto the shared timeline.

        Staging gang-books the placement's copy engines, execution books
        each device's compute engine for its actual busy seconds, and a
        sharded job's partial-output collective books the execution
        cluster's link/NIC resources after the slowest shard.  On idle
        resources the resolved times equal the pre-refactor closed forms
        bit for bit (``finish == exec_start + exec_s``); a collective that
        queues behind another job's on a shared NIC pushes the finish
        later — never earlier.  Every participating compute engine is held
        (a non-busy reservation) until the job completes, since the
        devices take part in the collective.
        """
        job = entry.job
        tag = f"job{job.job_id}"
        stage_s = self._staging_seconds(
            job, placement, geometry, outcome, encoding_staged=encoding_staged
        )
        slots = placement.device_slots
        copy_lanes = [state.copy[s] for s in slots]
        compute_lanes = [state.compute[s] for s in slots]

        stage = state.timeline.book_together(
            copy_lanes,
            stage_s,
            ready_s=max(t0, entry.ready_s),
            label=f"stage:{tag}",
            # A post-failure re-admission's re-staging is recovery overhead,
            # not first-run staging; the attribution fold keeps them apart.
            span=Span(
                tag,
                kernel=job.kind.value,
                phase="recovery" if entry.requeued else "stage",
            ),
        )
        stage_start, stage_end = stage.start_s, stage.end_s
        tracked: List[Booking] = list(stage.bookings)

        execution = getattr(outcome.profile, "sharded", None) if placement.sharded else None
        busy_by_slot: Dict[int, float]
        if placement.sharded:
            # The execution ledgers index the placement's cluster (a node
            # of the serving cluster for a node-local shard); translate the
            # local device indices to the serving cluster's flat slots.
            if execution is not None:
                busy_by_slot = {
                    slots[local]: busy
                    for local, busy in execution.device_times.items()
                }
            else:
                per_device = getattr(outcome.output, "device_time_by_device", None)
                busy_by_slot = (
                    {slots[local]: busy for local, busy in per_device.items()}
                    if per_device
                    else {s: outcome.exec_s for s in slots}
                )
        else:
            busy_by_slot = {slots[0]: outcome.exec_s}

        exec_start = stage_end
        for lane in compute_lanes:
            exec_start = max(exec_start, lane.free_s)
        for lane, slot in zip(compute_lanes, slots):
            busy = busy_by_slot.get(slot, 0.0)
            if busy > 0.0:
                tracked.append(
                    lane.book(
                        busy,
                        ready_s=exec_start,
                        label=f"exec:{tag}",
                        span=Span(tag, kernel=job.kind.value, phase="compute"),
                    )
                )

        # The idle-resource closed form; link/NIC contention can only delay it.
        finish = exec_start + outcome.exec_s
        if placement.sharded:
            if execution is not None:
                reduction_s = execution.reduction_time_s
                compute_span = execution.max_shard_time_s
                reduction_kind = execution.reduction_kind
            else:
                # A sharded decomposition: its per-mode collectives live on
                # the driver's own timeline (CPResult/TuckerResult carry
                # it); book their aggregate on the serving cluster's
                # link/NIC resources so decomposition jobs contend for a
                # shared NIC exactly like kernel jobs do.  One tail
                # booking is the job-level granularity the scheduler
                # prices everything else at.
                result_timeline = getattr(outcome.output, "timeline", None)
                reduction_s = (
                    sum(
                        e.duration_s
                        for e in result_timeline.events
                        if e.busy and e.category in ("link", "nic")
                    )
                    if result_timeline is not None
                    else 0.0
                )
                compute_span = outcome.exec_s - reduction_s
                reduction_kind = "collectives"
        else:
            reduction_s = 0.0
            compute_span = outcome.exec_s
        if reduction_s > 0.0 and placement.cluster is not None:
            compute_end = exec_start + compute_span
            resources = placement.cluster.collective_resources(state.timeline)
            red_start = compute_end
            for resource in resources:
                red_start = max(red_start, resource.free_s)
            if red_start > compute_end:
                # The collective queued behind another job's on a shared
                # link/NIC: the whole job completes later.
                finish = red_start + reduction_s
            collective = state.timeline.book_together(
                resources,
                finish - red_start,
                ready_s=red_start,
                label=f"{reduction_kind}:{tag}",
                span=Span(tag, kernel=job.kind.value, phase="collective"),
                # The job was NIC-ready the moment its compute drained;
                # ``red_start - compute_end`` is pure shared-NIC queueing and
                # lands in the per-job ``nic_wait_s`` breakdown.
                queued_from_s=compute_end,
            )
            tracked.extend(collective.bookings)
        # Hold every participating compute engine to the job's completion
        # (the devices take part in the collective; nothing else may slot in).
        for lane in compute_lanes:
            if finish > lane.free_s:
                tracked.append(
                    lane.book(
                        finish - lane.free_s,
                        ready_s=lane.free_s,
                        label=f"barrier:{tag}",
                        busy=False,
                    )
                )
        for slot in slots:
            state.dispatches[slot] += 1

        start_event = complete_event = None
        if state.events is not None:
            start_event = state.events.emit(
                "dispatch",
                time_s=stage_start,
                job_id=tag,
                slots=list(slots),
                execution=outcome.execution,
                batch_id=batch_id,
            )
            complete_event = state.events.emit(
                "complete",
                time_s=finish,
                job_id=tag,
                execution=outcome.execution,
                exec_s=outcome.exec_s,
            )
        state.committed[job.job_id] = _CommittedJob(
            entry=entry,
            placement=placement,
            bookings=tracked,
            stage_booking=stage.bookings[0] if len(stage.bookings) == 1 else None,
            finish_s=finish,
            batch_id=batch_id,
            start_event=start_event,
            complete_event=complete_event,
        )
        return JobResult(
            job=job,
            status=JobStatus.COMPLETED,
            output=outcome.output,
            device_slots=slots,
            execution=outcome.execution,
            encode_cache_hit=entry.encode_hit,
            tuner_cache_hit=entry.tuner_hit,
            batch_id=batch_id,
            batch_leader=batch_leader,
            preproc_s=entry.preproc_s,
            stage_s=stage_s,
            exec_s=outcome.exec_s,
            stage_start_s=stage_start,
            exec_start_s=exec_start,
            finish_s=finish,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            placement=placement,
            preemptions=entry.preemptions,
            preempted_s=(
                max(0.0, stage_start - entry.preempted_from_s)
                if entry.preemptions
                else 0.0
            ),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _revoke_events(
        state: _RunState, committed: _CommittedJob, *, work_started: bool
    ) -> None:
        """Retract a revoked commitment's provisional log events.

        The stale ``complete`` always goes (the job did not finish as
        booked); the ``dispatch`` marker stays only when device work
        genuinely began before the revocation — a real partial run (a
        staging cut by preemption, work torn off a failed node) is history,
        a never-started booking is not.
        """
        if state.events is None:
            return
        if committed.complete_event is not None:
            state.events.retract(committed.complete_event)
        if not work_started and committed.start_event is not None:
            state.events.retract(committed.start_event)

    # ------------------------------------------------------------------ #
    # Preemption (policy="deadline")
    # ------------------------------------------------------------------ #
    def _repreempt_and_recommit(
        self,
        entry: _ReadyEntry,
        t0: float,
        placement: Placement,
        geometry: JobGeometry,
        outcome: ExecutionOutcome,
        state: _RunState,
        ready: List[Tuple[Tuple, _ReadyEntry]],
        results: Dict[int, JobResult],
        first_result: JobResult,
        *,
        batch_id: Optional[int],
        batch_leader: bool,
    ) -> JobResult:
        """Try to rescue a deadline job that would miss as first booked.

        The job's own (just-made) bookings are released, one committed
        batch victim sharing its device slots is preempted, and the job is
        re-committed onto the freed lanes.  When no victim qualifies (or
        none is releasable) the release/re-commit round-trips to the exact
        original booking — :meth:`~repro.gpusim.timeline.Timeline.release`
        restores every lane horizon, so the re-booked times are identical.
        """
        job = entry.job
        own = state.committed.pop(job.job_id)
        candidates = sorted(
            (
                c
                for jid, c in state.committed.items()
                if jid in results
                and c.finish_s > t0
                and c.batch_id is None
                and c.entry.job.preemptible
                and not math.isfinite(c.entry.job.deadline_s)
                and set(c.placement.device_slots) & set(placement.device_slots)
            ),
            # Latest-finishing victim first: it holds the most future time.
            key=lambda c: (-c.finish_s, c.entry.job.job_id),
        )
        if candidates:
            state.timeline.release(own.bookings)
            # The trial booking is fully revoked (nothing ran yet — this
            # all happens at dispatch time); the re-commit re-emits.
            self._revoke_events(state, own, work_started=False)
            for cand in candidates:
                if self._preempt_victim(cand, t0, job, state, ready, results):
                    break
            return self._commit(
                entry,
                t0,
                placement,
                geometry,
                outcome,
                state,
                batch_id=batch_id,
                batch_leader=batch_leader,
                encoding_staged=True,
            )
        state.committed[job.job_id] = own
        return first_result

    def _preempt_victim(
        self,
        cand: _CommittedJob,
        t: float,
        by: Job,
        state: _RunState,
        ready: List[Tuple[Tuple, _ReadyEntry]],
        results: Dict[int, JobResult],
    ) -> bool:
        """Preempt one committed job at ``t``; ``False`` leaves it untouched.

        Two shapes are releasable; everything else (any job caught
        mid-compute — one-shot, streamed or sharded — and a sharded job's
        gang staging in flight) is skipped:

        * nothing in flight — every booking from ``t`` on is released (a
          staging that already finished stays as sunk cost);
        * caught mid-staging — the stage booking is cut at ``t`` (shipped
          bytes are sunk cost) and the rest released.

        Either way the victim re-queues to re-dispatch from scratch.  Every
        mutation is pre-verified against
        :meth:`~repro.gpusim.timeline.Resource.is_tail`, so a victim whose
        lanes have later bookings (e.g. behind another job's barrier) is
        simply not preemptible rather than corrupting the timeline.
        """
        victim = cand.entry.job
        timeline = state.timeline
        lanes: Dict[str, Resource] = {}
        for slot in cand.placement.device_slots:
            for lane in (state.copy[slot], state.compute[slot]):
                lanes[lane.key] = lane
        if cand.placement.cluster is not None:
            for lane in cand.placement.cluster.collective_resources(timeline):
                lanes[lane.key] = lane
        if any(b.resource not in lanes for b in cand.bookings):
            return False  # defensive: a booking on a lane we cannot verify

        future = [b for b in cand.bookings if b.start_s >= t]
        straddle = [b for b in cand.bookings if b.start_s < t < b.end_s]
        if len(straddle) > 1 or (not future and not straddle):
            return False
        cut = straddle[0] if straddle else None
        if cut is not None and cut is not cand.stage_booking:
            return False

        # Pre-verify releasability on every touched lane before mutating.
        by_lane: Dict[str, List[Booking]] = {}
        for booking in future:
            by_lane.setdefault(booking.resource, []).append(booking)
        for key, group in by_lane.items():
            check = list(group)
            if cut is not None and cut.resource == key:
                check.append(cut)
            if not lanes[key].is_tail(check):
                return False
        if cut is not None and cut.resource not in by_lane:
            if lanes[cut.resource].last_booking is not cut:
                return False

        released = timeline.release(future) if future else 0.0
        if cut is not None:
            released += cut.end_s - t
            timeline.truncate(cut, t)

        entry = cand.entry
        entry.ready_s = max(entry.ready_s, t)
        entry.preemptions += 1
        entry.preempted_from_s = t
        ready.append((self._queue_key(victim), entry))
        record = PreemptionRecord(
            job_id=victim.job_id,
            preempted_by=by.job_id,
            time_s=t,
            released_s=released,
        )
        state.preemption_records.append(record)
        if state.events is not None:
            state.events.emit(
                "preempt",
                time_s=t,
                job_id=f"job{victim.job_id}",
                preempted_by=f"job{by.job_id}",
                released_s=released,
            )
        # A cut staging genuinely started (the dispatch stands as history);
        # a full release never did.
        self._revoke_events(state, cand, work_started=cut is not None)
        del results[victim.job_id]
        del state.committed[victim.job_id]
        return True
