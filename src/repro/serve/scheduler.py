"""Event-driven multi-tenant scheduler over the simulated cluster.

The scheduler turns a stream of :class:`~repro.serve.job.Job` s into a
deterministic simulated-time schedule:

* **admission** — on arrival a job is either shed (optional queue-depth
  bound: a full queue rejects newcomers instead of growing without bound),
  rejected by memory admission control *before* any preprocessing is spent
  (a job whose resident dense operands cannot fit next to two minimal
  streamed chunk buffers on any device — see
  :meth:`~repro.serve.placement.Placer.admit`), or preprocessed: its F-COO
  encoding (and, with ``autotune``, its tuned launch parameters) come from
  the shared :class:`~repro.serve.cache.PreprocCache`.  Preprocessing is
  host work done tenant-side and overlaps freely across jobs; a cache miss
  delays only that job's stage-readiness, never the cluster.

* **queueing** — admitted jobs wait in a priority queue
  (``policy="priority"``: lower priority class first, FIFO within a class;
  ``policy="fifo"``: strict arrival order; ``policy="deadline"``:
  earliest-deadline-first over the jobs' :class:`~repro.context.SLO`
  deadlines, then priority class — on a workload without SLOs every
  deadline is ``inf`` and the policy degenerates to ``"priority"``
  bit for bit).

* **preemption** — under ``policy="deadline"``, a dispatched job that
  would miss its deadline may preempt one committed batch job
  (preemptible, no deadline of its own) sharing its device slots: the
  victim's not-yet-consumed timeline bookings are *released* back to the
  resource pool (:meth:`~repro.gpusim.timeline.Timeline.release`), a
  streamed victim's in-flight compute booking is *truncated* at the next
  chunk boundary (:meth:`~repro.gpusim.timeline.Timeline.truncate` — the
  streamed pipeline's natural checkpoint), and the victim re-queues with
  a resume ledger: its already-computed output, its completed-chunk
  count, and the remaining pipeline re-booked later under
  ``resume:jobN`` labels (plus a factor re-stage).  Outputs are
  bit-identical with or without preemption — the numeric result was
  computed once and only *time* is replayed.

* **autoscaling** — an optional :class:`~repro.serve.autoscale.Autoscaler`
  grows and shrinks the active slot pool against queue depth and engine
  idleness; parked slots are excluded from placement exactly like failed
  nodes.

* **dispatch** — a job is dispatched when a copy engine frees *and* the job
  is stage-ready, so its staging overlaps the predecessor's compute.
  Arrivals earlier than the dispatch instant always enter the queue first,
  so a late high-priority job overtakes queued batch work; a job still
  preprocessing never blocks stage-ready ones.

* **batching** — compatible stage-ready jobs (same tensor content,
  operation, mode and rank — i.e. the same F-COO encoding and launch
  geometry) ride one dispatch: the encoding is staged once for the whole
  batch and the members execute back to back on the batch's device.
  Batching changes *when* work runs, never *what* it computes.

* **pricing and numerics** — every dispatch prices the job on its
  placement with the cost model alone
  (:func:`~repro.serve.execute.price_job`).  A job's numbers do not depend
  on its placement, so :func:`~repro.serve.execute.execute_job` computes
  them at most once per run: re-dispatches after a preemption or a node
  loss, and the hedged engine's trial runs, reuse them.

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
    NIC_POLICIES,
    Booking,
    CollectiveRequest,
    NicDiscipline,
    Resource,
    Span,
    Timeline,
    device_compute_key,
    device_copy_key,
    make_nic_discipline,
    schedule_chunks,
)
from repro.gpusim.timing import OutOfDeviceMemory
from repro.obs.attribution import Attribution, attribute
from repro.obs.events import Event, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.autoscale import Autoscaler, AutoscalerSpec, ScaleEvent
from repro.serve.cache import PreprocCache
from repro.serve.execute import ExecutionOutcome, execute_job, price_job
from repro.serve.feedback import ObservationStore
from repro.serve.job import Job, JobKind, JobResult, JobStatus
from repro.serve.placement import JobGeometry, Placement, Placer, job_geometry

__all__ = [
    "PreemptionRecord",
    "ScheduleOutcome",
    "Scheduler",
]


@dataclass(frozen=True)
class PreemptionRecord:
    """One preemption: who was cut, by whom, where, and what it freed.

    ``time_s`` is the *cut point* — the chunk boundary a streamed victim
    was checkpointed at (or the preemption instant for a victim caught
    before compute).  ``released_s`` is the busy time given back to the
    resource pool, and ``resume_stage_s`` the factor re-staging the
    victim pays when it resumes.
    """

    job_id: int
    preempted_by: int
    time_s: float
    completed_chunks: int
    total_chunks: int
    released_s: float
    resume_stage_s: float


@dataclass(frozen=True)
class _ResumeState:
    """A preempted streamed job's resume ledger.

    The output was already computed (numbers do not depend on the
    placement), so resuming re-books only *time*: the remaining chunks'
    pipeline on the original placement, plus a factor re-stage.
    """

    placement: Placement
    outcome: ExecutionOutcome
    completed_chunks: int
    total_chunks: int
    remaining_exec_s: float
    resume_stage_s: float


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
    #: Preemption bookkeeping: times preempted so far, the last cut point,
    #: and — for a checkpointed streamed victim — the resume ledger
    #: (``None`` re-dispatches from scratch).
    preemptions: int = 0
    preempted_from_s: float = 0.0
    resume: Optional[_ResumeState] = None
    #: Whether this entry is a post-failure re-admission — its re-staging
    #: is attributed to the ``recovery`` span phase rather than ``stage``.
    requeued: bool = False


@dataclass
class _CommittedJob:
    """The booking ledger of one committed (dispatched) job.

    What preemption needs: every timeline booking the commit made, in
    booking order, plus the stage/exec bookings singled out so the
    preemptor can tell "caught mid-staging" from "caught mid-compute".
    """

    entry: _ReadyEntry
    placement: Placement
    outcome: ExecutionOutcome
    bookings: List[Booking]
    stage_booking: Optional[Booking]  # single-lane stage (non-sharded)
    exec_booking: Optional[Booking]  # single-lane compute (non-sharded)
    exec_start_s: float
    finish_s: float
    batch_id: Optional[int]
    resumed: bool = False
    # The provisional log events this commitment emitted (timestamps lie in
    # the committed future).  Revoking the commitment — trial re-book,
    # preemption, chaos teardown — must retract the stale ones.
    start_event: Optional[Event] = None  # "dispatch" or "resume"
    complete_event: Optional[Event] = None


@dataclass
class _DisplacedCollective:
    """A queued collective pulled off the timeline by the NIC discipline.

    The incumbent's gang (and the barrier reservations pinned to it) have
    been released; after the overtaking job books its own collective, the
    incumbent is re-booked from this record — same label, span and
    duration, same ``queued_from_s`` (its compute drain instant), so the
    extra delay lands in its ``nic_wait_s`` attribution.
    """

    committed: _CommittedJob
    label: str
    span: Optional[Span]
    duration_s: float
    queued_from_s: float


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
    #: Slots parked by the autoscaler (empty without one).
    parked_slots: set = field(default_factory=set)
    #: Per-job booking ledgers of committed runs (keyed by job id) — what
    #: the deadline policy preempts from.
    committed: Dict[int, _CommittedJob] = field(default_factory=dict)
    #: Preemptions performed, in firing order.
    preemption_records: List[PreemptionRecord] = field(default_factory=list)
    #: Telemetry sinks of the run (both optional; observation-only).
    metrics: Optional[MetricsRegistry] = None
    events: Optional[EventLog] = None
    #: The run's NIC queue discipline (``None`` under the default FIFO,
    #: which keeps the legacy booking path byte-identical).
    discipline: Optional[NicDiscipline] = None
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
    #: Autoscaler actions, in firing order (empty without an autoscaler).
    scale_events: List[ScaleEvent] = field(default_factory=list)
    #: The span-folded cost breakdown of the run's timeline (per-job and
    #: per-resource attributed seconds; see :mod:`repro.obs.attribution`).
    attribution: Optional[Attribution] = field(default=None, repr=False)

    @property
    def makespan_s(self) -> float:
        """Completion time of the last job (0 for an all-rejected run)."""
        return max((r.finish_s for r in self.results if r.completed), default=0.0)

    @property
    def recoveries(self) -> List[NodeFailure]:
        """Fired chaos events whose node came back (the
        :class:`~repro.context.TimedResult` recovery ledger)."""
        return [e for e in self.failures if e.recover_s is not None]


class Scheduler:
    """Deterministic simulated-time scheduler for one serving cluster.

    Parameters
    ----------
    cluster:
        The serving cluster.
    cache:
        Shared preprocessing cache (encodings + tuned launch configs).
    policy:
        ``"priority"`` (default), ``"fifo"`` or ``"deadline"``
        (earliest-deadline-first with chunk-boundary preemption; see the
        module docstring).
    max_batch:
        Largest batch of compatible jobs per dispatch (1 disables batching).
    max_queue_depth:
        Queue bound for admission-time load shedding (``None``: unbounded).
    block_size / threadlen:
        Default launch parameters (overridden per job by the tuner cache
        when ``autotune`` is on).
    autotune:
        Look up tuned ``(BLOCK_SIZE, threadlen)`` per kernel-job shape in
        the cache (sweeping on a miss, reusing on a hit); tuning runs on
        the cluster's most capable device.
    num_streams:
        Stream count for the kernels' out-of-core fallback.
    autoscale:
        Optional :class:`~repro.serve.autoscale.AutoscalerSpec`; ``None``
        (the default) keeps the legacy fixed pool byte-identical.
    adaptive:
        Feed the :class:`~repro.serve.feedback.ObservationStore` back into
        placement (congestion-aware blended scores) and the tuner cache
        (observed-time re-ranking).  With no observations recorded yet the
        adaptive paths fall back *exactly* to the static ones, so a cold
        adaptive run is event-for-event identical to a static run.
    observations:
        The cross-run :class:`~repro.serve.feedback.ObservationStore`.
        When set, every run folds its completed jobs' attributed costs in
        (recording is independent of ``adaptive``, which only *consumes*).
    nic_policy:
        NIC queue discipline for queued collectives (one of
        :data:`~repro.gpusim.timeline.NIC_POLICIES`).  ``"fifo"`` (the
        default) keeps arrival order and the legacy booking path;
        ``"fair"`` / ``"priority"`` may let a queued collective overtake
        another *queued* (never in-flight) one, when the swap is feasible
        without disturbing any third job's bookings.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        cache: Optional[PreprocCache] = None,
        *,
        policy: str = "priority",
        max_batch: int = 4,
        max_queue_depth: Optional[int] = None,
        block_size: int = 128,
        threadlen: int = 8,
        autotune: bool = False,
        num_streams: int = 2,
        autoscale: Optional[AutoscalerSpec] = None,
        adaptive: bool = False,
        observations: Optional[ObservationStore] = None,
        nic_policy: str = "fifo",
    ) -> None:
        if policy not in ("priority", "fifo", "deadline"):
            raise ValueError(
                f"policy must be 'priority', 'fifo' or 'deadline', got {policy!r}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be at least 1, got {max_queue_depth}"
            )
        if nic_policy not in NIC_POLICIES:
            raise ValueError(
                f"nic_policy must be one of {NIC_POLICIES}, got {nic_policy!r}"
            )
        self.cluster = cluster
        self.cache = cache if cache is not None else PreprocCache()
        self.policy = policy
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.autotune = autotune
        self.num_streams = num_streams
        self.autoscale = autoscale
        self.adaptive = adaptive
        self.observations = observations
        self.nic_policy = nic_policy
        self.placer = Placer(
            cluster,
            block_size=block_size,
            threadlen=threadlen,
            num_streams=num_streams,
            adaptive=adaptive,
            observations=observations,
        )
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
        if job.kind.is_kernel:
            key = (job.tensor.content_key, job.operation.value, job.mode)
            encoding, encode_hit, preproc_s = self.cache.encoding(
                job.tensor, job.operation, job.mode
            )
            encodings[job.mode] = encoding
            if encode_hit:
                ready_s = max(ready_s, availability.get(key, job.arrival_s))
            else:
                availability[key] = job.arrival_s + preproc_s
                ready_s = availability[key]
            if self.autotune:
                launch, tuner_hit, tune_s = self.cache.tuner_config(
                    job.tensor,
                    job.operation,
                    job.mode,
                    job.rank,
                    device=self._tuner_device,
                    encoding=encoding,
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
                if tuner_hit and self.adaptive and self.observations is not None:
                    # Feedback half of the tuner: a cached config whose
                    # observed execution time drifted past the tolerance
                    # is re-ranked against the stored prediction surface.
                    # Pure cache bookkeeping — no extra host seconds, no
                    # readiness change.
                    observed = self.observations.expected_exec_any(
                        job.kind.value, job.tensor.content_key
                    )
                    if observed is not None:
                        launch, _ = self.cache.rerank_tuner_config(
                            job.tensor,
                            job.operation,
                            job.mode,
                            job.rank,
                            device=self._tuner_device,
                            observed_s=observed,
                        )
        else:
            # Every mode the decomposition will sweep; the misses are this
            # job's preprocessing bill.
            encode_hit, preproc_s = True, 0.0
            for mode in range(job.tensor.order):
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
        """Process arrivals up to ``clock``: shed, reject or preprocess."""
        while pending and pending[0].arrival_s <= clock:
            job = pending.popleft()
            if self.max_queue_depth is not None and len(ready) >= self.max_queue_depth:
                results[job.job_id] = self._rejected(
                    job,
                    f"queue full ({self.max_queue_depth} jobs waiting) at arrival",
                )
                if events is not None:
                    events.emit(
                        "reject",
                        time_s=job.arrival_s,
                        job_id=f"job{job.job_id}",
                        reason="queue_full",
                    )
                continue
            geometry = job_geometry(job, threadlen=self.placer.threadlen)
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
        """Extract up to ``max_batch - 1`` stage-ready jobs batchable with
        ``leader``."""
        if self.max_batch <= 1 or not leader.kind.is_kernel:
            return []
        matching = sorted(
            (
                entry
                for entry in ready
                # The mate must itself be a kernel job: a decomposition on
                # the same tensor shares the leader's batch_key (CP-ALS
                # preprocesses the SpMTTKRP encoding) but is not one kernel
                # invocation and must keep its own placement.
                if entry[1].job.kind.is_kernel
                and entry[1].job.batch_key == leader.batch_key
                and entry[1].ready_s <= t
            ),
            key=lambda entry: entry[0],
        )
        take = matching[: self.max_batch - 1]
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
        numerics: Optional[Dict[int, Any]] = None,
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

        ``numerics`` maps job ids to their numbers
        (:func:`~repro.serve.execute.execute_job`), filled on first use:
        every dispatch of a job, a re-queued or preempted one's included,
        reuses them.  Pass one dict to several runs of the same jobs to
        compute each job's numbers once across them; a fresh one is used
        when it is ``None``.
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
            # FIFO keeps the legacy path: no discipline object at all, so
            # the collective booking arithmetic is untouched line for line.
            discipline=(
                make_nic_discipline(self.nic_policy)
                if self.nic_policy != "fifo"
                else None
            ),
            numerics=numerics if numerics is not None else {},
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
                    geometry = job_geometry(job, threadlen=self.placer.threadlen)
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

        scaler = (
            Autoscaler(self.autoscale, self.placer.scores)
            if self.autoscale is not None
            else None
        )
        if scaler is not None:
            state.parked_slots = set(scaler.parked)

        scale_seen = 0
        while pending or ready or chaos_events:
            fire_due(clock.now_s)
            self._admit(pending, ready, clock.now_s, results, availability, events)
            if scaler is not None:
                scaler.step(
                    clock.now_s,
                    len(ready),
                    [lane.free_s for lane in state.copy],
                    [lane.free_s for lane in state.compute],
                )
                state.parked_slots = set(scaler.parked)
                if events is not None:
                    for scale in scaler.events[scale_seen:]:
                        events.emit(
                            "scale",
                            time_s=scale.time_s,
                            action=scale.action,
                            slot=scale.slot,
                            active_devices=scale.active_devices,
                        )
                scale_seen = len(scaler.events)
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
            # The next staging can begin when some active copy engine frees...
            active_copy = [
                lane
                for slot, lane in enumerate(state.copy)
                if slot not in state.parked_slots
            ] or state.copy
            t = max(clock.now_s, min(lane.free_s for lane in active_copy))
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

        ordered = [
            replace(results[job_id], requeues=requeue_counts[job_id])
            if job_id in requeue_counts
            else results[job_id]
            for job_id in sorted(results)
        ]
        # Fold the span-tagged trace into the per-job cost breakdown and
        # backfill the attributed fields on every completed result.  The
        # fold reads the timeline; it never writes, so the schedule is
        # bit-identical with or without telemetry consumers.
        attribution = attribute(timeline)
        for result in ordered:
            cost = attribution.jobs.get(f"job{result.job.job_id}")
            if result.completed and cost is not None:
                result.nic_wait_s = cost.nic_wait_s
                result.compute_s = cost.compute_s
                result.preemption_overhead_s = cost.preemption_overhead_s
        if self.observations is not None:
            # Close the loop: fold every completed job's attributed cost
            # and per-resource waits into the cross-run observation store.
            # Recording happens regardless of ``adaptive`` (which only
            # gates consumption), so a static run still warms the store.
            device_node = self.cluster.device_node
            for result in ordered:
                if not result.completed:
                    continue
                slots = result.device_slots
                self.observations.record(
                    kind=result.job.kind.value,
                    content_key=result.job.tensor.content_key,
                    device_names=[self.cluster.devices[s].name for s in slots],
                    slots=slots,
                    nodes=sorted({device_node[s] for s in slots}),
                    exec_s=result.exec_s,
                    device_wait_s=max(
                        0.0,
                        result.exec_start_s
                        - (result.stage_start_s + result.stage_s),
                    ),
                    nic_wait_s=result.nic_wait_s,
                )
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
            gangs = {
                e.label
                for e in timeline.events
                if e.busy
                and e.category in ("link", "nic")
                and e.span is not None
                and e.span.phase == "collective"
            }
            metrics.counter(
                "repro_nic_discipline_dispatch_total",
                "Collective gang dispatches through the NIC queue, by "
                "discipline.",
                ("policy",),
            ).inc(float(len(gangs)), policy=self.nic_policy)
        return ScheduleOutcome(
            results=ordered,
            dispatches=state.dispatches,
            timeline=timeline,
            failures=fired,
            requeued_jobs=sum(requeue_counts.values()),
            preemptions=list(state.preemption_records),
            scale_events=list(scaler.events) if scaler is not None else [],
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
        if entry.resume is not None and self._dispatch_resume(
            entry, t0, results, state
        ):
            return batch_seq
        placement = self.placer.place(
            job,
            geometry,
            [lane.free_s for lane in state.compute],
            t0,
            excluded_nodes=frozenset(state.failed_nodes),
            excluded_slots=frozenset(state.failed_slots | state.parked_slots),
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

        try:
            outcome = self._execute(entry, placement, state)
        except OutOfDeviceMemory as exc:
            # The admission estimate is first-order (autotune can raise the
            # threadlen after sizing, and geometry is host arithmetic); a
            # kernel-level capacity failure rejects this one job instead of
            # aborting the whole serving run.
            results[job.job_id] = self._rejected(
                job, f"rejected at execution: {exc}"
            )
            if state.events is not None:
                state.events.emit(
                    "reject",
                    time_s=t0,
                    job_id=f"job{job.job_id}",
                    reason="out_of_device_memory",
                )
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
            results=results,
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
            results[mate.job.job_id] = self._commit(
                mate,
                t0,
                placement,
                geometry,
                self._execute(mate, placement, state),
                state,
                batch_id=batch_id,
                batch_leader=False,
                encoding_staged=False,
                results=results,
            )
        return batch_seq

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

        kwargs = dict(
            encodings=entry.encodings,
            num_streams=self.num_streams,
            metrics=state.metrics,
        )
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
        results: Optional[Dict[int, JobResult]] = None,
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
        exec_bookings: List[Booking] = []

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
                exec_bookings.append(
                    lane.book(
                        busy,
                        ready_s=exec_start,
                        label=f"exec:{tag}",
                        span=Span(tag, kernel=job.kind.value, phase="compute"),
                    )
                )
        tracked.extend(exec_bookings)

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
            displaced: Optional[_DisplacedCollective] = None
            request: Optional[CollectiveRequest] = None
            if state.discipline is not None:
                request = CollectiveRequest(
                    job_id=job.job_id,
                    duration_s=reduction_s,
                    priority=job.priority,
                    has_deadline=math.isfinite(job.deadline_s),
                )
                displaced = self._displace_collective(
                    state, resources, compute_end, request
                )
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
            if state.discipline is not None and request is not None:
                state.discipline.note_dispatch(request)
            if displaced is not None:
                # Put the overtaken collective back, now behind ours.
                self._rebook_displaced(state, results, displaced)
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
            detail: Dict[str, object] = dict(
                time_s=stage_start,
                job_id=tag,
                slots=list(slots),
                execution=outcome.execution,
                batch_id=batch_id,
            )
            rationale = self.placer.last_rationale
            if self.adaptive and rationale is not None:
                # Placement rationale (record-only): the chosen slot's
                # blended score, the static roofline score it would have
                # had, and the observed congestion folded in.  Emitted only
                # on adaptive runs, so static event logs are byte-identical
                # to earlier releases.
                detail["blended_score_s"] = rationale["blended_score_s"]
                detail["static_score_s"] = rationale["static_score_s"]
                detail["observed_congestion_s"] = rationale[
                    "observed_congestion_s"
                ]
            start_event = state.events.emit("dispatch", **detail)
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
            outcome=outcome,
            bookings=tracked,
            stage_booking=stage.bookings[0] if len(stage.bookings) == 1 else None,
            exec_booking=exec_bookings[0] if len(exec_bookings) == 1 else None,
            exec_start_s=exec_start,
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
    # NIC queue disciplines (nic_policy="fair" / "priority")
    # ------------------------------------------------------------------ #
    def _displace_collective(
        self,
        state: _RunState,
        resources: Sequence[Resource],
        compute_end: float,
        request: CollectiveRequest,
    ) -> Optional[_DisplacedCollective]:
        """Pull the queued collective ahead of ours off the NIC, if the
        discipline says we overtake it and the surgery is feasible.

        Strictly best-effort, with every guard erring toward "do nothing"
        (which keeps the FIFO order and is always sound):

        * the newest booking on *every* contended link/NIC resource must
          belong to one gang — one committed job's collective — that has
          not started by the time our compute drains (a collective in
          flight is never reordered);
        * the discipline must rank our request *strictly* ahead of the
          incumbent's (ties keep arrival order, so the schedule stays
          deterministic);
        * the incumbent's gang bookings and the ``barrier:`` reservations
          pinned to its finish must all be tail bookings of their lanes —
          releasing them must not strand any third job's bookings.

        On success the incumbent's gang and barriers are *released* (its
        result/ledger updated by :meth:`_rebook_displaced` after the caller
        books its own collective into the freed window) and the released
        ledger is returned; any failed guard returns ``None``.
        """
        discipline = state.discipline
        if discipline is None:
            return None
        tails = [r.last_booking for r in resources]
        if not tails or any(b is None for b in tails):
            return None
        first = tails[0]
        if (
            first.span is None
            or first.span.phase != "collective"
            or any(b.label != first.label for b in tails)
            or len({(b.start_s, b.end_s) for b in tails}) != 1
        ):
            return None
        if first.start_s < compute_end:
            return None  # already in flight when our collective is ready
        inc_tag = first.span.job_id
        if not inc_tag.startswith("job"):
            return None
        try:
            inc_id = int(inc_tag[3:])
        except ValueError:
            return None
        if inc_id == request.job_id:
            return None
        inc = state.committed.get(inc_id)
        if inc is None:
            return None
        inc_job = inc.entry.job
        incumbent = CollectiveRequest(
            job_id=inc_id,
            duration_s=first.end_s - first.start_s,
            priority=inc_job.priority,
            has_deadline=math.isfinite(inc_job.deadline_s),
        )
        if not discipline.precedes(request, incumbent):
            return None
        gang = [b for b in inc.bookings if b.label == first.label]
        if {id(b) for b in gang} != {id(b) for b in tails}:
            return None  # the tails are not exactly the incumbent's gang
        barriers = [
            b for b in inc.bookings if b.label == f"barrier:{inc_tag}"
        ]
        lanes: Dict[str, Resource] = {r.key: r for r in resources}
        for slot in inc.placement.device_slots:
            lane = state.compute[slot]
            lanes[lane.key] = lane
        to_release = gang + barriers
        by_lane: Dict[str, List[Booking]] = {}
        for booking in to_release:
            by_lane.setdefault(booking.resource, []).append(booking)
        for key, group in by_lane.items():
            lane = lanes.get(key)
            if lane is None or not lane.is_tail(group):
                return None
        state.timeline.release(to_release)
        removed = {id(b) for b in to_release}
        inc.bookings = [b for b in inc.bookings if id(b) not in removed]
        if state.events is not None:
            state.events.emit(
                "nic_reorder",
                time_s=compute_end,
                job_id=f"job{request.job_id}",
                displaced=inc_tag,
                policy=discipline.policy,
            )
        return _DisplacedCollective(
            committed=inc,
            label=first.label,
            span=first.span,
            duration_s=incumbent.duration_s,
            queued_from_s=first.ready_s,
        )

    def _rebook_displaced(
        self,
        state: _RunState,
        results: Optional[Dict[int, JobResult]],
        disp: _DisplacedCollective,
    ) -> None:
        """Re-book a displaced incumbent's collective behind the overtaker.

        Same label, span, duration and ``queued_from_s`` as the released
        gang — only the start moves (to the overtaking collective's end),
        so the added delay lands in the incumbent's ``nic_wait_s``.  The
        barrier reservations holding its compute lanes are re-extended to
        the new finish, and its ledger, result and provisional ``complete``
        event are updated in place.
        """
        inc = disp.committed
        gang = state.timeline.book_together(
            inc.placement.cluster.collective_resources(state.timeline),
            disp.duration_s,
            ready_s=disp.queued_from_s,
            label=disp.label,
            span=disp.span,
            queued_from_s=disp.queued_from_s,
        )
        inc.bookings.extend(gang.bookings)
        finish = gang.end_s
        inc_tag = f"job{inc.entry.job.job_id}"
        for slot in inc.placement.device_slots:
            lane = state.compute[slot]
            if finish > lane.free_s:
                inc.bookings.append(
                    lane.book(
                        finish - lane.free_s,
                        ready_s=lane.free_s,
                        label=f"barrier:{inc_tag}",
                        busy=False,
                    )
                )
        inc.finish_s = finish
        jid = inc.entry.job.job_id
        if results is not None and jid in results:
            results[jid] = replace(results[jid], finish_s=finish)
        if state.events is not None and inc.complete_event is not None:
            state.events.retract(inc.complete_event)
            inc.complete_event = state.events.emit(
                "complete",
                time_s=finish,
                job_id=inc_tag,
                execution=inc.outcome.execution,
                exec_s=inc.outcome.exec_s,
            )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _revoke_events(
        state: _RunState, committed: _CommittedJob, *, work_started: bool
    ) -> None:
        """Retract a revoked commitment's provisional log events.

        The stale ``complete`` always goes (the job did not finish as
        booked); the ``dispatch``/``resume`` start marker stays only when
        device work genuinely began before the revocation — a real partial
        run is history, a never-started booking is not.
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
                and not c.resumed
                and c.entry.job.preemptible
                and not math.isfinite(c.entry.job.deadline_s)
                and set(c.placement.device_slots) & set(placement.device_slots)
            ),
            # Latest-finishing victim first: it holds the most future time.
            key=lambda c: (-c.finish_s, c.entry.job.job_id),
        )
        if candidates:
            try:
                state.timeline.release(own.bookings)
            except ValueError:
                # A non-FIFO NIC discipline may have re-booked a displaced
                # incumbent *behind* this job's collective, so the trial
                # booking is no longer the tail of its lanes.  Release
                # verifies before mutating, so nothing moved — keep the
                # first booking instead of attempting the rescue.
                state.committed[job.job_id] = own
                return first_result
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
                results=results,
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

        Three shapes are releasable; everything else (a one-shot kernel or
        a sharded shard mid-compute — no checkpoint boundary) is skipped:

        * nothing started yet (all bookings at/after ``t``) — full release
          and a from-scratch re-queue;
        * caught mid-staging — the stage booking is cut at ``t`` (shipped
          bytes are sunk cost), the rest released, from-scratch re-queue;
        * a streamed job caught mid-compute — the compute booking is cut
          at the first chunk boundary past ``t`` and the victim re-queues
          with a resume ledger (completed chunks stand; the remaining
          chunks' pipeline re-books at resume, plus a factor re-stage).

        Every mutation is pre-verified against
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

        streaming = getattr(cand.outcome.profile, "streaming", None)
        boundary = t
        completed = 0
        total = streaming.num_chunks if streaming is not None else 0
        resume: Optional[_ResumeState] = None
        cut: Optional[Booking] = None
        if straddle:
            cut = straddle[0]
            if (
                cut is cand.exec_booking
                and streaming is not None
                and not cand.placement.sharded
            ):
                sched = streaming.schedule
                exec_start = cand.exec_start_s
                idx = next(
                    (
                        i
                        for i, end in enumerate(sched.compute_ends)
                        if exec_start + end >= t
                    ),
                    None,
                )
                if idx is None or idx + 1 >= streaming.num_chunks:
                    return False  # last chunk in flight: nothing to give back
                completed = idx + 1
                boundary = exec_start + sched.compute_ends[idx]
                if boundary >= cut.end_s:
                    return False
                remaining_s = schedule_chunks(
                    sched.timings[completed:], streaming.num_streams
                ).total_time_s
                resume = _ResumeState(
                    placement=cand.placement,
                    outcome=cand.outcome,
                    completed_chunks=completed,
                    total_chunks=total,
                    remaining_exec_s=remaining_s,
                    resume_stage_s=(
                        cand.entry.geometry.factor_bytes
                        / cand.placement.primary_device.pcie_bandwidth_bytes_per_s
                    ),
                )
            elif cut is cand.stage_booking:
                boundary = t  # staging interrupted: full restart later
            else:
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
            if cut.busy:
                released += cut.end_s - boundary
            timeline.truncate(cut, boundary)

        entry = cand.entry
        entry.ready_s = max(entry.ready_s, boundary)
        entry.preemptions += 1
        entry.preempted_from_s = boundary
        entry.resume = resume
        ready.append((self._queue_key(victim), entry))
        record = PreemptionRecord(
            job_id=victim.job_id,
            preempted_by=by.job_id,
            time_s=boundary,
            completed_chunks=completed,
            total_chunks=total,
            released_s=released,
            resume_stage_s=resume.resume_stage_s if resume is not None else 0.0,
        )
        state.preemption_records.append(record)
        if state.events is not None:
            state.events.emit(
                "preempt",
                time_s=boundary,
                job_id=f"job{victim.job_id}",
                preempted_by=f"job{by.job_id}",
                completed_chunks=completed,
                total_chunks=total,
                released_s=released,
            )
        # ``straddle`` means staging or compute was genuinely cut mid-flight
        # (the dispatch stands as history); a full release never started.
        self._revoke_events(state, cand, work_started=bool(straddle))
        del results[victim.job_id]
        del state.committed[victim.job_id]
        return True

    def _dispatch_resume(
        self,
        entry: _ReadyEntry,
        t0: float,
        results: Dict[int, JobResult],
        state: _RunState,
    ) -> bool:
        """Re-book a preempted streamed job's remaining work.

        The numeric output was computed at the original dispatch; resuming
        books only time — a factor re-stage on the placement's copy lane,
        then the remaining chunks' pipeline on its compute lane.  Returns
        ``False`` (clearing the ledger, so the caller re-dispatches from
        scratch) when the placement's slots have meanwhile failed or been
        parked.
        """
        rs = entry.resume
        assert rs is not None
        job = entry.job
        placement = rs.placement
        slots = placement.device_slots
        if any(
            s in state.failed_slots or s in state.parked_slots for s in slots
        ):
            entry.resume = None
            return False
        tag = f"job{job.job_id}"
        copy_lanes = [state.copy[s] for s in slots]
        compute_lanes = [state.compute[s] for s in slots]
        stage = state.timeline.book_together(
            copy_lanes,
            rs.resume_stage_s,
            ready_s=max(t0, entry.ready_s),
            label=f"resume-stage:{tag}",
            span=Span(tag, kernel=job.kind.value, phase="resume"),
        )
        exec_start = stage.end_s
        for lane in compute_lanes:
            exec_start = max(exec_start, lane.free_s)
        tracked: List[Booking] = list(stage.bookings)
        exec_booking: Optional[Booking] = None
        if rs.remaining_exec_s > 0.0:
            exec_booking = compute_lanes[0].book(
                rs.remaining_exec_s,
                ready_s=exec_start,
                label=f"resume:{tag}",
                span=Span(tag, kernel=job.kind.value, phase="resume"),
            )
            tracked.append(exec_booking)
        finish = exec_start + rs.remaining_exec_s
        start_event = complete_event = None
        if state.events is not None:
            start_event = state.events.emit(
                "resume",
                time_s=stage.start_s,
                job_id=tag,
                completed_chunks=rs.completed_chunks,
                total_chunks=rs.total_chunks,
            )
            complete_event = state.events.emit(
                "complete",
                time_s=finish,
                job_id=tag,
                execution=rs.outcome.execution,
                exec_s=rs.outcome.exec_s,
            )
        state.committed[job.job_id] = _CommittedJob(
            entry=entry,
            placement=placement,
            outcome=rs.outcome,
            bookings=tracked,
            stage_booking=stage.bookings[0] if len(stage.bookings) == 1 else None,
            exec_booking=exec_booking,
            exec_start_s=exec_start,
            finish_s=finish,
            batch_id=None,
            resumed=True,
            start_event=start_event,
            complete_event=complete_event,
        )
        for slot in slots:
            state.dispatches[slot] += 1
        results[job.job_id] = JobResult(
            job=job,
            status=JobStatus.COMPLETED,
            output=rs.outcome.output,
            device_slots=slots,
            execution=rs.outcome.execution,
            encode_cache_hit=entry.encode_hit,
            tuner_cache_hit=entry.tuner_hit,
            preproc_s=entry.preproc_s,
            stage_s=rs.resume_stage_s,
            exec_s=rs.outcome.exec_s,
            stage_start_s=stage.start_s,
            exec_start_s=exec_start,
            finish_s=finish,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            placement=placement,
            preemptions=entry.preemptions,
            preempted_s=max(0.0, exec_start - entry.preempted_from_s),
        )
        return True
