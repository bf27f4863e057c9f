"""The serving façade: engine + report.

:class:`ServingEngine` wires the subsystem together — one cluster and one
:class:`~repro.serve.scheduler.Scheduler` with its
:class:`~repro.serve.cache.PreprocCache` — and turns a job list (or a
:class:`~repro.serve.workload.WorkloadSpec`) into a
:class:`ServingReport`: throughput, latency percentiles, per-device
utilisation, cache effectiveness and the full per-job ledger, rendered as
the same plain-text tables the rest of the benchmark harness emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gpusim.cluster import ClusterSpec, NodeFailure
from repro.gpusim.timeline import Timeline, device_compute_key
from repro.obs.attribution import Attribution
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import CacheStats
from repro.serve.job import Job, JobResult
from repro.serve.scheduler import PreemptionRecord, Scheduler
from repro.serve.workload import WorkloadSpec, default_serving_cluster, generate_workload
from repro.util.formatting import format_seconds, format_table

__all__ = ["ServingEngine", "ServingReport", "publish_serving_metrics"]


@dataclass
class ServingReport:
    """Everything one serving run produced, plus the derived metrics."""

    cluster: ClusterSpec
    policy: str
    results: List[JobResult]
    #: Dispatches per device slot (see :attr:`ScheduleOutcome.dispatches`).
    dispatches: List[int]
    cache_stats: CacheStats
    #: The run's shared simulated-time timeline (per-device copy/compute
    #: engines plus the link/NIC resources booked by sharded collectives).
    timeline: Timeline = field(repr=False)
    #: Chaos node-loss events that fired during the run, in firing order.
    failures: List[NodeFailure] = field(default_factory=list)
    #: Total job re-queues caused by node losses (a job torn down twice
    #: counts twice).
    requeued_jobs: int = 0
    #: Preemptions the deadline policy performed, in firing order.
    preemptions: List[PreemptionRecord] = field(default_factory=list)
    #: The run's telemetry: the metrics registry every layer published
    #: into, the structured scheduler event log, and the span-folded cost
    #: attribution of the shared timeline (see :mod:`repro.obs`).  All
    #: three are ``None`` only for reports built without a scheduler run.
    metrics: Optional[MetricsRegistry] = field(default=None, repr=False)
    events: Optional[EventLog] = field(default=None, repr=False)
    attribution: Optional[Attribution] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> List[JobResult]:
        """Jobs that produced a result, in job-id order."""
        return [r for r in self.results if r.completed]

    @property
    def rejected(self) -> List[JobResult]:
        """Jobs refused by admission control or out of memory at execution."""
        return [r for r in self.results if not r.completed]

    @property
    def makespan_s(self) -> float:
        """Completion time of the last job."""
        return max((r.finish_s for r in self.completed), default=0.0)

    @property
    def throughput_jobs_per_s(self) -> float:
        """Completed jobs per simulated second."""
        makespan = self.makespan_s
        return len(self.completed) / makespan if makespan > 0 else 0.0

    @property
    def latencies_s(self) -> np.ndarray:
        """End-to-end latency of every completed job (arrival to finish)."""
        return np.asarray([r.latency_s for r in self.completed], dtype=np.float64)

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th latency percentile (0 when nothing completed)."""
        lat = self.latencies_s
        return float(np.percentile(lat, q)) if lat.size else 0.0

    @property
    def p50_latency_s(self) -> float:
        """Median end-to-end latency."""
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile (tail) end-to-end latency."""
        return self.latency_percentile(99.0)

    @property
    def p999_latency_s(self) -> float:
        """99.9th-percentile latency — the SLO-grade tail."""
        return self.latency_percentile(99.9)

    # ------------------------------------------------------------------ #
    @property
    def slo_jobs(self) -> List[JobResult]:
        """Jobs that carried a latency deadline (completed or not)."""
        return [
            r
            for r in self.results
            if r.job.slo is not None and r.job.slo.has_deadline
        ]

    @property
    def deadline_misses(self) -> int:
        """Deadline-carrying jobs that finished late (or not at all)."""
        return sum(1 for r in self.slo_jobs if r.missed_deadline)

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying jobs that missed (0 when none)."""
        slo = self.slo_jobs
        return self.deadline_misses / len(slo) if slo else 0.0

    @property
    def preemption_overhead_s(self) -> float:
        """Total modeled cost of preemption: every victim's resume latency
        (cut point to resumed execution start) plus the factor re-stages."""
        return sum(r.preempted_s for r in self.completed) + sum(
            p.resume_stage_s for p in self.preemptions
        )

    @property
    def mean_queue_wait_s(self) -> float:
        """Mean seconds completed jobs spent between arrival and staging."""
        waits = [r.queue_wait_s for r in self.completed]
        return float(np.mean(waits)) if waits else 0.0

    def _device_busy_s(self, slot: int) -> float:
        """One device's busy seconds, from the shared timeline's compute
        engine resource.

        The utilisation metrics derive from the engine's own per-resource
        busy time — the sum of the busy-marked bookings on the device's
        compute engine — rather than a scheduler-side accumulator, so the
        report cannot drift from the timeline (the pre-timeline
        accumulators could, e.g. under batching).
        """
        return self.timeline.busy_s(device_compute_key(slot))

    @property
    def device_utilization(self) -> Dict[int, float]:
        """Per-device busy fraction of the makespan, in ``[0, 1]``.

        Busy time is the device's compute-engine resource busy time on the
        shared timeline (see :meth:`_device_busy_s`).
        """
        makespan = self.makespan_s
        slots = range(self.cluster.num_devices)
        if makespan <= 0:
            return {slot: 0.0 for slot in slots}
        return {slot: min(1.0, self._device_busy_s(slot) / makespan) for slot in slots}

    @property
    def overall_utilization(self) -> float:
        """Cluster busy fraction: total busy over ``N x makespan``.

        ``N`` and the busy totals come from the shared timeline's
        *registered* compute-engine resources (the scheduler registers one
        per device slot).
        """
        makespan = self.makespan_s
        if makespan <= 0:
            return 0.0
        engines = [r for r in self.timeline.resources if r.category == "compute"]
        busy = sum(r.busy_s for r in engines)
        return min(1.0, busy / (len(engines) * makespan))

    def execution_counts(self) -> Dict[str, int]:
        """Completed jobs per execution path (one-shot/streamed/sharded/...)."""
        counts: Dict[str, int] = {}
        for r in self.completed:
            counts[r.execution] = counts.get(r.execution, 0) + 1
        return counts

    @property
    def batched_jobs(self) -> int:
        """Completed jobs that rode in a batch (leaders included)."""
        return sum(1 for r in self.completed if r.batch_id is not None)

    @property
    def node_local_sharded_jobs(self) -> int:
        """Completed sharded jobs kept inside one node (off the NIC)."""
        return sum(
            1
            for r in self.completed
            if r.placement is not None
            and r.placement.sharded
            and r.placement.node_index is not None
        )

    @property
    def cross_node_jobs(self) -> int:
        """Completed jobs whose shards reduced over the inter-node NIC."""
        return sum(
            1
            for r in self.completed
            if r.placement is not None and r.placement.crosses_nic
        )

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Plain-text serving report (summary, latency, devices, cache)."""
        lines: List[str] = []
        lines.append(
            f"Serving report — {self.cluster.name} "
            f"({self.cluster.num_devices} devices, policy={self.policy})"
        )
        counts = self.execution_counts()
        path_summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        lines.append(
            f"jobs: {len(self.results)} submitted, {len(self.completed)} completed "
            f"({path_summary}), {len(self.rejected)} rejected, "
            f"{self.batched_jobs} batched"
        )
        if self.cluster.num_nodes > 1:
            lines.append(
                f"topology: {self.cluster.num_nodes} nodes over "
                f"{self.cluster.nic.name}; sharded jobs: "
                f"{self.node_local_sharded_jobs} node-local (off the NIC), "
                f"{self.cross_node_jobs} cross-node"
            )
        lines.append(
            f"makespan: {format_seconds(self.makespan_s)}  "
            f"throughput: {self.throughput_jobs_per_s:,.0f} jobs/s"
        )
        lines.append(
            f"latency: p50 {format_seconds(self.p50_latency_s)}, "
            f"p99 {format_seconds(self.p99_latency_s)}, "
            f"p99.9 {format_seconds(self.p999_latency_s)}, "
            f"mean queue wait {format_seconds(self.mean_queue_wait_s)}"
        )
        if self.slo_jobs:
            lines.append(
                f"SLO: {len(self.slo_jobs)} deadline jobs, "
                f"{self.deadline_misses} missed "
                f"({self.deadline_miss_rate * 100.0:.0f}%), "
                f"{len(self.preemptions)} preemptions "
                f"(overhead {format_seconds(self.preemption_overhead_s)})"
            )
        if self.failures:
            recovering = sum(1 for e in self.failures if e.recover_s is not None)
            lines.append(
                f"faults: {len(self.failures)} node losses "
                f"({recovering} with recovery), {self.requeued_jobs} job re-queues"
            )
        stats = self.cache_stats
        lines.append(
            f"preproc cache: {stats.encode_hits}/{stats.encode_hits + stats.encode_misses} "
            f"encoding hits ({stats.encode_hit_rate * 100.0:.0f}%), "
            f"{stats.tuner_hits}/{stats.tuner_hits + stats.tuner_misses} tuner hits"
        )
        if self.attribution is not None:
            totals = self.attribution.phase_totals()
            phase_summary = ", ".join(
                f"{phase} {format_seconds(seconds)}"
                for phase, seconds in totals.items()
                if seconds > 0.0
            )
            nic_wait = sum(c.nic_wait_s for c in self.attribution.jobs.values())
            lines.append(
                f"attribution: {phase_summary or 'no busy time'}; "
                f"NIC queueing {format_seconds(nic_wait)}; "
                f"{self.attribution.gap_count} unreconciled resources"
            )
        if self.metrics is not None:
            events_n = len(self.events) if self.events is not None else 0
            lines.append(
                f"telemetry: {len(self.metrics.metrics)} metric series, "
                f"{events_n} events logged"
            )
        utilization = self.device_utilization
        body = [
            [
                slot,
                device.name,
                self.dispatches[slot],
                format_seconds(self._device_busy_s(slot)),
                f"{utilization[slot] * 100.0:.0f}%",
            ]
            for slot, device in enumerate(self.cluster.devices)
        ]
        lines.append(
            format_table(
                ["slot", "device", "jobs", "busy", "utilization"],
                body,
                title=f"per-device utilization (cluster busy fraction "
                f"{self.overall_utilization * 100.0:.0f}%)",
            )
        )
        if self.rejected:
            reasons: Dict[str, int] = {}
            for r in self.rejected:
                reasons[r.reject_reason or "unknown"] = (
                    reasons.get(r.reject_reason or "unknown", 0) + 1
                )
            for reason, count in sorted(reasons.items()):
                lines.append(f"rejected x{count}: {reason}")
        return "\n".join(lines)


class ServingEngine:
    """Multi-tenant serving over the simulated cluster.

    Parameters
    ----------
    cluster:
        The serving node; defaults to the heterogeneous analog node of
        :func:`~repro.serve.workload.default_serving_cluster`.
    policy / autotune:
        Forwarded to the :class:`~repro.serve.scheduler.Scheduler`, whose
        preprocessing cache every run of this engine shares.
    adaptive / nic_policy:
        Ignored: every run is one static scheduler run, and every
        cross-node collective is served in arrival order.  ``adaptive``
        takes any value; ``nic_policy`` accepts ``"fifo"``, ``"fair"`` and
        ``"priority"`` (anything else raises ``ValueError``).  Both are
        accepted only because perfbench's ``serve-hedged`` workload still
        passes ``adaptive=True`` and ``nic_policy="fair"``; once a
        benchmark change drops those arguments, both parameters go.
    """

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        *,
        policy: str = "priority",
        autotune: bool = False,
        adaptive: bool = False,
        nic_policy: str = "fifo",
    ) -> None:
        if nic_policy not in ("fifo", "fair", "priority"):
            raise ValueError(
                f"nic_policy must be 'fifo', 'fair' or 'priority', got {nic_policy!r}"
            )
        self.cluster = cluster if cluster is not None else default_serving_cluster()
        self.policy = policy
        self.scheduler = Scheduler(self.cluster, policy=policy, autotune=autotune)

    # ------------------------------------------------------------------ #
    def run(
        self,
        jobs: Sequence[Job],
        chaos: Optional[Sequence[NodeFailure]] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> ServingReport:
        """Schedule and execute ``jobs``; returns the full report.

        The report carries *this run's* cache counters (the deltas of the
        scheduler's cache over the run), so a warm second run reports its
        own — near perfect — hit rate, and a later run cannot retroactively
        change an earlier report.  ``chaos`` injects seeded node-loss events (see
        :meth:`~repro.serve.scheduler.Scheduler.run`); the report records
        the fired events and the job re-queues they caused.

        Every run is fully instrumented: a fresh
        :class:`~repro.obs.metrics.MetricsRegistry` and
        :class:`~repro.obs.events.EventLog` are created (or the caller's
        own passed as ``metrics`` / ``events``), threaded through the
        scheduler into every kernel and driver a job touches, and returned
        on the report (``report.metrics`` / ``report.events``) alongside
        the span-folded cost attribution.  Telemetry is observation-only:
        results and bookings are bit-identical with or without consumers.
        """
        cache = self.scheduler.cache
        before = replace(cache.stats)
        registry = metrics if metrics is not None else MetricsRegistry()
        log = events if events is not None else EventLog()
        outcome = self.scheduler.run(jobs, chaos=chaos, metrics=registry, events=log)
        report = ServingReport(
            cluster=self.cluster,
            policy=self.policy,
            results=outcome.results,
            dispatches=outcome.dispatches,
            cache_stats=cache.stats.since(before),
            timeline=outcome.timeline,
            failures=outcome.failures,
            requeued_jobs=outcome.requeued_jobs,
            preemptions=outcome.preemptions,
            metrics=registry,
            events=log,
            attribution=outcome.attribution,
        )
        publish_serving_metrics(registry, report)
        return report

    def run_workload(
        self,
        spec: Optional[WorkloadSpec] = None,
        chaos: Optional[Sequence[NodeFailure]] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> ServingReport:
        """Generate a seeded synthetic workload and serve it."""
        spec = spec if spec is not None else WorkloadSpec()
        return self.run(
            generate_workload(spec), chaos=chaos, metrics=metrics, events=events
        )


def publish_serving_metrics(registry: MetricsRegistry, report: ServingReport) -> None:
    """Publish a finished run's report-level metrics into ``registry``.

    The serving-layer half of the metrics catalogue: job outcomes,
    execution-path counts, latency percentiles, utilisation, fault and
    preemption totals, and the preprocessing-cache hit counters.  Called by
    :meth:`ServingEngine.run` on its per-run registry; callers holding a
    long-lived registry across runs should expect counters to accumulate.
    """
    jobs = registry.counter(
        "repro_serve_jobs_total", "Serving jobs by terminal status.", ("status",)
    )
    jobs.inc(len(report.completed), status="completed")
    jobs.inc(len(report.rejected), status="rejected")
    paths = registry.counter(
        "repro_serve_execution_total",
        "Completed serving jobs by execution path.",
        ("path",),
    )
    for path, count in sorted(report.execution_counts().items()):
        paths.inc(count, path=path)
    registry.gauge(
        "repro_serve_makespan_seconds",
        "Completion time of the serving run's last job (simulated).",
    ).set(report.makespan_s)
    registry.gauge(
        "repro_serve_throughput_jobs_per_second",
        "Completed jobs per simulated second.",
    ).set(report.throughput_jobs_per_s)
    latency = registry.gauge(
        "repro_serve_latency_seconds",
        "End-to-end latency percentiles over completed jobs.",
        ("quantile",),
    )
    latency.set(report.p50_latency_s, quantile="0.5")
    latency.set(report.p99_latency_s, quantile="0.99")
    latency.set(report.p999_latency_s, quantile="0.999")
    registry.gauge(
        "repro_serve_utilization_ratio",
        "Cluster compute busy fraction over the makespan.",
    ).set(report.overall_utilization)
    registry.counter(
        "repro_serve_batched_jobs_total", "Completed jobs that rode in a batch."
    ).inc(report.batched_jobs)
    registry.counter(
        "repro_serve_preemptions_total",
        "Chunk-boundary preemptions the deadline policy performed.",
    ).inc(len(report.preemptions))
    registry.counter(
        "repro_serve_deadline_misses_total",
        "Deadline-carrying jobs that finished late or not at all.",
    ).inc(report.deadline_misses)
    registry.counter(
        "repro_serve_requeues_total", "Job re-queues caused by node losses."
    ).inc(report.requeued_jobs)
    registry.counter(
        "repro_serve_node_failures_total", "Chaos node-loss events that fired."
    ).inc(len(report.failures))
    cache = registry.counter(
        "repro_serve_cache_requests_total",
        "Preprocessing cache lookups by kind and outcome.",
        ("kind", "outcome"),
    )
    stats = report.cache_stats
    cache.inc(stats.encode_hits, kind="encode", outcome="hit")
    cache.inc(stats.encode_misses, kind="encode", outcome="miss")
    cache.inc(stats.tuner_hits, kind="tuner", outcome="hit")
    cache.inc(stats.tuner_misses, kind="tuner", outcome="miss")
