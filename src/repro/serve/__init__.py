"""Multi-tenant serving over the simulated cluster.

The unified F-COO kernels make one sparse tensor operation fast; this
subsystem makes a *stream* of them a served workload.  It layers, over the
existing kernels, cluster model and decomposition drivers:

* :mod:`~repro.serve.job` — the unit of work: kernel and decomposition
  requests with tenants, priorities and arrival times;
* :mod:`~repro.serve.cache` — the preprocessing cache memoising F-COO
  encodings and tuned launch configs by tensor content, so repeat tenants
  skip preprocessing;
* :mod:`~repro.serve.placement` — admission control against per-device
  memory and capability-aware placement (fast devices preferred, oversize
  jobs sharded across the cluster proportional to modeled throughput);
* :mod:`~repro.serve.scheduler` — the event-driven simulated-time
  scheduler: priority/FIFO queueing, load shedding, batching of compatible
  jobs, all booked onto the shared
  :class:`~repro.gpusim.timeline.Timeline` — per-device copy/compute
  engine resources overlap one job's staging with another's execution
  (the PR 1 stream model, lifted to whole jobs), and sharded jobs'
  collectives book the link/NIC resources, so concurrent cross-node jobs
  contend for a shared NIC instead of pricing it as idle;
* :mod:`~repro.serve.execute` — the pure job -> numbers and
  (job, placement) -> modeled seconds mappings, shared by the scheduler and
  the bit-identity property harness;
* :mod:`~repro.serve.feedback` — the closed-loop observation store:
  completed jobs' attributed costs fold into decayed per-(kernel, tensor,
  device) execution estimates and per-node congestion scores, consumed by
  the adaptive placer, the tuner re-ranking and the hedged
  :class:`ServingEngine` run (adaptive never loses to static);
* :mod:`~repro.serve.workload` — seeded synthetic multi-tenant workloads,
  the seeded chaos layer (timeline-scheduled node-loss events drawn from
  their own RNG stream) and the default heterogeneous serving node;
* :mod:`~repro.serve.autoscale` — the deterministic device-pool
  autoscaler growing/shrinking the active slot set against offered load;
* :mod:`~repro.serve.engine` — :class:`ServingEngine` tying it together
  and the throughput/latency/utilisation :class:`ServingReport`.

The ``policy="deadline"`` scheduler adds SLO-driven serving: jobs carry an
optional :class:`~repro.context.SLO` (deadline + priority + whether they
may be preempted), earliest-deadline-first queueing, and preemption of
batch jobs at a streamed chunk boundary — the victim's remaining bookings
are released back to the :class:`~repro.gpusim.timeline.Resource` pool and
the job later resumes from its released ledger, bit-identical.

Scheduling, batching, caching and placement only ever move work in
*time* — ``tests/test_serving.py`` proves every scheduled job's output is
bit-identical to executing it alone.
"""

from repro.context import SLO, ExecContext, TimedResult
from repro.serve.autoscale import Autoscaler, AutoscalerSpec, ScaleEvent
from repro.serve.cache import CacheStats, PreprocCache
from repro.serve.engine import (
    ServingEngine,
    ServingReport,
    publish_serving_metrics,
)
from repro.serve.execute import ExecutionOutcome, execute_job, price_job
from repro.serve.feedback import ObservationStore
from repro.serve.job import Job, JobKind, JobResult, JobStatus
from repro.serve.placement import JobGeometry, Placement, Placer, job_geometry
from repro.serve.scheduler import PreemptionRecord, ScheduleOutcome, Scheduler
from repro.serve.workload import (
    ChaosSpec,
    WorkloadSpec,
    default_serving_cluster,
    generate_chaos,
    generate_workload,
)

__all__ = [
    "Job",
    "JobKind",
    "JobResult",
    "JobStatus",
    "PreprocCache",
    "CacheStats",
    "Placement",
    "Placer",
    "JobGeometry",
    "job_geometry",
    "Scheduler",
    "ScheduleOutcome",
    "PreemptionRecord",
    "SLO",
    "ExecContext",
    "TimedResult",
    "Autoscaler",
    "AutoscalerSpec",
    "ScaleEvent",
    "ExecutionOutcome",
    "execute_job",
    "price_job",
    "ObservationStore",
    "WorkloadSpec",
    "generate_workload",
    "ChaosSpec",
    "generate_chaos",
    "default_serving_cluster",
    "ServingEngine",
    "ServingReport",
    "publish_serving_metrics",
]
