"""Observability: deterministic metrics, structured events, span attribution.

The telemetry layer over the unified simulated-time engine
(:mod:`repro.gpusim.timeline`).  Three pieces, one design rule — nothing
here ever changes modeled time, and nothing reads a wall clock, so every
export is byte-deterministic for a fixed seed:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters, gauges,
  fixed-bucket histograms) with Prometheus text and JSON export; carried
  on :class:`~repro.context.ExecContext` so kernels, drivers, the
  decomposition algorithms and the scheduler all publish into the one
  registry of the run.
* :mod:`repro.obs.events` — :class:`EventLog`, the scheduler's JSONL
  structured event stream (admission, dispatch, preemption, failure,
  recovery) with a stable versioned schema.
* :mod:`repro.obs.attribution` — fold span-tagged bookings into per-job
  and per-resource cost breakdowns (:func:`attribute`), reconciled
  exactly against each resource's busy seconds.

``Span`` itself lives in :mod:`repro.gpusim.timeline` (the engine cannot
import its own observers) and is re-exported here for convenience.
"""

from repro.gpusim.timeline import SPAN_PHASES, Span
from repro.obs.attribution import Attribution, JobCost, ResourceCost, attribute
from repro.obs.events import EVENT_KINDS, EVENT_SCHEMA_VERSION, Event, EventLog
from repro.obs.metrics import (
    KERNEL_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    observe_kernel,
)

__all__ = [
    "Span",
    "SPAN_PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "KERNEL_SECONDS_BUCKETS",
    "observe_kernel",
    "Event",
    "EventLog",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "Attribution",
    "JobCost",
    "ResourceCost",
    "attribute",
]
