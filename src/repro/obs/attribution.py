"""Fold a Timeline's event trace into per-job / per-resource cost breakdowns.

The Timeline records *what happened* — every booking, with its resource,
window, and (since the observability layer) an optional :class:`Span`
naming the job, kernel, and phase that incurred it.  This module answers
the two attribution questions an operator asks of a run:

* **per job**: how many resource-seconds did job X spend staging,
  computing, in collectives, or recovering after a node loss — and how
  long did its collectives queue behind other tenants' traffic
  (``nic_wait_s``)?
* **per resource**: of a resource's booked busy seconds, how many are
  attributed to some job's span?  A *gap* (busy seconds no span claims)
  means a layer forgot to tag its bookings — the benchmark regression
  gate keeps ``attribution_gap_count`` at zero for serving runs.

Attributed times are **resource-seconds** (a gang booking over four copy
lanes contributes four lanes' worth), which is exactly what makes the
per-resource reconciliation an identity: summing every job's attributed
seconds on a resource reproduces that resource's ``busy_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.gpusim.timeline import Timeline
    from repro.obs.metrics import MetricsRegistry

__all__ = ["JobCost", "ResourceCost", "Attribution", "attribute"]

#: Relative tolerance for the busy-vs-attributed reconciliation: the two
#: sides sum identical float durations in different orders, so they can
#: differ by accumulated rounding but never by a real amount.
_RECONCILE_REL_EPS = 1e-9


@dataclass
class JobCost:
    """One job's attributed resource-seconds, by phase."""

    job_id: str
    stage_s: float = 0.0
    compute_s: float = 0.0
    collective_s: float = 0.0
    recovery_s: float = 0.0
    #: Queueing delay of this job's collectives (seconds the gang spent
    #: ready but blocked behind other traffic on its links/NICs), counted
    #: once per gang window rather than once per participating resource.
    nic_wait_s: float = 0.0

    @property
    def busy_s(self) -> float:
        """Total attributed resource-seconds across all phases."""
        return self.stage_s + self.compute_s + self.collective_s + self.recovery_s


@dataclass
class ResourceCost:
    """One resource's busy seconds, split by who claims them."""

    key: str
    category: str
    busy_s: float = 0.0  # the resource's own accumulator (ground truth)
    attributed_s: float = 0.0  # busy seconds carried by some job's span
    untagged_s: float = 0.0  # busy seconds with no span (untagged bookings)
    untagged_bookings: int = 0
    wait_s: float = 0.0  # accumulated queueing delay (start - ready)

    @property
    def gap_s(self) -> float:
        """Busy seconds the split fails to explain (should be ~0)."""
        return self.busy_s - self.attributed_s - self.untagged_s

    @property
    def reconciles(self) -> bool:
        """Whether attributed + untagged reproduces ``busy_s`` exactly
        (up to float summation-order noise)."""
        return abs(self.gap_s) <= _RECONCILE_REL_EPS * max(self.busy_s, 1.0)


@dataclass
class Attribution:
    """The folded trace: job costs, resource splits, reconciliation."""

    jobs: Dict[str, JobCost] = field(default_factory=dict)
    resources: Dict[str, ResourceCost] = field(default_factory=dict)

    @property
    def gap_count(self) -> int:
        """Resources whose busy seconds do not reconcile (target: 0)."""
        return sum(1 for r in self.resources.values() if not r.reconciles)

    @property
    def untagged_busy_count(self) -> int:
        """Busy bookings carrying no span anywhere on the timeline."""
        return sum(r.untagged_bookings for r in self.resources.values())

    def phase_totals(self) -> Dict[str, float]:
        """Attributed resource-seconds summed over jobs, by phase."""
        totals = {
            "stage": 0.0,
            "compute": 0.0,
            "collective": 0.0,
            "recovery": 0.0,
            "nic_wait": 0.0,
        }
        for job in self.jobs.values():
            totals["stage"] += job.stage_s
            totals["compute"] += job.compute_s
            totals["collective"] += job.collective_s
            totals["recovery"] += job.recovery_s
            totals["nic_wait"] += job.nic_wait_s
        return totals

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish the breakdown into a metrics registry."""
        phase_seconds = registry.counter(
            "repro_attributed_seconds_total",
            "Attributed resource-seconds across jobs, by phase",
            ("phase",),
        )
        for phase, seconds in self.phase_totals().items():
            phase_seconds.inc(seconds, phase=phase)
        registry.gauge(
            "repro_attribution_gap_resources",
            "Resources whose busy seconds failed to reconcile with spans",
        ).set(self.gap_count)
        wait = registry.counter(
            "repro_resource_wait_seconds_total",
            "Queueing delay accumulated per resource category",
            ("category",),
        )
        for key in sorted(self.resources):
            cost = self.resources[key]
            wait.inc(cost.wait_s, category=cost.category or "uncategorized")


def attribute(timeline: "Timeline") -> Attribution:
    """Fold ``timeline``'s trace into an :class:`Attribution`.

    Only ``busy=True`` bookings carry cost (reservations hold a resource
    without doing work, exactly as in ``Resource.busy_s``).  Per-phase
    job costs are resource-seconds; ``nic_wait_s`` is counted once per
    collective gang window — every member of a gang records the same
    queueing delay, so the per-member copies are de-duplicated on
    ``(job, label, window)``.
    """
    result = Attribution()
    for resource in timeline.resources:
        cost = ResourceCost(
            key=resource.key,
            category=resource.category,
            busy_s=resource.busy_s,
            wait_s=resource.wait_s,
        )
        result.resources[resource.key] = cost
        for booking in resource.bookings:
            if not booking.busy:
                continue
            span = booking.span
            if span is None:
                cost.untagged_s += booking.duration_s
                cost.untagged_bookings += 1
                continue
            cost.attributed_s += booking.duration_s
            job = result.jobs.get(span.job_id)
            if job is None:
                job = result.jobs[span.job_id] = JobCost(job_id=span.job_id)
            if span.phase == "stage":
                job.stage_s += booking.duration_s
            elif span.phase == "collective":
                job.collective_s += booking.duration_s
            elif span.phase == "recovery":
                job.recovery_s += booking.duration_s
            else:  # "compute" and untagged-phase spans: the default bucket
                job.compute_s += booking.duration_s

    # NIC wait: one gang window = one wait, not one per member.
    seen: Set[Tuple[str, str, float, float]] = set()
    for booking in timeline.events:
        span = booking.span
        if span is None or span.phase != "collective" or not booking.busy:
            continue
        window = (span.job_id, booking.label, booking.start_s, booking.end_s)
        if window in seen:
            continue
        seen.add(window)
        result.jobs[span.job_id].nic_wait_s += booking.wait_s

    # Deterministic iteration for every consumer: order jobs by id.
    result.jobs = dict(sorted(result.jobs.items()))
    return result
