"""The unified simulated-time resource engine.

Every layer of this reproduction models time the same way: some *serial
resource* (a DMA copy engine, a compute engine, an intra-node P2P link, a
per-node NIC) is busy for a while, and work that needs the resource waits
until it frees.  Before this module existed the bookkeeping lived in three
disconnected places — the two-resource copy/compute recurrence of the
out-of-core stream pipeline, the closed-form collective pricing of the
cluster model, and a re-implementation of per-device engine horizons inside
the serving scheduler.  This module is the one timeline they all book now:

* :class:`Resource` — a serial resource with *busy-until* bookkeeping: a
  booking starts at ``max(ready, free)`` and occupies the resource for its
  duration.  Dependency-ordered task booking is expressed through the
  ``ready_s`` argument (pass the completion time of whatever the task
  depends on).
* :class:`Timeline` — the registry of resources plus the queryable event
  trace.  It answers per-resource busy time and utilisation, gang-books a
  set of resources together (the collective primitive: an all-reduce
  occupies every participating link/NIC for the same window), and exports
  the trace in Chrome ``chrome://tracing`` JSON for visual inspection
  (``python -m repro serve --trace out.json``).
* :class:`SimClock` — a monotone simulated-time clock for event-driven
  drivers (the serving scheduler advances one).

The out-of-core stream pipeline of Section IV-D lives here too
(:class:`ChunkTiming` / :class:`StreamSchedule` / :func:`schedule_chunks`):
the same ``start = max(ready, free)`` arithmetic over two serial engines of
one device — copy and compute — with the ``num_streams`` buffer bound
expressed as a dependency on the kernel completion of the chunk
``num_streams`` positions earlier.  It is resolved as a recurrence, not
booked: its makespan is priced into the streamed kernel's time, which the
caller books.

Booking arithmetic is deliberately bit-stable: ``start = max(ready, free)``
and ``end = start + duration`` are exactly the operations the pre-refactor
recurrences performed, so refactored layers reproduce their old modeled
seconds bit for bit on idle resources; only *contention* (a busy NIC) or
*overlap* (a collective riding the links while compute proceeds) moves
modeled time, and only in the direction the resource model dictates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.util.validation import check_positive_int

__all__ = [
    "SimClock",
    "Span",
    "SPAN_PHASES",
    "Booking",
    "GangBooking",
    "Resource",
    "Timeline",
    "device_copy_key",
    "device_compute_key",
    "ChunkTiming",
    "StreamSchedule",
    "schedule_chunks",
]


def device_copy_key(slot: int) -> str:
    """Resource key of device ``slot``'s copy (DMA/staging) engine."""
    return f"dev{slot}.copy"


def device_compute_key(slot: int) -> str:
    """Resource key of device ``slot``'s compute engine."""
    return f"dev{slot}.compute"


class SimClock:
    """A monotone simulated-time clock.

    Event-driven drivers (the serving scheduler) keep their "now" here.
    :meth:`advance_to` only ever moves forward: a target already in the
    past is a no-op returning the unchanged "now" (schedulers routinely
    clamp to ``max(now, event time)`` — this is that clamp), so the clock
    can never run backwards; non-finite targets raise.
    """

    def __init__(self, now_s: float = 0.0) -> None:
        if not math.isfinite(now_s) or now_s < 0.0:
            raise ValueError(f"now_s must be finite and non-negative, got {now_s}")
        self._now_s = float(now_s)

    @property
    def now_s(self) -> float:
        """The current simulated time."""
        return self._now_s

    def advance_to(self, t_s: float) -> float:
        """Move the clock forward to ``t_s`` (no-op when already past it)."""
        if not math.isfinite(t_s):
            raise ValueError(f"cannot advance the clock to {t_s}")
        if t_s > self._now_s:
            self._now_s = float(t_s)
        return self._now_s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now_s={self._now_s})"


#: The attribution phases a :class:`Span` may carry.  ``nic_wait`` never
#: appears on a booking — queueing delay is derived per booking from
#: ``start - ready`` (see :attr:`Booking.wait_s`) — but it is a phase of
#: the attribution output, so it is part of the closed vocabulary.
SPAN_PHASES = ("stage", "compute", "collective", "nic_wait", "resume", "recovery")


@dataclass(frozen=True)
class Span:
    """Attribution tag for a booking: which job/kernel/phase incurred it.

    Telemetry-only — a span never changes booking arithmetic.  The
    observability layer (:mod:`repro.obs.attribution`) folds the event
    trace by span into per-job and per-resource cost breakdowns.
    """

    job_id: str
    kernel: str = ""
    phase: str = ""

    def __post_init__(self) -> None:
        if self.phase and self.phase not in SPAN_PHASES:
            raise ValueError(
                f"span phase must be one of {SPAN_PHASES}, got {self.phase!r}"
            )


@dataclass(frozen=True)
class Booking:
    """One task's occupancy of one resource (an event of the trace).

    ``busy=False`` marks a *reservation* rather than work: the resource is
    held (nothing else may book it) but the interval does not count toward
    its busy time — e.g. a compute engine waiting on the collective its
    device participates in.

    ``ready_s`` records when the booked work *became* ready (the caller's
    dependency instant, before the serial-resource gate), so ``start_s -
    ready_s`` is the queueing delay the work suffered at this resource.
    ``span`` optionally attributes the booking to a job/kernel/phase.
    Both are record-only: they never alter ``start``/``end`` arithmetic.
    """

    resource: str
    label: str
    category: str
    start_s: float
    end_s: float
    busy: bool = True
    ready_s: float = 0.0
    span: Optional[Span] = None

    @property
    def duration_s(self) -> float:
        """Length of the booked interval."""
        return self.end_s - self.start_s

    @property
    def wait_s(self) -> float:
        """Queueing delay: seconds between ready and start (never negative)."""
        return max(0.0, self.start_s - self.ready_s)


@dataclass(frozen=True)
class GangBooking:
    """A set of resources booked together for one shared window.

    The collective primitive: an all-reduce occupies every participating
    link and NIC for the same interval, so the window starts only when the
    *last* participant frees.
    """

    start_s: float
    end_s: float
    bookings: Tuple[Booking, ...]

    @property
    def duration_s(self) -> float:
        """Length of the shared window."""
        return self.end_s - self.start_s


class Resource:
    """A serial resource with busy-until bookkeeping.

    Created through :meth:`Timeline.resource`; not constructed directly so
    every booking lands in its timeline's trace.
    """

    def __init__(self, timeline: "Timeline", key: str, category: str) -> None:
        self._timeline = timeline
        self.key = key
        self.category = category
        self.free_s = 0.0  # busy-until horizon: earliest start of a new booking
        self.busy_s = 0.0  # accumulated busy-marked booking seconds
        self.wait_s = 0.0  # accumulated queueing delay (start - ready) seconds
        self.num_bookings = 0
        self._bookings: List[Booking] = []  # this resource's bookings, in order

    def book(
        self,
        duration_s: float,
        *,
        ready_s: float = 0.0,
        label: str = "",
        busy: bool = True,
        span: Optional[Span] = None,
        queued_from_s: Optional[float] = None,
    ) -> Booking:
        """Book ``duration_s`` seconds, no earlier than ``ready_s``.

        The booking starts at ``max(ready_s, free)`` — the dependency gate
        and the serial-resource gate — and advances the resource's horizon
        to its end.  Returns the recorded :class:`Booking`.

        ``span`` attributes the booking (telemetry-only).  ``queued_from_s``
        overrides the instant recorded as the work's readiness for wait
        accounting — gang bookings pass the caller's *original* ready
        through it, because the gang start (which becomes each member's
        ``ready_s`` gate) already includes the queueing delay being
        measured.  Neither changes start/end arithmetic.
        """
        if not math.isfinite(duration_s) or duration_s < 0.0:
            raise ValueError(
                f"booking duration must be finite and non-negative, got {duration_s}"
            )
        if not math.isfinite(ready_s) or ready_s < 0.0:
            raise ValueError(f"ready_s must be finite and non-negative, got {ready_s}")
        start = max(ready_s, self.free_s)
        end = start + duration_s
        queued_from = ready_s if queued_from_s is None else queued_from_s
        if not math.isfinite(queued_from) or queued_from < 0.0:
            raise ValueError(
                f"queued_from_s must be finite and non-negative, got {queued_from}"
            )
        booking = Booking(
            resource=self.key,
            label=label,
            category=self.category,
            start_s=start,
            end_s=end,
            busy=busy,
            ready_s=queued_from,
            span=span,
        )
        self.free_s = end
        if busy:
            self.busy_s += duration_s
        self.wait_s += booking.wait_s
        self.num_bookings += 1
        self._bookings.append(booking)
        self._timeline._record(booking)
        return booking

    @property
    def bookings(self) -> Tuple[Booking, ...]:
        """This resource's bookings, in booking order."""
        return tuple(self._bookings)

    @property
    def last_booking(self) -> Optional[Booking]:
        """The most recent booking on this resource (``None`` when idle)."""
        return self._bookings[-1] if self._bookings else None

    def is_tail(self, bookings: Sequence[Booking]) -> bool:
        """Whether ``bookings`` are exactly this resource's newest bookings.

        Tail-ness is what makes a release sound: rolling the busy-until
        horizon back is only meaningful when nothing was booked *after*
        the released work.
        """
        tail = self._bookings[len(self._bookings) - len(bookings):]
        if len(tail) != len(bookings):
            return False
        return {id(b) for b in bookings} == {id(b) for b in tail}

    @property
    def wait_time(self) -> float:
        """Accumulated queueing delay across this resource's bookings.

        The per-resource congestion signal: seconds work spent ready but
        blocked behind earlier bookings (``start - ready`` summed over
        bookings).  Service time is :attr:`busy_s`; the two never mix.
        """
        return self.wait_s

    def utilization(self, makespan_s: Optional[float] = None) -> float:
        """Busy fraction of ``makespan_s`` (the timeline's by default).

        Deliberately *unclamped*: a serial resource's busy time can never
        legitimately exceed the span it was booked within, so a value
        above 1 is an accounting bug (double-booked busy seconds) that a
        ``min(1.0, ...)`` would silently mask.  See
        :meth:`Timeline.violations`.
        """
        span = self._timeline.makespan_s if makespan_s is None else makespan_s
        if span <= 0.0:
            return 0.0
        return self.busy_s / span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Resource(key={self.key!r}, category={self.category!r}, "
            f"free_s={self.free_s}, busy_s={self.busy_s})"
        )


ResourceLike = Union[str, Resource]


@dataclass
class Timeline:
    """One simulated timeline: the resource registry plus the event trace.

    Resources are created on demand by :meth:`resource` and identified by
    string keys (:func:`device_copy_key` / :func:`device_compute_key` for
    device engines; the cluster model derives ``link:<node>`` /
    ``nic:<node>`` keys for its interconnect tiers).  Layers that share a
    timeline therefore share its resources: a serving scheduler and the
    collectives of the jobs it dispatches contend for the same NICs.
    """

    clock: SimClock = field(default_factory=SimClock)
    events: List[Booking] = field(default_factory=list)
    _resources: Dict[str, Resource] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def _record(self, booking: Booking) -> None:
        self.events.append(booking)

    def resource(self, key: str, *, category: str = "") -> Resource:
        """The resource registered under ``key`` (created on first use)."""
        existing = self._resources.get(key)
        if existing is None:
            existing = self._resources[key] = Resource(self, key, category)
        return existing

    def has_resource(self, key: str) -> bool:
        """Whether ``key`` has been booked or created on this timeline."""
        return key in self._resources

    @property
    def resources(self) -> Tuple[Resource, ...]:
        """Every registered resource, in creation order."""
        return tuple(self._resources.values())

    def _resolve(self, resource: ResourceLike) -> Resource:
        if isinstance(resource, Resource):
            if resource._timeline is not self:
                raise ValueError(
                    f"resource {resource.key!r} belongs to a different timeline"
                )
            return resource
        return self.resource(resource)

    # ------------------------------------------------------------------ #
    def book(
        self,
        resource: ResourceLike,
        duration_s: float,
        *,
        ready_s: float = 0.0,
        label: str = "",
        busy: bool = True,
        span: Optional[Span] = None,
        queued_from_s: Optional[float] = None,
    ) -> Booking:
        """Book one resource (see :meth:`Resource.book`)."""
        return self._resolve(resource).book(
            duration_s,
            ready_s=ready_s,
            label=label,
            busy=busy,
            span=span,
            queued_from_s=queued_from_s,
        )

    def book_together(
        self,
        resources: Sequence[ResourceLike],
        duration_s: float,
        *,
        ready_s: float = 0.0,
        label: str = "",
        busy: bool = True,
        span: Optional[Span] = None,
        queued_from_s: Optional[float] = None,
    ) -> GangBooking:
        """Gang-book ``resources`` for one shared window.

        The window starts at ``max(ready_s, every participant's free
        horizon)`` — a collective cannot begin until its slowest member is
        available — and every participant is occupied until it ends.

        Each member's recorded readiness for wait accounting is the
        caller's ``ready_s`` (or explicit ``queued_from_s``), *not* the
        resolved gang start: the delay between the work becoming ready and
        the slowest member freeing is exactly the queueing the collective
        suffered, and passing the gang start through as the gate would
        erase it.
        """
        members = [self._resolve(r) for r in resources]
        if not members:
            raise ValueError("book_together needs at least one resource")
        start = ready_s
        for member in members:
            start = max(start, member.free_s)
        queued_from = ready_s if queued_from_s is None else queued_from_s
        bookings = tuple(
            member.book(
                duration_s,
                ready_s=start,
                label=label,
                busy=busy,
                span=span,
                queued_from_s=queued_from,
            )
            for member in members
        )
        return GangBooking(
            start_s=bookings[0].start_s, end_s=bookings[0].end_s, bookings=bookings
        )

    # ------------------------------------------------------------------ #
    # Releasable bookings (the preemption primitive)
    # ------------------------------------------------------------------ #
    def release(self, bookings: Sequence[Booking]) -> float:
        """Release ``bookings`` back to their resources.

        The inverse of :meth:`book`, making bookings *checkpointable*: a
        deadline-aware scheduler preempts a job by releasing its not-yet-
        consumed bookings, which rolls each resource's busy-until horizon
        back so a latency-class job can book the freed window, and later
        re-books the victim's remaining work from its released ledger.

        Per resource, the released set must be exactly that resource's
        newest bookings (see :meth:`Resource.is_tail`): releasing an
        interior booking would leave later bookings floating on a horizon
        that no longer exists.  Raises :class:`ValueError` otherwise, and
        releases nothing.  Returns the total *busy* seconds given back.
        """
        by_resource: Dict[str, List[Booking]] = {}
        for booking in bookings:
            by_resource.setdefault(booking.resource, []).append(booking)
        resolved: List[Tuple[Resource, List[Booking]]] = []
        for key, group in by_resource.items():
            existing = self._resources.get(key)
            if existing is None:
                raise ValueError(f"unknown resource {key!r}")
            if not existing.is_tail(group):
                raise ValueError(
                    f"can only release the tail of {key!r}: later bookings "
                    f"exist past the requested ones"
                )
            resolved.append((existing, group))
        released_ids = {id(b) for b in bookings}
        if len(released_ids) != len(bookings):
            raise ValueError("duplicate bookings in release set")
        released_busy = 0.0
        for resource, group in resolved:
            keep = len(resource._bookings) - len(group)
            for stale in resource._bookings[keep:]:
                if stale.busy:
                    resource.busy_s -= stale.duration_s
                    released_busy += stale.duration_s
                resource.wait_s -= stale.wait_s
            del resource._bookings[keep:]
            resource.num_bookings -= len(group)
            resource.free_s = resource._bookings[-1].end_s if keep else 0.0
        self.events[:] = [e for e in self.events if id(e) not in released_ids]
        return released_busy

    def truncate(self, booking: Booking, end_s: float) -> Booking:
        """Shorten an in-flight tail booking to end at ``end_s``.

        The chunk-boundary half of preemption: a streamed job's compute
        booking that straddles the preemption instant is cut at the first
        chunk boundary past it; the work before the cut stands, the rest
        is given back.  ``booking`` must be the newest booking on its
        resource and ``end_s`` must fall inside it.  Returns the shortened
        replacement :class:`Booking` (the original is dropped from the
        trace).
        """
        existing = self._resources.get(booking.resource)
        if existing is None or existing.last_booking is not booking:
            raise ValueError(
                f"can only truncate the newest booking of {booking.resource!r}"
            )
        if not (booking.start_s <= end_s <= booking.end_s):
            raise ValueError(
                f"truncation point {end_s} outside booking "
                f"[{booking.start_s}, {booking.end_s}]"
            )
        shortened = replace(booking, end_s=end_s)
        existing._bookings[-1] = shortened
        existing.free_s = end_s
        if booking.busy:
            existing.busy_s -= booking.end_s - end_s
        for i in range(len(self.events) - 1, -1, -1):
            if self.events[i] is booking:
                self.events[i] = shortened
                break
        else:  # pragma: no cover - _bookings and events always agree
            raise ValueError("booking missing from the event trace")
        return shortened

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def makespan_s(self) -> float:
        """Completion time of the last booking (0 on an empty timeline)."""
        return max((e.end_s for e in self.events), default=0.0)

    def busy_s(self, key: str) -> float:
        """Accumulated busy seconds of one resource (0 when never booked)."""
        existing = self._resources.get(key)
        return existing.busy_s if existing is not None else 0.0

    def wait_s(self, key: str) -> float:
        """Accumulated queueing delay of one resource (0 when never booked)."""
        existing = self._resources.get(key)
        return existing.wait_s if existing is not None else 0.0

    def free_s(self, key: str) -> float:
        """Busy-until horizon of one resource (0 when never booked)."""
        existing = self._resources.get(key)
        return existing.free_s if existing is not None else 0.0

    def utilization(self, key: str, *, makespan_s: Optional[float] = None) -> float:
        """Busy fraction of one resource over the makespan, in ``[0, 1]``."""
        existing = self._resources.get(key)
        if existing is None:
            return 0.0
        return existing.utilization(makespan_s)

    def utilizations(self, *, category: Optional[str] = None) -> Dict[str, float]:
        """Per-resource busy fractions (optionally one category only)."""
        span = self.makespan_s
        return {
            r.key: r.utilization(span)
            for r in self._resources.values()
            if category is None or r.category == category
        }

    def violations(self, *, makespan_s: Optional[float] = None) -> Dict[str, float]:
        """Resources whose busy time exceeds the span they were booked in.

        A serial resource accumulates busy seconds only through bookings
        that fit inside the makespan, so ``busy_s > makespan`` is an
        over-booking bug (double-counted busy time), never a legitimate
        state.  Returns ``{key: busy_s - span}`` for every offender, as a
        plain ``float`` (bookings may accumulate NumPy scalars) — an empty
        dict on a healthy timeline.  A tiny relative epsilon absorbs float
        summation noise across many bookings.
        """
        span = self.makespan_s if makespan_s is None else makespan_s
        tolerance = 1e-9 * max(span, 1.0)
        return {
            r.key: float(r.busy_s - span)
            for r in self._resources.values()
            if r.busy_s > span + tolerance
        }

    def events_for(
        self,
        *,
        resource: Optional[str] = None,
        category: Optional[str] = None,
        busy_only: bool = False,
    ) -> List[Booking]:
        """The trace, filtered by resource key and/or category."""
        return [
            e
            for e in self.events
            if (resource is None or e.resource == resource)
            and (category is None or e.category == category)
            and (not busy_only or e.busy)
        ]

    # ------------------------------------------------------------------ #
    # Chrome tracing export
    # ------------------------------------------------------------------ #
    def chrome_trace(self) -> Dict[str, object]:
        """The trace as a Chrome ``chrome://tracing`` JSON object.

        One trace thread per resource (named by its key), one complete
        (``ph: "X"``) event per booking, timestamps in microseconds.  Load
        the file in ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        tids = {key: i for i, key in enumerate(self._resources)}
        trace_events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": key},
            }
            for key, tid in tids.items()
        ]
        for event in self.events:
            args: Dict[str, object] = {"busy": event.busy}
            if event.span is not None:
                args["job_id"] = event.span.job_id
                if event.span.kernel:
                    args["kernel"] = event.span.kernel
                if event.span.phase:
                    args["phase"] = event.span.phase
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": tids[event.resource],
                    "name": event.label or event.resource,
                    "cat": event.category or "task",
                    "ts": event.start_s * 1e6,
                    "dur": event.duration_s * 1e6,
                    "args": args,
                }
            )
        return {"displayTimeUnit": "ms", "traceEvents": trace_events}

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
            handle.write("\n")


# ---------------------------------------------------------------------- #
# The out-of-core stream pipeline
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChunkTiming:
    """Transfer and compute cost of one pipelined chunk (seconds)."""

    transfer_s: float
    compute_s: float

    def __post_init__(self) -> None:
        if self.transfer_s < 0 or self.compute_s < 0:
            raise ValueError(
                f"chunk times must be non-negative, got "
                f"transfer={self.transfer_s}, compute={self.compute_s}"
            )

    @property
    def serial_s(self) -> float:
        """Cost when transfer and compute cannot overlap."""
        return self.transfer_s + self.compute_s


@dataclass(frozen=True)
class StreamSchedule:
    """Resolved pipeline schedule for a sequence of chunks.

    Attributes
    ----------
    num_streams:
        Buffers/streams in flight (1 disables overlap).
    timings:
        The per-chunk :class:`ChunkTiming` inputs, in execution order.
    transfer_ends / compute_ends:
        Absolute completion times of each chunk's copy and kernel.
    """

    num_streams: int
    timings: Tuple[ChunkTiming, ...]
    transfer_ends: Tuple[float, ...]
    compute_ends: Tuple[float, ...]

    # ------------------------------------------------------------------ #
    @property
    def total_time_s(self) -> float:
        """Makespan of the pipeline (last kernel completion)."""
        return self.compute_ends[-1] if self.compute_ends else 0.0

    @property
    def transfer_time_s(self) -> float:
        """Total PCIe busy time (sum of chunk transfers)."""
        return sum(t.transfer_s for t in self.timings)

    @property
    def compute_time_s(self) -> float:
        """Total kernel busy time (sum of chunk computes)."""
        return sum(t.compute_s for t in self.timings)

    @property
    def serial_time_s(self) -> float:
        """Time with no overlap at all: ``sum(transfer + compute)``."""
        return self.transfer_time_s + self.compute_time_s

    @property
    def ideal_time_s(self) -> float:
        """Perfect-overlap lower bound: ``max(sum transfer, sum compute)``.

        Unattainable in full — the first transfer and the last kernel can
        never be hidden — so a real schedule lands strictly between this and
        :attr:`serial_time_s` whenever there are at least two chunks with
        non-trivial costs on both sides.
        """
        return max(self.transfer_time_s, self.compute_time_s)

    @property
    def overlap_saved_s(self) -> float:
        """Wall-clock seconds the pipeline saved over serial execution."""
        return self.serial_time_s - self.total_time_s

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the ideal overlap saving actually achieved (0..1).

        Clamped below at 0: a serial schedule's saving is exactly zero, but
        the two sides are accumulated in different orders and may differ by
        a few ulps.
        """
        attainable = self.serial_time_s - self.ideal_time_s
        if attainable <= 0.0:
            return 1.0
        return max(0.0, self.overlap_saved_s / attainable)


def schedule_chunks(timings: Sequence[ChunkTiming], num_streams: int) -> StreamSchedule:
    """Resolve the pipelined schedule of ``timings`` with ``num_streams`` buffers.

    The pipeline runs on a device's two serial engines:

    * chunk ``i``'s **transfer** holds the copy engine, no earlier than the
      kernel completion of chunk ``i - num_streams`` (its buffer must have
      been released);
    * chunk ``i``'s **kernel** holds the compute engine, no earlier than
      its own transfer landing.

    Each task starts at ``max(ready, engine free)`` and ends its duration
    later, the arithmetic of :meth:`Resource.book`, so the resolved times
    are bit-identical to booking the chunks on a timeline.  Every duration
    must be finite and non-negative.

    Returns a :class:`StreamSchedule`; an empty ``timings`` yields a
    schedule with ``total_time_s == 0``.
    """
    num_streams = check_positive_int(num_streams, "num_streams")
    transfer_ends: List[float] = []
    compute_ends: List[float] = []
    copy_free = compute_free = 0.0
    for i, timing in enumerate(timings):
        if not isinstance(timing, ChunkTiming):
            raise TypeError(f"timings[{i}] must be a ChunkTiming, got {type(timing).__name__}")
        if not (math.isfinite(timing.transfer_s) and math.isfinite(timing.compute_s)):
            raise ValueError(f"timings[{i}] must be finite, got {timing}")
        buffer_free = compute_ends[i - num_streams] if i >= num_streams else 0.0
        copy_free = max(buffer_free, copy_free) + timing.transfer_s
        compute_free = max(copy_free, compute_free) + timing.compute_s
        transfer_ends.append(copy_free)
        compute_ends.append(compute_free)
    return StreamSchedule(
        num_streams=num_streams,
        timings=tuple(timings),
        transfer_ends=tuple(transfer_ends),
        compute_ends=tuple(compute_ends),
    )
