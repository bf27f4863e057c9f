"""Structured JSONL event log for the scheduler event loop.

Where the metrics registry answers "how much", the event log answers
"what happened, in order": every admission, dispatch, preemption,
failure and recovery decision the serving scheduler takes is appended
as one :class:`Event` and exported one-JSON-object-per-line (``python -m
repro serve --events out.jsonl``).

The schema is stable and versioned so downstream consumers (trace
replay, post-run analysis) can parse old logs:

* every line carries ``v`` (schema version), ``seq`` (0-based emission
  index), ``t`` (simulated seconds), ``kind``, ``job_id`` (empty for
  cluster-level events);
* ``kind`` is drawn from the closed :data:`EVENT_KINDS` vocabulary;
* event-specific detail fields follow in sorted key order.

All timestamps are simulated time — like the metrics registry, the log
never reads a wall clock, so a fixed seed yields a byte-identical file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

__all__ = ["EVENT_SCHEMA_VERSION", "EVENT_KINDS", "Event", "EventLog"]

#: Bump when a line's layout changes incompatibly.
EVENT_SCHEMA_VERSION = 1

#: The closed vocabulary of event kinds the scheduler emits.
EVENT_KINDS = (
    "admit",  # job accepted into the ready queue
    "reject",  # job refused by admission control or out of memory at execution
    "dispatch",  # job placed and committed onto device resources
    "complete",  # job's committed work finished
    "preempt",  # victim released/truncated for a latency job
    "resume",  # preempted victim re-booked from its ledger
    "node_failure",  # chaos: a node was lost
    "node_recovery",  # cluster re-formed on the survivors
    "requeue",  # in-flight victim of a failure re-admitted
)


@dataclass(frozen=True)
class Event:
    """One structured log line (before JSON encoding)."""

    seq: int
    time_s: float
    kind: str
    job_id: str = ""
    fields: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """The stable wire layout: fixed header keys, sorted detail keys."""
        out: Dict[str, object] = {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "t": self.time_s,
            "kind": self.kind,
            "job_id": self.job_id,
        }
        for key, value in self.fields:
            out[key] = value
        return out


@dataclass
class EventLog:
    """A deterministic event log.

    Emission is append-only, but the scheduler commits work *ahead* of
    simulated time — a ``dispatch``/``complete`` pair carries future
    timestamps — so a commitment that is later revoked (a preempted
    victim, a chaos teardown) must also revoke its provisional events
    with :meth:`retract`.
    """

    events: List[Event] = field(default_factory=list)

    def emit(self, kind: str, *, time_s: float, job_id: str = "", **fields: object) -> Event:
        """Append one event; detail ``fields`` are stored in sorted key order.

        ``kind`` must come from :data:`EVENT_KINDS` and detail fields may
        not collide with the header keys — both are schema guarantees, so
        violations raise instead of producing unparseable logs.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
        if not math.isfinite(time_s) or time_s < 0.0:
            raise ValueError(f"event time must be finite and non-negative, got {time_s}")
        reserved = {"v", "seq", "t", "kind", "job_id"} & set(fields)
        if reserved:
            raise ValueError(f"detail fields shadow header keys: {sorted(reserved)}")
        event = Event(
            seq=len(self.events),
            time_s=float(time_s),
            kind=kind,
            job_id=job_id,
            fields=tuple(sorted(fields.items())),
        )
        self.events.append(event)
        return event

    def retract(self, event: Event) -> None:
        """Remove one previously emitted event (matched by identity).

        For revoking a single provisional event — e.g. a preempted
        victim's stale ``complete`` — without disturbing the real events
        emitted around it.  Surviving events keep their emission-time
        ``seq`` (so handles held elsewhere stay valid); the export
        renumbers by final position, keeping the wire format contiguous.
        """
        for index, candidate in enumerate(self.events):
            if candidate is event:
                del self.events[index]
                return
        raise ValueError(f"event not in log: {event!r}")

    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> Dict[str, int]:
        """Events per kind (only kinds that occurred), in vocabulary order."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            out[event.kind] += 1
        return {kind: n for kind, n in out.items() if n}

    def to_jsonl(self) -> str:
        """The log as JSON Lines (one compact object per event).

        ``seq`` on the wire is the event's final position — after any
        :meth:`retract`, the exported log still numbers 0..n-1.
        """
        return "".join(
            json.dumps(replace(event, seq=index).to_dict(), separators=(",", ":"))
            + "\n"
            for index, event in enumerate(self.events)
        )

    def write(self, path: str) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
