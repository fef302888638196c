"""Structured serve-event log (the input to the queue timeline view).

Every lifecycle transition of a request — submission, admission or
rejection, dedupe/cache-hit short-circuits, group coalescing, start,
completion, cache eviction — appends one :class:`ServeEvent` carrying
the queue and running depths *at that moment*, so the event stream is a
step-function record of service occupancy over time.  The log keeps
the last :data:`SERVE_LOG_CAPACITY` events.
:func:`repro.viz.timeline.render_serve_lanes` renders that tail as
ASCII lanes; the loadgen report embeds it as plain dicts.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Iterable

__all__ = [
    "EVENT_COUNTERS", "EVENT_KINDS", "SERVE_LOG_CAPACITY", "ServeEvent",
    "ServeLog",
]

#: Events a :class:`ServeLog` keeps; older ones are dropped and counted,
#: so a long-lived service holds a bounded tail.
SERVE_LOG_CAPACITY = 4096

#: Every event kind the service emits, in rough lifecycle order, with
#: the counters each adds one to.  A ``{detail}`` name expands to the
#: event's detail and is skipped when the detail is empty.  A request
#: that misses the cache ends in exactly one of dedupe, reject or admit.
EVENT_COUNTERS: dict[str, tuple[str, ...]] = {
    #: request arrived
    "submit": ("serve.requests",),
    #: answered immediately from the result cache
    "cache_hit": ("serve.cache.hits",),
    #: attached to an identical queued job
    "dedupe": ("serve.cache.misses", "serve.deduped"),
    #: admission control refused it (detail = reason)
    "reject": (
        "serve.cache.misses", "serve.rejected", "serve.rejected.{detail}",
    ),
    #: enqueued
    "admit": ("serve.cache.misses",),
    #: a group of queued jobs merged (detail = group size)
    "coalesce": ("serve.groups",),
    #: job began executing
    "start": (),
    #: job finished successfully
    "complete": ("serve.executed", "serve.completed"),
    #: job raised
    "fail": ("serve.failed",),
    #: result cache evicted an entry (LRU)
    "evict": ("serve.cache.evictions",),
    #: a fleet member was lost/quarantined (detail = tag)
    "device_down": ("fleet.quarantined",),
    #: a fleet member was readmitted (detail = tag)
    "device_recovered": ("fleet.readmitted",),
}
EVENT_KINDS = tuple(EVENT_COUNTERS)


@dataclass(slots=True)
class ServeEvent:
    """One service lifecycle event with occupancy depths at its time."""

    ts: float  #: service clock (seconds since the service started)
    kind: str  #: one of :data:`EVENT_KINDS`
    job_id: int = -1
    fingerprint: str = ""
    backend: str = ""
    k: int = 0
    l: int = 0
    queued: int = 0  #: queue depth immediately after the event
    running: int = 0  #: jobs executing immediately after the event
    detail: str = ""
    span_id: int | None = None  #: tracer span id for log correlation

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form for JSON reports."""
        return asdict(self)


class ServeLog:
    """Thread-safe tail of the last :data:`SERVE_LOG_CAPACITY` events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: deque[ServeEvent] = deque(maxlen=SERVE_LOG_CAPACITY)
        #: Events pushed out of the tail so far.
        self.dropped = 0

    def record(self, event: ServeEvent) -> None:
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)

    def snapshot(self) -> list[ServeEvent]:
        """A copy of the retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Plain-data snapshot for JSON reports."""
        return [event.as_dict() for event in self.snapshot()]

    def kinds(self) -> list[str]:
        """The event kinds in order (handy in tests)."""
        return [event.kind for event in self.snapshot()]

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for event in self.snapshot() if event.kind == kind)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> "Iterable[ServeEvent]":
        return iter(self.snapshot())
