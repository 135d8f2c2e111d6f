"""The ambient telemetry slot and request-scoped trace context.

Instrumented library code (the serving engine, the statistics store,
the indexes, trainers, timers) finds its telemetry in one place: the
:class:`Telemetry` object in the ambient slot.  :class:`use_telemetry`
puts one there for a block and restores the outer one on exit (also on
an exception); :func:`current_telemetry` reads it, and hands back an
empty :class:`Telemetry` — every field None — when telemetry is off, so
a call site pays one lookup and one ``None`` check per surface.

The slot also carries the request in flight.  :class:`request_scope`
wraps every public serving entry point:

* the outermost scope opens a fresh trace — a :class:`TraceContext`
  with ``trace_id`` / ``span_id`` / ``parent_id`` and string
  ``baggage`` — that instrumented code stamps onto everything it emits
  (monitor samples, alerts, span events);
* nested scopes (``top_k`` lazily calling ``refresh``) become child
  spans of the same trace, so the finished request carries the whole
  causal chain;
* a finished root request becomes one :class:`RequestRecord` (duration,
  status, engine decisions, span occurrences), handed to the slot's SLO
  tracker and then to its flight recorder.

With telemetry off, a request scope costs two small object allocations.

>>> from repro.obs.context import current_telemetry, request_scope
>>> with request_scope("demo") as ctx:
...     assert current_telemetry().context is ctx
>>> current_telemetry().context is None
True
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # annotations only: those modules import this one
    from repro.obs.callbacks import TrainerCallback
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.quality import QualityMonitor
    from repro.obs.slo import SLOTracker
    from repro.obs.tracing import Tracer

__all__ = [
    "Telemetry",
    "TraceContext",
    "RequestRecord",
    "current_telemetry",
    "use_telemetry",
    "request_scope",
    "new_trace_id",
]

# Process-unique prefix + monotonically increasing counter: cheap (no
# entropy per call) yet collision-free across engines in one process.
_ID_PREFIX = os.urandom(4).hex()
_ID_COUNTER = itertools.count(1)

# Spans kept per request before the context stops recording (a runaway
# request cannot grow without bound inside the flight recorder).
MAX_SPANS_PER_REQUEST = 512


def new_trace_id() -> str:
    """A process-unique trace identifier (hex prefix + sequence)."""
    return f"{_ID_PREFIX}-{next(_ID_COUNTER):08x}"


class TraceContext:
    """Identity of one in-flight request (or one unit of work within it).

    Attributes
    ----------
    trace_id:
        Shared by every context in one request tree.
    span_id:
        This context's own identifier.
    parent_id:
        ``span_id`` of the enclosing context (None at the root).
    kind:
        Free-form label of the work unit (``"ingest"``, ``"refresh"``...).
    baggage:
        Small string-to-string map propagated to every child — use it for
        routing keys such as an experiment arm, never for payloads.
    """

    __slots__ = (
        "trace_id",
        "_span_id",
        "parent_id",
        "kind",
        "baggage",
        "spans",
        "decisions",
        "spans_dropped",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        kind: str = "",
        baggage: Optional[Dict[str, str]] = None,
        spans: Optional[List[Tuple[str, float, float]]] = None,
        decisions: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self._span_id: Optional[str] = None
        self.parent_id = parent_id
        self.kind = kind
        self.baggage: Dict[str, str] = baggage if baggage is not None else {}
        # The root's span/decision storage is *shared* by reference with
        # every child context, so nested work lands on the same request.
        self.spans: List[Tuple[str, float, float]] = (
            spans if spans is not None else []
        )
        self.decisions: Dict[str, object] = (
            decisions if decisions is not None else {}
        )
        self.spans_dropped = 0

    @property
    def span_id(self) -> str:
        """This context's own identifier (generated on first use).

        Lazy because most requests never open a child scope — skipping
        the id for leaves keeps the request-scope hot path cheap.
        """
        if self._span_id is None:
            self._span_id = new_trace_id()
        return self._span_id

    def child(self, kind: str) -> "TraceContext":
        """A child context: same trace, this span as parent, shared storage."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_id=self.span_id,
            kind=kind,
            baggage=self.baggage,
            spans=self.spans,
            decisions=self.decisions,
        )

    def record_span(self, path: str, start: float, elapsed: float) -> None:
        """Attach one span occurrence (perf_counter start) to the request."""
        if len(self.spans) < MAX_SPANS_PER_REQUEST:
            self.spans.append((path, start, elapsed))
        else:
            self.spans_dropped += 1

    def note(self, key: str, value: object) -> None:
        """Record one engine decision (served count, cache hit, ...)."""
        self.decisions[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(trace_id={self.trace_id!r}, kind={self.kind!r}, "
            f"span_id={self.span_id!r}, parent_id={self.parent_id!r})"
        )


@dataclass
class RequestRecord:
    """One completed root request, as handed to the SLO and flight hooks.

    ``spans`` carry absolute ``perf_counter`` starts; :meth:`as_dict`
    renders them relative to the request start for JSONL bundles.
    """

    trace_id: str
    kind: str
    started_unix: float
    started_perf: float
    duration_seconds: float
    status: str  # "ok" | "error"
    error: Optional[str] = None
    decisions: Dict[str, object] = field(default_factory=dict)
    spans: List[Tuple[str, float, float]] = field(default_factory=list)
    spans_dropped: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (span starts relative to the request)."""
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "started_unix": self.started_unix,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "error": self.error,
            "decisions": dict(self.decisions),
            "spans": [
                {
                    "path": path,
                    "start_seconds": start - self.started_perf,
                    "duration_seconds": elapsed,
                }
                for path, start, elapsed in self.spans
            ],
            "spans_dropped": self.spans_dropped,
        }

    def span_self_times(self) -> Dict[str, float]:
        """Exclusive (self) time per span path within this request.

        A span's children are exactly the recorded spans whose path
        extends it by one segment; their durations are subtracted from
        the parent's to give hot-path attribution without exporting a
        Chrome trace.
        """
        totals: Dict[str, float] = {}
        child_time: Dict[str, float] = {}
        for path, _, elapsed in self.spans:
            totals[path] = totals.get(path, 0.0) + elapsed
            if "/" in path:
                parent = path.rsplit("/", 1)[0]
                child_time[parent] = child_time.get(parent, 0.0) + elapsed
        return {
            path: total - child_time.get(path, 0.0)
            for path, total in totals.items()
        }

    def hottest_span(self) -> Optional[str]:
        """The span path with the largest self time (None without spans)."""
        self_times = self.span_self_times()
        if not self_times:
            return None
        return max(self_times.items(), key=lambda item: item[1])[0]


# ----------------------------------------------------------------------
# The ambient slot
# ----------------------------------------------------------------------
@dataclass
class Telemetry:
    """Everything instrumented code may report into; any field may be None.

    ``context`` is the innermost request's :class:`TraceContext`, kept
    by :class:`request_scope`.  ``slo`` and ``flight`` are read when a
    root request finishes, and their hooks are called through the
    instance then, never bound in advance.
    """

    registry: Optional["MetricsRegistry"] = None
    tracer: Optional["Tracer"] = None
    monitor: Optional["QualityMonitor"] = None
    slo: Optional["SLOTracker"] = None
    flight: Optional["FlightRecorder"] = None
    callback: Optional["TrainerCallback"] = None
    context: Optional[TraceContext] = field(default=None, repr=False, compare=False)


_ACTIVE_TELEMETRY = Telemetry()


def current_telemetry() -> Telemetry:
    """The telemetry in the ambient slot (all fields None when off)."""
    return _ACTIVE_TELEMETRY


class use_telemetry:
    """Put ``telemetry`` in the ambient slot for the enclosed block."""

    __slots__ = ("telemetry", "_outer")

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._outer: Optional[Telemetry] = None

    def __enter__(self) -> Telemetry:
        global _ACTIVE_TELEMETRY
        self._outer = _ACTIVE_TELEMETRY
        _ACTIVE_TELEMETRY = self.telemetry
        return self.telemetry

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _ACTIVE_TELEMETRY
        _ACTIVE_TELEMETRY = self._outer


class request_scope:
    """Scope one serving request: open or extend a trace, feed the hooks.

    Entering outside any request opens a *root* request (fresh
    ``trace_id``); entering inside one opens a child span of the same
    trace and produces no record of its own — the root accounts for the
    nested work.  Exceptions mark the request ``"error"`` and propagate
    after the hooks ran (the flight recorder uses that to dump a
    postmortem bundle).
    """

    __slots__ = (
        "kind", "baggage", "context", "_telemetry", "_parent",
        "_start_perf", "_start_unix",
    )

    def __init__(self, kind: str, baggage: Optional[Dict[str, str]] = None) -> None:
        self.kind = kind
        self.baggage = baggage
        self.context: Optional[TraceContext] = None
        self._telemetry: Optional[Telemetry] = None
        self._parent: Optional[TraceContext] = None
        self._start_perf = 0.0
        self._start_unix = 0.0

    def __enter__(self) -> TraceContext:
        telemetry = self._telemetry = _ACTIVE_TELEMETRY
        parent = self._parent = telemetry.context
        if parent is None:
            context = TraceContext(kind=self.kind, baggage=self.baggage)
            if telemetry.slo is not None or telemetry.flight is not None:
                self._start_unix = time.time()
        else:
            context = parent.child(self.kind)
            if self.baggage:
                context.baggage.update(self.baggage)
        # Written through the slot's name, not the local, so the effects
        # analyzer reports this process-wide write.
        self.context = _ACTIVE_TELEMETRY.context = context
        self._start_perf = time.perf_counter()
        return context

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        duration = time.perf_counter() - self._start_perf
        telemetry = self._telemetry
        telemetry.context = self._parent
        if self._parent is not None:
            return
        slo, flight = telemetry.slo, telemetry.flight
        if slo is None and flight is None:
            return
        context = self.context
        record = RequestRecord(
            trace_id=context.trace_id,
            kind=context.kind,
            started_unix=self._start_unix,
            started_perf=self._start_perf,
            duration_seconds=duration,
            status="ok" if exc_type is None else "error",
            error=None if exc_value is None else repr(exc_value),
            decisions=context.decisions,
            spans=context.spans,
            spans_dropped=context.spans_dropped,
        )
        if slo is not None:
            slo.on_request(record)
        if flight is not None:
            flight.on_request(record)
