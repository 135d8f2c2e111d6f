"""Request-scoped trace context: follow one request through the engine.

PR 1's :class:`~repro.obs.tracing.Tracer` aggregates span stats globally
— good for "where does time go overall", useless for "why was *this*
request slow".  This module adds the per-request layer:

* a :class:`TraceContext` — ``trace_id`` / ``span_id`` / ``parent_id``
  plus free-form string ``baggage`` — that instrumented code resolves
  with :func:`current_trace_context` and stamps onto everything it
  emits (monitor samples, alerts, telemetry records, span events);
* :class:`request_scope`, the context manager the serving engine wraps
  every public entry point in.  The outermost scope opens a fresh trace;
  nested scopes (``top_k`` lazily calling ``refresh``) become child
  spans of the same trace, so the finished request carries the whole
  causal chain;
* request observers — the flight recorder and the SLO tracker register
  themselves while active and receive one :class:`RequestRecord` per
  completed root request (duration, status, engine decisions, span
  occurrences).

Like every other obs surface the context layer is pay-for-what-you-use:
with no observers, no tracer and no monitor active, a request scope
costs one counter increment and two small object allocations.

>>> from repro.obs.context import current_trace_context, request_scope
>>> with request_scope("demo") as ctx:
...     inner = current_trace_context()
...     assert inner.trace_id == ctx.trace_id
>>> current_trace_context() is None
True
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TraceContext",
    "RequestRecord",
    "current_trace_context",
    "request_scope",
    "new_trace_id",
    "register_request_observer",
    "unregister_request_observer",
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
    """One completed root request, as handed to request observers.

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
# Active-context scoping (mirrors use_registry / use_tracer)
# ----------------------------------------------------------------------
_ACTIVE_CONTEXTS: List[TraceContext] = []


def current_trace_context() -> Optional[TraceContext]:
    """The innermost active trace context, or None outside any request."""
    return _ACTIVE_CONTEXTS[-1] if _ACTIVE_CONTEXTS else None


# ----------------------------------------------------------------------
# Request observers (flight recorder, SLO tracker)
# ----------------------------------------------------------------------
_REQUEST_OBSERVERS: List[object] = []


def register_request_observer(observer: object) -> None:
    """Start delivering completed :class:`RequestRecord`s to ``observer``.

    ``observer`` must expose ``on_request(record: RequestRecord)``.
    """
    _REQUEST_OBSERVERS.append(observer)


def unregister_request_observer(observer: object) -> None:
    """Stop delivering requests to ``observer`` (no-op when absent)."""
    for position in range(len(_REQUEST_OBSERVERS) - 1, -1, -1):
        if _REQUEST_OBSERVERS[position] is observer:
            del _REQUEST_OBSERVERS[position]
            break


class request_scope:
    """Scope one serving request: open/propagate a trace, notify observers.

    Entering with no active context opens a *root* request (fresh
    ``trace_id``); entering inside one opens a child span of the same
    trace and produces no separate observer record — the root accounts
    for the nested work.  Exceptions mark the request ``"error"`` and
    propagate after observers are notified (the flight recorder uses
    that to dump a postmortem bundle).
    """

    __slots__ = ("kind", "baggage", "context", "_root", "_start_perf", "_start_unix")

    def __init__(self, kind: str, baggage: Optional[Dict[str, str]] = None) -> None:
        self.kind = kind
        self.baggage = baggage
        self.context: Optional[TraceContext] = None
        self._root = False
        self._start_perf = 0.0
        self._start_unix = 0.0

    def __enter__(self) -> TraceContext:
        parent = current_trace_context()
        self._root = parent is None
        if parent is None:
            self.context = TraceContext(kind=self.kind, baggage=self.baggage)
        else:
            self.context = parent.child(self.kind)
            if self.baggage:
                self.context.baggage.update(self.baggage)
        _ACTIVE_CONTEXTS.append(self.context)
        self._start_perf = time.perf_counter()
        if self._root and _REQUEST_OBSERVERS:
            self._start_unix = time.time()
        return self.context

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        duration = time.perf_counter() - self._start_perf
        for position in range(len(_ACTIVE_CONTEXTS) - 1, -1, -1):
            if _ACTIVE_CONTEXTS[position] is self.context:
                del _ACTIVE_CONTEXTS[position]
                break
        if not self._root or not _REQUEST_OBSERVERS:
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
        for observer in list(_REQUEST_OBSERVERS):
            observer.on_request(record)
