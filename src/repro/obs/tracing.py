"""Span tracing: nested wall-clock timing with call counts.

A :class:`Tracer` aggregates timing by *span path*: entering a span while
another is open nests it, and the child's statistics are recorded under
``"parent/child"``.  Spans are cheap (two ``perf_counter`` calls plus a
dict update), so instrumented paths can stay traced in production runs.

>>> from repro.obs import Tracer
>>> tracer = Tracer()
>>> with tracer.span("refresh"):
...     with tracer.span("encode"):
...         pass
>>> sorted(tracer.report())
['refresh', 'refresh/encode']

Instrumented library code uses :func:`maybe_span`, which resolves the
currently active tracer (see :class:`use_tracer`) and degrades to a no-op
context manager when tracing is off.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.context import _ACTIVE_CONTEXTS as _CONTEXT_STACK
from repro.obs.metrics import get_active_registry

__all__ = ["SpanStats", "Span", "Tracer", "get_active_tracer", "use_tracer", "maybe_span"]


@dataclass
class SpanStats:
    """Aggregated timing for one span path.

    ``child_seconds`` accumulates the wall time spent inside *direct*
    child spans, so ``self_seconds`` — the span's exclusive time — is
    available without exporting a Chrome trace.
    """

    calls: int = 0
    total_seconds: float = 0.0
    min_seconds: float = math.inf
    max_seconds: float = 0.0
    child_seconds: float = 0.0

    def record(self, elapsed: float, child_seconds: float = 0.0) -> None:
        self.calls += 1
        self.total_seconds += elapsed
        if elapsed < self.min_seconds:
            self.min_seconds = elapsed
        if elapsed > self.max_seconds:
            self.max_seconds = elapsed
        self.child_seconds += child_seconds

    @property
    def self_seconds(self) -> float:
        """Exclusive time: total minus time spent in direct children."""
        return self.total_seconds - self.child_seconds


class Span:
    """Context manager timing one section under the tracer's current path."""

    __slots__ = ("_tracer", "name", "path", "_start", "elapsed")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        if not name or "/" in name:
            raise ValueError(f"span name must be non-empty and '/'-free, got {name!r}")
        self._tracer = tracer
        self.name = name
        self.path: Optional[str] = None
        self._start: Optional[float] = None
        self.elapsed = 0.0

    # Enter/exit inline the tracer bookkeeping: spans sit on serving hot
    # paths at hundreds per request batch, so the extra method hops of a
    # tracer._push/_pop pair are measurable in the overhead bench.
    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack
        path = f"{stack[-1]}/{self.name}" if stack else self.name
        self.path = path
        stack.append(path)
        tracer._child_acc.append(0.0)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        start = self._start
        if start is None:
            return
        elapsed = time.perf_counter() - start
        self.elapsed = elapsed
        self._start = None
        tracer = self._tracer
        path = self.path
        stack = tracer._stack
        children = 0.0
        if stack and stack[-1] == path:
            stack.pop()
            acc = tracer._child_acc
            children = acc.pop()
            if acc:
                acc[-1] += elapsed
        stats = tracer._stats.get(path)
        if stats is None:
            stats = tracer._stats[path] = SpanStats()
        stats.record(elapsed, children)
        context = _CONTEXT_STACK[-1] if _CONTEXT_STACK else None
        if context is not None:
            context.record_span(path, start, elapsed)
        if tracer.record_events:
            events = tracer._events
            if len(events) < tracer.max_events:
                events.append(
                    (path, start, elapsed,
                     None if context is None else context.trace_id)
                )
            else:
                # Silent span loss would poison trace-based conclusions:
                # surface the overflow as a counter and in every export.
                tracer.dropped_events += 1
                registry = get_active_registry()
                if registry is not None:
                    registry.counter("tracer.events_dropped").inc()


class Tracer:
    """Collects :class:`SpanStats` keyed by nested span path.

    With ``record_events=True`` (the default) the tracer additionally
    keeps a bounded list of individual span occurrences — ``(path,
    absolute perf_counter start, duration)`` — which
    :meth:`to_chrome_trace` exports in the Chrome Trace Event Format
    (load the file in ``chrome://tracing`` or https://ui.perfetto.dev).
    Recording stops once ``max_events`` occurrences have been kept;
    :attr:`dropped_events` counts the overflow, the active registry's
    ``tracer.events_dropped`` counter mirrors it, and both
    :meth:`to_text` and :meth:`to_chrome_trace` report the drop count so
    a truncated timeline can never pass for a complete one.  Aggregated
    :class:`SpanStats` are unaffected by the cap.

    When a :class:`~repro.obs.context.TraceContext` is active, each
    recorded occurrence additionally carries the request's ``trace_id``
    (exported in Chrome-trace ``args``) and is appended to the request's
    own span list for the flight recorder.
    """

    def __init__(self, record_events: bool = True, max_events: int = 65536) -> None:
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        self._stats: Dict[str, SpanStats] = {}
        self._stack: List[str] = []
        self._child_acc: List[float] = []  # child time of each open span
        self.record_events = record_events
        self.max_events = max_events
        # (path, absolute perf_counter start, duration, trace_id) per
        # occurrence; trace_id is None outside any request scope.
        self._events: List[Tuple[str, float, float, Optional[str]]] = []
        self.dropped_events = 0

    def span(self, name: str) -> Span:
        """A context manager timing ``name`` nested under any open spans."""
        return Span(self, name)

    def stats(self, path: str) -> SpanStats:
        """Aggregated stats for one span path (KeyError if never entered)."""
        return self._stats[path]

    def report(self) -> Dict[str, SpanStats]:
        """All span paths with their aggregated stats."""
        return dict(self._stats)

    def iter_records(self):
        """One JSON-friendly record per span path (sorted)."""
        for path in sorted(self._stats):
            stats = self._stats[path]
            yield {
                "path": path,
                "calls": stats.calls,
                "total_seconds": stats.total_seconds,
                "self_seconds": stats.self_seconds,
                "min_seconds": stats.min_seconds,
                "max_seconds": stats.max_seconds,
            }

    def to_text(self) -> str:
        """Indented tree-ish dump ordered by path (with exclusive time)."""
        lines = []
        for record in self.iter_records():
            depth = record["path"].count("/")
            lines.append(
                "  " * depth
                + f"{record['path'].rsplit('/', 1)[-1]} "
                + f"calls={record['calls']} total={record['total_seconds']:.6g}s "
                + f"self={record['self_seconds']:.6g}s"
            )
        if self.dropped_events:
            lines.append(
                f"events dropped: {self.dropped_events} "
                f"(cap max_events={self.max_events}; aggregated stats are "
                "complete, per-event exports are truncated)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome Trace Event Format export
    # ------------------------------------------------------------------
    def chrome_trace_events(
        self, origin: Optional[float] = None, pid: int = 1, tid: int = 1
    ) -> List[Dict[str, object]]:
        """Recorded occurrences as Trace Event Format ``"X"`` events.

        ``origin`` is the perf_counter instant mapped to ``ts=0``; it
        defaults to the earliest recorded start, and callers merging
        several event sources (e.g. a tracer plus an autograd profiler)
        pass a shared origin so the timelines align.
        """
        if not self._events:
            return []
        if origin is None:
            origin = min(start for _, start, _, _ in self._events)
        events: List[Dict[str, object]] = []
        for path, start, elapsed, trace_id in self._events:
            args: Dict[str, object] = {"path": path}
            if trace_id is not None:
                args["trace_id"] = trace_id
            events.append(
                {
                    "name": path.rsplit("/", 1)[-1],
                    "cat": "span",
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": elapsed * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        return events

    def earliest_event_start(self) -> Optional[float]:
        """Earliest recorded perf_counter start (None without events)."""
        if not self._events:
            return None
        return min(start for _, start, _, _ in self._events)

    def to_chrome_trace(self) -> str:
        """The recorded events as a Chrome/Perfetto-loadable JSON string.

        The top-level ``metadata`` object carries the event-recording
        accounting — in particular ``events_dropped``, so a truncated
        timeline is detectable from the file alone.
        """
        return json.dumps(
            {
                "traceEvents": self.chrome_trace_events(),
                "displayTimeUnit": "ms",
                "metadata": {
                    "events_recorded": len(self._events),
                    "events_dropped": self.dropped_events,
                    "max_events": self.max_events,
                },
            }
        )


# ----------------------------------------------------------------------
# Active-tracer scoping
# ----------------------------------------------------------------------
_ACTIVE_TRACERS: List[Tracer] = []


def get_active_tracer() -> Optional[Tracer]:
    """The innermost active tracer, or None when tracing is off."""
    return _ACTIVE_TRACERS[-1] if _ACTIVE_TRACERS else None


class use_tracer:
    """Context manager activating ``tracer`` for the enclosed block."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        _ACTIVE_TRACERS.append(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        for position in range(len(_ACTIVE_TRACERS) - 1, -1, -1):
            if _ACTIVE_TRACERS[position] is self._tracer:
                del _ACTIVE_TRACERS[position]
                break


class _NullSpan:
    """No-op stand-in used when no tracer is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        return None


_NULL_SPAN = _NullSpan()


def maybe_span(name: str):
    """A span on the active tracer, or a shared no-op context manager."""
    return Span(_ACTIVE_TRACERS[-1], name) if _ACTIVE_TRACERS else _NULL_SPAN
