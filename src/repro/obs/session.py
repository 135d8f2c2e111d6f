"""One-stop telemetry for a whole run.

A :class:`TelemetrySession` bundles the four telemetry surfaces — a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.tracing.Tracer`, an (optional)
:class:`~repro.obs.autograd.AutogradProfiler` and a
:class:`~repro.obs.callbacks.TelemetryCallback` — activates them all for
the enclosed block, and renders a combined run report afterwards.  This
is what the CLI's ``--telemetry <path>`` flag drives:

>>> from repro.obs import TelemetrySession
>>> with TelemetrySession(profile_autograd=False) as session:
...     session.registry.counter("demo.work").inc()
>>> "demo.work" in session.registry
True

The JSONL report is one JSON object per line, discriminated by ``type``:
``meta``, ``epoch``, ``counter``, ``gauge``, ``histogram``,
``autograd_op``, ``span`` and — when a quality monitor is attached —
``quality``, ``drift``, ``coldstart``, ``monitor_sample`` and ``alert``;
with an SLO tracker also ``slo``, and with a flight recorder ``request``
(see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, IO, Iterator, List, Optional, Union

from repro.obs.autograd import AutogradProfiler
from repro.obs.callbacks import (
    TelemetryCallback,
    register_global_callback,
    unregister_global_callback,
)
from repro.obs.flight import FlightRecorder, use_flight_recorder
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.quality import QualityMonitor, use_monitor
from repro.obs.slo import SLOTracker, use_slo_tracker
from repro.obs.tracing import Tracer, use_tracer

__all__ = ["TelemetrySession"]

_LOGGER = get_logger("obs.session")

# Pre-registered names so run reports always carry the serving-path and
# trainer-stability counters, even when a run never exercised them.
_STANDARD_COUNTERS = (
    "engine.refreshes",
    "engine.cold_path_items",
    "engine.warm_path_items",
    "engine.events_ingested",
    "store.events_ingested",
    "trainer.batches",
    "trainer.divergence_warning",
    "alerts.fired",
)


class TelemetrySession:
    """Activates registry + tracer + profiler + trainer callback together.

    Parameters
    ----------
    registry:
        Use an existing registry instead of a fresh one.
    profile_autograd:
        Attach the per-op autograd profiler (small per-op overhead while
        the session is open; out-of-session code is never affected).
    label:
        Free-form run label recorded in the report's ``meta`` line.
    monitor:
        Attach a model-quality monitor (see
        :class:`~repro.obs.quality.QualityMonitor`): ``True`` builds one
        with defaults, or pass a configured instance.  The monitor is
        activated alongside the registry, so instrumented serving code
        and trainer validation hooks report into it.
    trace_events:
        Record individual span/op occurrences for
        :meth:`write_chrome_trace` (spans always record; autograd op
        events additionally need ``profile_autograd``).
    slo:
        Attach an SLO tracker (see :class:`~repro.obs.slo.SLOTracker`):
        ``True`` builds one with :func:`~repro.obs.slo.\
default_serving_slos`, or pass a configured instance.  While the
        session is open, every completed serving request feeds the
        latency/availability error budgets.
    flight:
        Attach a serving flight recorder (see
        :class:`~repro.obs.flight.FlightRecorder`): ``True`` builds one
        with defaults, or pass a configured instance.
    postmortem_dir:
        Where the flight recorder's automatic postmortem bundles land
        (sets the recorder's ``postmortem_dir`` when it has none).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        profile_autograd: bool = True,
        label: str = "",
        monitor: Union[bool, QualityMonitor, None] = None,
        trace_events: bool = True,
        slo: Union[bool, SLOTracker, None] = None,
        flight: Union[bool, FlightRecorder, None] = None,
        postmortem_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(record_events=trace_events)
        self.profiler = (
            AutogradProfiler(record_events=trace_events)
            if profile_autograd
            else None
        )
        self.callback = TelemetryCallback(self.registry)
        if monitor is None or monitor is False:
            self.monitor: Optional[QualityMonitor] = None
        elif monitor is True:
            self.monitor = QualityMonitor()
        else:
            self.monitor = monitor
        if slo is None or slo is False:
            self.slo: Optional[SLOTracker] = None
        elif slo is True:
            self.slo = SLOTracker()
        else:
            self.slo = slo
        if flight is None or flight is False:
            self.flight: Optional[FlightRecorder] = None
        elif flight is True:
            self.flight = FlightRecorder(postmortem_dir=postmortem_dir)
        else:
            self.flight = flight
        if (
            self.flight is not None
            and postmortem_dir is not None
            and self.flight.postmortem_dir is None
        ):
            self.flight.postmortem_dir = Path(postmortem_dir)
        self.label = label
        self._started_unix: Optional[float] = None
        self._stopped_unix: Optional[float] = None
        self._registry_scope: Optional[use_registry] = None
        self._tracer_scope: Optional[use_tracer] = None
        self._monitor_scope: Optional[use_monitor] = None
        self._slo_scope: Optional[use_slo_tracker] = None
        self._flight_scope: Optional[use_flight_recorder] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TelemetrySession":
        if self._registry_scope is not None:
            raise RuntimeError("telemetry session is already started")
        for name in _STANDARD_COUNTERS:
            self.registry.counter(name)
        self._registry_scope = use_registry(self.registry)
        self._registry_scope.__enter__()
        self._tracer_scope = use_tracer(self.tracer)
        self._tracer_scope.__enter__()
        if self.monitor is not None:
            self._monitor_scope = use_monitor(self.monitor)
            self._monitor_scope.__enter__()
        if self.slo is not None:
            self._slo_scope = use_slo_tracker(self.slo)
            self._slo_scope.__enter__()
        if self.flight is not None:
            self._flight_scope = use_flight_recorder(self.flight)
            self._flight_scope.__enter__()
        register_global_callback(self.callback)
        if self.profiler is not None:
            self.profiler.enable()
        self._started_unix = time.time()
        self._stopped_unix = None
        _LOGGER.debug(kv("telemetry session started", label=self.label))
        return self

    def stop(self) -> None:
        if self._registry_scope is None:
            return
        self._stopped_unix = time.time()
        if self.profiler is not None:
            self.profiler.disable()
        unregister_global_callback(self.callback)
        if self._flight_scope is not None:
            self._flight_scope.__exit__(None, None, None)
            self._flight_scope = None
        if self._slo_scope is not None:
            self._slo_scope.__exit__(None, None, None)
            self._slo_scope = None
        if self._monitor_scope is not None:
            self._monitor_scope.__exit__(None, None, None)
            self._monitor_scope = None
        if self._tracer_scope is not None:
            self._tracer_scope.__exit__(None, None, None)
            self._tracer_scope = None
        self._registry_scope.__exit__(None, None, None)
        self._registry_scope = None
        _LOGGER.debug(kv("telemetry session stopped", label=self.label))

    def __enter__(self) -> "TelemetrySession":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[Dict[str, object]]:
        """Every report line as a JSON-friendly dict."""
        meta: Dict[str, object] = {
            "type": "meta",
            "label": self.label,
            "started_unix": self._started_unix,
            "stopped_unix": self._stopped_unix,
        }
        if self._started_unix is not None:
            meta["duration_seconds"] = (
                self._stopped_unix or time.time()
            ) - self._started_unix
        yield meta
        for index, record in enumerate(self.callback.epochs):
            yield {"type": "epoch", "index": index, "record": record}
        for record in self.registry.iter_records():
            yield dict(record)  # carries its own "type" discriminator
        if self.profiler is not None:
            for record in self.profiler.iter_records():
                out: Dict[str, object] = {"type": "autograd_op"}
                out.update(record)
                yield out
        for record in self.tracer.iter_records():
            out = {"type": "span"}
            out.update(record)
            yield out
        if self.monitor is not None:
            for record in self.monitor.iter_records():
                yield dict(record)  # carries its own "type" discriminator
        if self.slo is not None:
            for record in self.slo.iter_records():
                yield dict(record)
            for alert_record in self.slo.alerts.iter_records():
                out = {"type": "alert", "source": "slo"}
                out.update(alert_record)
                yield out
        if self.flight is not None:
            yield from self.flight.iter_records()

    def write_chrome_trace(self, destination: Union[str, Path]) -> None:
        """Write span + autograd op events as one Chrome/Perfetto trace.

        Both event sources share a common time origin (the earliest
        recorded start across either), so their timelines line up; spans
        render on ``tid=1`` and autograd ops on ``tid=2``.
        """
        starts = [
            start
            for start in (
                self.tracer.earliest_event_start(),
                self.profiler.earliest_event_start() if self.profiler else None,
            )
            if start is not None
        ]
        origin = min(starts) if starts else None
        events = self.tracer.chrome_trace_events(origin=origin)
        if self.profiler is not None:
            events.extend(self.profiler.chrome_trace_events(origin=origin))
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                "span_events_dropped": self.tracer.dropped_events,
                "span_max_events": self.tracer.max_events,
            },
        }
        destination = Path(destination)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(json.dumps(payload), encoding="utf-8")

    def write_jsonl(self, destination: Union[str, "IO[str]"]) -> None:
        """Dump the run report, one JSON object per line."""
        if hasattr(destination, "write"):
            for record in self.iter_records():
                destination.write(json.dumps(record) + "\n")
        else:
            Path(destination).parent.mkdir(parents=True, exist_ok=True)
            with open(destination, "w", encoding="utf-8") as handle:
                for record in self.iter_records():
                    handle.write(json.dumps(record) + "\n")

    def render_text(self) -> str:
        """Short human-readable summary of the run."""
        lines: List[str] = [f"telemetry report{f' ({self.label})' if self.label else ''}"]
        if self.callback.epochs:
            lines.append(f"  epochs recorded: {len(self.callback.epochs)}")
        metrics_text = self.registry.to_text()
        if metrics_text:
            lines.append("  metrics:")
            lines.extend("    " + line for line in metrics_text.splitlines())
        if self.profiler is not None and self.profiler.report():
            lines.append("  autograd ops (hottest first):")
            lines.extend("    " + line for line in self.profiler.to_text().splitlines())
        spans_text = self.tracer.to_text()
        if spans_text:
            lines.append("  spans:")
            lines.extend("    " + line for line in spans_text.splitlines())
        if self.monitor is not None:
            lines.extend("  " + line for line in self.monitor.to_text().splitlines())
        if self.slo is not None:
            lines.extend("  " + line for line in self.slo.to_text().splitlines())
        if self.flight is not None:
            lines.extend("  " + line for line in self.flight.to_text().splitlines())
        return "\n".join(lines)
