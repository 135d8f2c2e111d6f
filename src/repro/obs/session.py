"""One-stop telemetry for a whole run.

A :class:`TelemetrySession` builds one
:class:`~repro.obs.context.Telemetry` — a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.tracing.Tracer`, a
:class:`~repro.obs.callbacks.TelemetryCallback` and, on request, a
quality monitor, an SLO tracker and a flight recorder — puts it in the
ambient slot for the enclosed block together with an (optional)
:class:`~repro.obs.autograd.AutogradProfiler`, and renders a combined
run report afterwards.  This is what the CLI's ``--telemetry <path>``
flag drives:

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
from repro.obs.callbacks import TelemetryCallback
from repro.obs.context import Telemetry, use_telemetry
from repro.obs.flight import FlightRecorder
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import QualityMonitor
from repro.obs.slo import SLOTracker
from repro.obs.tracing import Tracer, chrome_trace_json

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


def _attach(option, build):
    """``None``/``False`` -> None, ``True`` -> ``build()``, else the instance."""
    if option is None or option is False:
        return None
    return build() if option is True else option


class TelemetrySession:
    """Builds one :class:`~repro.obs.context.Telemetry` and reports on it.

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
        with defaults, or pass a configured instance.  Instrumented
        serving code and trainer validation hooks report into it.
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
        self.monitor: Optional[QualityMonitor] = _attach(monitor, QualityMonitor)
        self.slo: Optional[SLOTracker] = _attach(slo, SLOTracker)
        self.flight: Optional[FlightRecorder] = _attach(
            flight, lambda: FlightRecorder(postmortem_dir=postmortem_dir)
        )
        if (
            self.flight is not None
            and postmortem_dir is not None
            and self.flight.postmortem_dir is None
        ):
            self.flight.postmortem_dir = Path(postmortem_dir)
        self.label = label
        self.telemetry = Telemetry(
            registry=self.registry,
            tracer=self.tracer,
            monitor=self.monitor,
            slo=self.slo,
            flight=self.flight,
            callback=self.callback,
        )
        self._started_unix: Optional[float] = None
        self._stopped_unix: Optional[float] = None
        self._scope: Optional[use_telemetry] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TelemetrySession":
        if self._scope is not None:
            raise RuntimeError("telemetry session is already started")
        for name in _STANDARD_COUNTERS:
            self.registry.counter(name)
        self._scope = use_telemetry(self.telemetry)
        self._scope.__enter__()
        if self.profiler is not None:
            self.profiler.enable()
        self._started_unix = time.time()
        self._stopped_unix = None
        _LOGGER.debug(kv("telemetry session started", label=self.label))
        return self

    def stop(self) -> None:
        if self._scope is None:
            return
        self._stopped_unix = time.time()
        if self.profiler is not None:
            self.profiler.disable()
        self._scope.__exit__(None, None, None)
        self._scope = None
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
        destination = Path(destination)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(
            chrome_trace_json(
                events,
                {
                    "span_events_dropped": self.tracer.dropped_events,
                    "span_max_events": self.tracer.max_events,
                },
            ),
            encoding="utf-8",
        )

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
