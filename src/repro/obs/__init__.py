"""Dependency-free telemetry layer: metrics, tracing, profiling, logging.

The package provides these composable surfaces:

* :mod:`repro.obs.context` — the one ambient slot: a :class:`Telemetry`
  object (registry, tracer, monitor, SLO tracker, flight recorder,
  trainer callback) put in place with :class:`use_telemetry` and read by
  library code with :func:`current_telemetry`, plus the request-scoped
  trace context (:class:`TraceContext` / :class:`request_scope`)
  propagated through the serving engine, so every emitted sample, alert
  and telemetry record carries the ``trace_id`` of the request that
  produced it;
* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  instruments in a :class:`MetricsRegistry`;
* :mod:`repro.obs.tracing` — nested ``Span``/``Tracer`` wall-clock timing
  and the Chrome-trace event and document builders;
* :mod:`repro.obs.autograd` — an opt-in per-op profiler for the
  ``repro.nn`` autograd engine;
* :mod:`repro.obs.callbacks` — the trainer callback interface plus the
  :class:`TelemetryCallback` metrics adapter with divergence monitoring;
* :mod:`repro.obs.logging` — structured ``key=value`` logging setup;
* :mod:`repro.obs.quality` — online model-quality monitoring (streaming
  AUC/ECE, cohort CTR, cold-start lifecycle tracking) with
  :mod:`repro.obs.drift` score/feature drift detectors and
  :mod:`repro.obs.alerts` threshold+hysteresis alerting;
* :mod:`repro.obs.slo` — declarative SLOs with rolling error budgets
  and multi-window burn-rate alerting over the serving stream;
* :mod:`repro.obs.flight` — the serving flight recorder: a bounded ring
  of recent per-request span trees with tail-exemplar sampling and
  automatic postmortem bundles (replay with
  ``python -m repro.obs.flight <bundle>``);
* :mod:`repro.obs.session` — :class:`TelemetrySession`, which builds a
  :class:`Telemetry`, holds it in the slot for a block and renders
  JSONL/text run reports (the CLI's ``--telemetry`` flag), plus
  Chrome-trace export.

Only numpy and the standard library are used, and every hook is pay-for-
what-you-use: with an empty slot and no profiler the instrumented hot
paths skip telemetry entirely.
"""

from repro.obs.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    AlertSink,
    CallbackSink,
    JsonlSink,
    LogSink,
    Severity,
)
from repro.obs.autograd import AutogradProfiler, OpStats
from repro.obs.context import (
    RequestRecord,
    Telemetry,
    TraceContext,
    current_telemetry,
    new_trace_id,
    request_scope,
    use_telemetry,
)
from repro.obs.flight import FlightRecorder, load_bundle
from repro.obs.callbacks import BatchStats, TelemetryCallback, TrainerCallback
from repro.obs.drift import DriftDetector, kl_divergence, psi
from repro.obs.logging import configure_logging, get_logger, kv
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_metric_name,
)
from repro.obs.quality import (
    CohortCTR,
    ColdStartTracker,
    QualityMonitor,
    StreamingAUC,
    WindowedECE,
    default_quality_rules,
)
from repro.obs.session import TelemetrySession
from repro.obs.slo import (
    SLO,
    SLOTracker,
    SLOWindow,
    default_serving_slos,
)
from repro.obs.tracing import (
    Span,
    SpanStats,
    Tracer,
    chrome_event,
    chrome_trace_json,
    maybe_span,
)
from repro.obs.window import SlidingBlocks

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "AlertSink",
    "CallbackSink",
    "JsonlSink",
    "LogSink",
    "Severity",
    "AutogradProfiler",
    "OpStats",
    "BatchStats",
    "TelemetryCallback",
    "TrainerCallback",
    "DriftDetector",
    "kl_divergence",
    "psi",
    "configure_logging",
    "get_logger",
    "kv",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "prometheus_metric_name",
    "CohortCTR",
    "ColdStartTracker",
    "QualityMonitor",
    "StreamingAUC",
    "WindowedECE",
    "default_quality_rules",
    "RequestRecord",
    "Telemetry",
    "TraceContext",
    "current_telemetry",
    "new_trace_id",
    "request_scope",
    "use_telemetry",
    "FlightRecorder",
    "load_bundle",
    "SLO",
    "SLOTracker",
    "SLOWindow",
    "default_serving_slos",
    "TelemetrySession",
    "Span",
    "SpanStats",
    "Tracer",
    "chrome_event",
    "chrome_trace_json",
    "maybe_span",
    "SlidingBlocks",
]
