"""Dependency-free telemetry layer: metrics, tracing, profiling, logging.

The package provides these composable surfaces:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  instruments in a :class:`MetricsRegistry`, with scoped activation so
  instrumented library code reports only when telemetry is on;
* :mod:`repro.obs.tracing` — nested ``Span``/``Tracer`` wall-clock timing;
* :mod:`repro.obs.autograd` — an opt-in per-op profiler for the
  ``repro.nn`` autograd engine;
* :mod:`repro.obs.callbacks` — the trainer callback interface plus the
  :class:`TelemetryCallback` metrics adapter with divergence monitoring;
* :mod:`repro.obs.logging` — structured ``key=value`` logging setup;
* :mod:`repro.obs.quality` — online model-quality monitoring (streaming
  AUC/ECE, cohort CTR, cold-start lifecycle tracking) with
  :mod:`repro.obs.drift` score/feature drift detectors and
  :mod:`repro.obs.alerts` threshold+hysteresis alerting;
* :mod:`repro.obs.context` — request-scoped trace context
  (:class:`TraceContext` / :class:`request_scope`) propagated through
  the serving engine, so every emitted sample, alert and telemetry
  record carries the ``trace_id`` of the request that produced it;
* :mod:`repro.obs.slo` — declarative SLOs with rolling error budgets
  and multi-window burn-rate alerting over the serving stream;
* :mod:`repro.obs.flight` — the serving flight recorder: a bounded ring
  of recent per-request span trees with tail-exemplar sampling and
  automatic postmortem bundles (replay with
  ``python -m repro.obs.flight <bundle>``);
* :mod:`repro.obs.session` — :class:`TelemetrySession`, which activates
  everything at once and renders JSONL/text run reports (the CLI's
  ``--telemetry`` flag), plus Chrome-trace export.

Only numpy and the standard library are used, and every hook is pay-for-
what-you-use: with no active registry/tracer/profiler/monitor the
instrumented hot paths skip telemetry entirely.
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
    register_alert_observer,
    unregister_alert_observer,
)
from repro.obs.autograd import AutogradProfiler, OpStats
from repro.obs.context import (
    RequestRecord,
    TraceContext,
    current_trace_context,
    new_trace_id,
    register_request_observer,
    request_scope,
    unregister_request_observer,
)
from repro.obs.flight import (
    FlightRecorder,
    get_active_flight_recorder,
    load_bundle,
    use_flight_recorder,
)
from repro.obs.callbacks import (
    BatchStats,
    TelemetryCallback,
    TrainerCallback,
    global_callbacks,
    register_global_callback,
    unregister_global_callback,
)
from repro.obs.drift import DriftDetector, kl_divergence, psi
from repro.obs.logging import configure_logging, get_logger, kv
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_active_registry,
    prometheus_metric_name,
    use_registry,
)
from repro.obs.quality import (
    CohortCTR,
    ColdStartTracker,
    QualityMonitor,
    StreamingAUC,
    WindowedECE,
    default_quality_rules,
    get_active_monitor,
    use_monitor,
)
from repro.obs.session import TelemetrySession
from repro.obs.slo import (
    SLO,
    SLOTracker,
    SLOWindow,
    default_serving_slos,
    get_active_slo_tracker,
    use_slo_tracker,
)
from repro.obs.tracing import (
    Span,
    SpanStats,
    Tracer,
    get_active_tracer,
    maybe_span,
    use_tracer,
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
    "register_alert_observer",
    "unregister_alert_observer",
    "AutogradProfiler",
    "OpStats",
    "BatchStats",
    "TelemetryCallback",
    "TrainerCallback",
    "global_callbacks",
    "register_global_callback",
    "unregister_global_callback",
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
    "get_active_registry",
    "prometheus_metric_name",
    "use_registry",
    "CohortCTR",
    "ColdStartTracker",
    "QualityMonitor",
    "StreamingAUC",
    "WindowedECE",
    "default_quality_rules",
    "get_active_monitor",
    "use_monitor",
    "RequestRecord",
    "TraceContext",
    "current_trace_context",
    "new_trace_id",
    "register_request_observer",
    "request_scope",
    "unregister_request_observer",
    "FlightRecorder",
    "get_active_flight_recorder",
    "load_bundle",
    "use_flight_recorder",
    "SLO",
    "SLOTracker",
    "SLOWindow",
    "default_serving_slos",
    "get_active_slo_tracker",
    "use_slo_tracker",
    "TelemetrySession",
    "Span",
    "SpanStats",
    "Tracer",
    "get_active_tracer",
    "maybe_span",
    "use_tracer",
    "SlidingBlocks",
]
