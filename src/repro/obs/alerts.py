"""Threshold + hysteresis alerting over streaming quality metrics.

An :class:`AlertEngine` is evaluated periodically (the serving engine
does it once per refresh) against a flat ``{metric_name: value}``
snapshot.  Each :class:`AlertRule` watches one metric with

* a **direction** (``"above"`` or ``"below"`` the threshold is bad),
* a **consecutive** requirement — the metric must breach on that many
  successive evaluations before the alert fires (debouncing one-off
  spikes), and
* a **hysteresis band** — once fired, the alert stays active until the
  metric crosses back over ``clear_threshold`` (not merely back over the
  firing threshold), so a metric hovering at the boundary cannot flap.

Fired and resolved transitions are emitted as :class:`Alert` records to
pluggable sinks: :class:`LogSink` (structured logging),
:class:`JsonlSink` (append to a JSONL file) and :class:`CallbackSink`
(any callable).  A fired alert also reaches the flight recorder of the
ambient :class:`~repro.obs.context.Telemetry`, which dumps a postmortem
bundle.  Missing or non-finite metric values leave a rule's state
untouched — a warming-up estimator neither fires nor clears anything.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.obs.context import current_telemetry
from repro.obs.logging import get_logger, kv

__all__ = [
    "Severity",
    "AlertRule",
    "Alert",
    "AlertSink",
    "LogSink",
    "JsonlSink",
    "CallbackSink",
    "AlertEngine",
]

_LOGGER = get_logger("obs.alerts")


class Severity:
    """Alert severity levels, mildest first."""

    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"

    ORDER = (INFO, WARNING, CRITICAL)


@dataclass(frozen=True)
class AlertRule:
    """One thresholded watch on one metric.

    Attributes
    ----------
    name:
        Unique rule identifier (used in alert records and engine state).
    metric:
        Key looked up in the snapshot passed to ``evaluate``.
    threshold:
        Firing boundary.
    direction:
        ``"above"`` — values >= threshold breach; ``"below"`` — values
        <= threshold breach.
    clear_threshold:
        Hysteresis boundary the metric must cross to resolve an active
        alert; defaults to ``threshold`` (no band).
    consecutive:
        Breaching evaluations required before firing.
    severity:
        One of :class:`Severity`.
    """

    name: str
    metric: str
    threshold: float
    direction: str = "above"
    clear_threshold: Optional[float] = None
    consecutive: int = 1
    severity: str = Severity.WARNING

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValueError(
                f"direction must be 'above' or 'below', got {self.direction!r}"
            )
        if self.consecutive < 1:
            raise ValueError(f"consecutive must be >= 1, got {self.consecutive}")
        if self.severity not in Severity.ORDER:
            raise ValueError(
                f"severity must be one of {Severity.ORDER}, got {self.severity!r}"
            )
        if self.clear_threshold is not None:
            ok = (
                self.clear_threshold <= self.threshold
                if self.direction == "above"
                else self.clear_threshold >= self.threshold
            )
            if not ok:
                raise ValueError(
                    "clear_threshold must sit on the healthy side of "
                    f"threshold ({self.direction}), got clear="
                    f"{self.clear_threshold} vs threshold={self.threshold}"
                )

    # ------------------------------------------------------------------
    def breaches(self, value: float) -> bool:
        """Whether ``value`` is on the bad side of the firing threshold."""
        return value >= self.threshold if self.direction == "above" else value <= self.threshold

    def clears(self, value: float) -> bool:
        """Whether ``value`` is back past the hysteresis boundary."""
        boundary = (
            self.clear_threshold if self.clear_threshold is not None else self.threshold
        )
        return value < boundary if self.direction == "above" else value > boundary


@dataclass(frozen=True)
class Alert:
    """One fired/resolved transition of a rule.

    ``trace_id`` names the request whose evaluation produced the
    transition (None when the rules were evaluated outside any
    :class:`~repro.obs.context.request_scope`), so an alert can be
    joined back to the flight-recorder exemplar that triggered it.
    """

    rule: str
    metric: str
    value: float
    threshold: float
    severity: str
    kind: str  # "fired" | "resolved"
    at_unix: float = field(default_factory=time.time)
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "severity": self.severity,
            "kind": self.kind,
            "at_unix": self.at_unix,
            "trace_id": self.trace_id,
        }


class AlertSink:
    """Sink interface; subclasses override :meth:`emit`."""

    def emit(self, alert: Alert) -> None:
        raise NotImplementedError


class LogSink(AlertSink):
    """Routes alerts to structured logging at a severity-mapped level."""

    def emit(self, alert: Alert) -> None:
        message = kv(
            f"alert {alert.kind}",
            rule=alert.rule,
            metric=alert.metric,
            value=alert.value,
            threshold=alert.threshold,
            severity=alert.severity,
        )
        if alert.kind == "resolved" or alert.severity == Severity.INFO:
            _LOGGER.info(message)
        elif alert.severity == Severity.CRITICAL:
            _LOGGER.error(message)
        else:
            _LOGGER.warning(message)


class JsonlSink(AlertSink):
    """Appends one JSON object per alert to a file."""

    def __init__(self, path) -> None:
        self.path = path

    def emit(self, alert: Alert) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(alert.as_dict()) + "\n")


class CallbackSink(AlertSink):
    """Invokes an arbitrary callable with each alert."""

    def __init__(self, fn: Callable[[Alert], None]) -> None:
        self.fn = fn

    def emit(self, alert: Alert) -> None:
        self.fn(alert)


class _RuleState:
    __slots__ = ("streak", "active")

    def __init__(self) -> None:
        self.streak = 0
        self.active = False


class AlertEngine:
    """Evaluates rules against metric snapshots and fans out transitions.

    When the ambient telemetry has a metrics registry, every *fired*
    transition also increments the ``alerts.fired`` counter (and
    ``alerts.fired.<severity>``), so run reports carry the alert volume
    even without a configured sink.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule],
        sinks: Optional[Sequence[AlertSink]] = None,
    ) -> None:
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names in {names}")
        self.rules = tuple(rules)
        # None means the log sink; an explicit empty sequence means none.
        self.sinks: List[AlertSink] = [LogSink()] if sinks is None else list(sinks)
        self.history: List[Alert] = []
        self._states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self.evaluations = 0

    # ------------------------------------------------------------------
    def add_sink(self, sink: AlertSink) -> None:
        self.sinks.append(sink)

    def add_rules(self, rules: Sequence[AlertRule]) -> None:
        """Register additional rules after construction (unique names)."""
        for rule in rules:
            if rule.name in self._states:
                raise ValueError(f"duplicate rule name {rule.name!r}")
            self.rules = self.rules + (rule,)
            self._states[rule.name] = _RuleState()

    def _emit(self, alert: Alert) -> None:
        self.history.append(alert)
        fired = alert.kind == "fired"
        telemetry = current_telemetry()
        if fired and telemetry.registry is not None:
            telemetry.registry.counter("alerts.fired").inc()
            telemetry.registry.counter(f"alerts.fired.{alert.severity}").inc()
        for sink in self.sinks:
            sink.emit(alert)
        if fired and telemetry.flight is not None:
            telemetry.flight.on_alert(alert)

    def evaluate(self, metrics: Mapping[str, object]) -> List[Alert]:
        """Advance every rule against ``metrics``; return new transitions.

        Metrics that are absent, ``None`` or non-finite are skipped and
        leave the corresponding rule's streak/active state unchanged.
        """
        self.evaluations += 1
        context = current_telemetry().context
        trace_id = None if context is None else context.trace_id
        transitions: List[Alert] = []
        for rule in self.rules:
            value = metrics.get(rule.metric)
            if value is None or not isinstance(value, (int, float)):
                continue
            value = float(value)
            if not math.isfinite(value):
                continue
            state = self._states[rule.name]
            if not state.active:
                if rule.breaches(value):
                    state.streak += 1
                    if state.streak >= rule.consecutive:
                        state.active = True
                        state.streak = 0
                        transitions.append(
                            Alert(
                                rule=rule.name,
                                metric=rule.metric,
                                value=value,
                                threshold=rule.threshold,
                                severity=rule.severity,
                                kind="fired",
                                trace_id=trace_id,
                            )
                        )
                else:
                    state.streak = 0
            elif rule.clears(value):
                state.active = False
                state.streak = 0
                transitions.append(
                    Alert(
                        rule=rule.name,
                        metric=rule.metric,
                        value=value,
                        threshold=rule.threshold,
                        severity=rule.severity,
                        kind="resolved",
                        trace_id=trace_id,
                    )
                )
        for alert in transitions:
            self._emit(alert)
        return transitions

    # ------------------------------------------------------------------
    def active_alerts(self) -> List[str]:
        """Names of rules currently in the fired state."""
        return [name for name, state in self._states.items() if state.active]

    @property
    def fired(self) -> List[Alert]:
        """Every ``fired`` transition so far."""
        return [alert for alert in self.history if alert.kind == "fired"]

    def iter_records(self):
        """One JSON-friendly record per historical transition."""
        for alert in self.history:
            yield alert.as_dict()
