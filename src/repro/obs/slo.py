"""Declarative SLOs with rolling error budgets and burn-rate alerting.

An :class:`SLO` declares an objective over a stream of *eligible events*
— "99% of refresh requests complete within 50 ms", "99.9% of requests
succeed", "95% of quality evaluations see the streaming AUC above 0.55"
— and an :class:`SLOTracker` turns the serving stream into:

* per-SLO **error budgets**: over a rolling window of the last
  ``window`` eligible events, the budget is the allowed bad fraction
  (``1 - objective``); ``budget_remaining`` is how much of it is left
  (1.0 untouched, <= 0.0 exhausted);
* **multi-window burn rates**: the bad fraction divided by the allowed
  fraction, measured over a short window and the full window.  The
  exported ``slo.<name>.burn_rate`` is the *minimum* of the two, so a
  threshold on it implements the classic multi-window rule — both the
  fast and the slow window must burn hot before anything fires, which
  debounces one-off stragglers without missing a sustained regression;
* generated :class:`~repro.obs.alerts.AlertRule` instances evaluated by
  a standard :class:`~repro.obs.alerts.AlertEngine`, so SLO alerts share
  sinks, hysteresis, history and flight-recorder postmortem triggering
  with the PR-4 quality alerts;
* registry gauges (``slo.*``) mirrored on every evaluation, so the
  Prometheus and JSONL exporters carry budget state with no extra code.

Latency and availability events arrive through the request-observer
interface of :mod:`repro.obs.context` (the tracker registers itself
while active); quality-floor events arrive from the serving engine,
which feeds each refresh's monitor snapshot via
:meth:`SLOTracker.observe_quality`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.alerts import Alert, AlertEngine, AlertRule, AlertSink, Severity
from repro.obs.context import (
    register_request_observer,
    unregister_request_observer,
)
from repro.obs.quality import GaugeMirror

__all__ = [
    "SLO",
    "SLOWindow",
    "SLOTracker",
    "default_serving_slos",
    "get_active_slo_tracker",
    "use_slo_tracker",
]

_KINDS = ("latency", "availability", "quality")


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    Attributes
    ----------
    name:
        Unique identifier; metrics export as ``slo.<name>.*``.
    kind:
        ``"latency"`` — an eligible request is *good* when its duration
        is at or under ``threshold`` seconds; ``"availability"`` — good
        when the request completed without an exception; ``"quality"``
        — good when the watched monitor metric is at or above
        ``threshold`` at evaluation time.
    objective:
        Target good fraction in ``(0, 1)``; the error budget is
        ``1 - objective``.
    threshold:
        Latency bound in seconds, or the quality floor (ignored for
        availability).
    request_kind:
        Restrict latency/availability accounting to one request kind
        (``"ingest"``, ``"refresh"``, ``"top_k"``, ``"recommend"``);
        None counts every request.
    metric:
        Snapshot key watched by quality SLOs (e.g.
        ``"quality.streaming_auc"``).
    window, fast_window:
        Rolling event-window sizes for the budget (slow) and the fast
        burn-rate window.
    min_events:
        Eligible events required in a window before its burn rate is
        reported (warm-up: a half-empty window neither fires nor clears).
    burn_alert:
        Burn-rate threshold of the generated alert rule.  1.0 burns the
        budget exactly at the sustainable rate; the default 2.0 pages on
        budget being consumed twice as fast as it can be afforded.
    severity:
        Severity of the generated burn-rate rule (budget exhaustion is
        always critical).
    """

    name: str
    kind: str
    objective: float = 0.99
    threshold: float = 0.0
    request_kind: Optional[str] = None
    metric: Optional[str] = None
    window: int = 2000
    fast_window: int = 200
    min_events: int = 20
    burn_alert: float = 2.0
    severity: str = Severity.WARNING

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == "latency" and self.threshold <= 0.0:
            raise ValueError(
                f"latency SLO {self.name!r} needs a positive threshold "
                f"(seconds), got {self.threshold}"
            )
        if self.kind == "quality" and not self.metric:
            raise ValueError(f"quality SLO {self.name!r} needs a metric")
        if self.window < 1 or self.fast_window < 1:
            raise ValueError("window sizes must be >= 1")
        if self.fast_window > self.window:
            raise ValueError(
                f"fast_window ({self.fast_window}) cannot exceed window "
                f"({self.window})"
            )
        if self.min_events < 1:
            raise ValueError(f"min_events must be >= 1, got {self.min_events}")
        if self.burn_alert <= 0.0:
            raise ValueError(f"burn_alert must be > 0, got {self.burn_alert}")

    # Convenience constructors ------------------------------------------------
    @staticmethod
    def latency(
        name: str,
        threshold_seconds: float,
        objective: float = 0.99,
        request_kind: Optional[str] = None,
        **kwargs,
    ) -> "SLO":
        """A latency objective: ``objective`` of requests within the bound."""
        return SLO(
            name,
            "latency",
            objective=objective,
            threshold=threshold_seconds,
            request_kind=request_kind,
            **kwargs,
        )

    @staticmethod
    def availability(
        name: str,
        objective: float = 0.999,
        request_kind: Optional[str] = None,
        **kwargs,
    ) -> "SLO":
        """An availability objective: ``objective`` of requests succeed."""
        return SLO(
            name,
            "availability",
            objective=objective,
            request_kind=request_kind,
            **kwargs,
        )

    @staticmethod
    def quality(
        name: str,
        metric: str,
        floor: float,
        objective: float = 0.95,
        **kwargs,
    ) -> "SLO":
        """A quality objective: ``objective`` of evaluations above the floor."""
        return SLO(
            name,
            "quality",
            objective=objective,
            threshold=floor,
            metric=metric,
            **kwargs,
        )


class SLOWindow:
    """Rolling good/bad accounting over slow and fast event windows.

    Events are booleans (good?) appended once per eligible event; both
    windows keep O(1) running bad counts.  Latency SLOs additionally
    sample recent durations (bounded) for p50/p99 reporting.
    """

    __slots__ = (
        "slo", "_slow", "_fast", "_slow_bad", "_fast_bad",
        "_durations", "_duration_next", "_duration_count", "_duration_seen",
        "_pct_cache", "_pct_at",
        "total_events", "total_bad",
    )

    _DURATION_CAPACITY = 2048
    # Percentiles are recomputed at most once per this many new duration
    # samples: the burn-rate/budget alerting never reads them (it counts
    # threshold breaches), so the exported p50/p99 gauges may lag by a
    # bounded sample count in exchange for a cheap evaluate hot path.
    _PCT_REFRESH_SAMPLES = _DURATION_CAPACITY // 8

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        self._slow: Deque[bool] = deque(maxlen=slo.window)
        self._fast: Deque[bool] = deque(maxlen=slo.fast_window)
        self._slow_bad = 0
        self._fast_bad = 0
        # Duration samples live in a preallocated ring so snapshot-time
        # percentiles skip the python-list-to-array conversion.
        self._durations = np.empty(self._DURATION_CAPACITY, dtype=float)
        self._duration_next = 0
        self._duration_count = 0
        self._duration_seen = 0
        self._pct_cache: Optional[Tuple[float, float]] = None
        self._pct_at = 0
        self.total_events = 0
        self.total_bad = 0

    def add(self, good: bool, duration: Optional[float] = None) -> None:
        bad = not good
        if len(self._slow) == self._slow.maxlen and not self._slow[0]:
            self._slow_bad -= 1
        self._slow.append(good)
        if bad:
            self._slow_bad += 1
        if len(self._fast) == self._fast.maxlen and not self._fast[0]:
            self._fast_bad -= 1
        self._fast.append(good)
        if bad:
            self._fast_bad += 1
        if duration is not None:
            self._push_duration(duration)
        self.total_events += 1
        self.total_bad += bad

    def _push_duration(self, duration: float) -> None:
        self._durations[self._duration_next] = duration
        self._duration_next = (self._duration_next + 1) % self._DURATION_CAPACITY
        if self._duration_count < self._DURATION_CAPACITY:
            self._duration_count += 1
        self._duration_seen += 1

    # ------------------------------------------------------------------
    def _burn(self, bad: int, total: int) -> Optional[float]:
        if total < self.slo.min_events:
            return None
        allowed = 1.0 - self.slo.objective
        return (bad / total) / allowed

    def burn_rate_fast(self) -> Optional[float]:
        return self._burn(self._fast_bad, len(self._fast))

    def burn_rate_slow(self) -> Optional[float]:
        return self._burn(self._slow_bad, len(self._slow))

    def burn_rate(self) -> Optional[float]:
        """Multi-window burn: the minimum of fast and slow (see module doc)."""
        fast = self.burn_rate_fast()
        slow = self.burn_rate_slow()
        if fast is None or slow is None:
            return None
        return min(fast, slow)

    def budget_remaining(self) -> Optional[float]:
        """Fraction of the slow window's error budget left (can go < 0)."""
        total = len(self._slow)
        if total < self.slo.min_events:
            return None
        allowed = (1.0 - self.slo.objective) * total
        return 1.0 - self._slow_bad / allowed

    def snapshot(self) -> Dict[str, Optional[float]]:
        name = self.slo.name
        total = len(self._slow)
        out: Dict[str, Optional[float]] = {
            f"slo.{name}.events": float(self.total_events),
            f"slo.{name}.bad_events": float(self.total_bad),
            f"slo.{name}.window_events": float(total),
            f"slo.{name}.window_bad": float(self._slow_bad),
            f"slo.{name}.bad_fraction": (
                self._slow_bad / total if total else None
            ),
            f"slo.{name}.budget_remaining": self.budget_remaining(),
            f"slo.{name}.burn_rate_fast": self.burn_rate_fast(),
            f"slo.{name}.burn_rate_slow": self.burn_rate_slow(),
            f"slo.{name}.burn_rate": self.burn_rate(),
        }
        if self.slo.kind == "latency" and self._duration_count:
            if (
                self._pct_cache is None
                or self._duration_seen - self._pct_at >= self._PCT_REFRESH_SAMPLES
            ):
                durations = self._durations[: self._duration_count]
                p50, p99 = np.percentile(durations, (50.0, 99.0))
                self._pct_cache = (float(p50), float(p99))
                self._pct_at = self._duration_seen
            out[f"slo.{name}.p50_seconds"] = self._pct_cache[0]
            out[f"slo.{name}.p99_seconds"] = self._pct_cache[1]
        return out


def default_serving_slos(
    latency_p99_seconds: float = 0.25,
    latency_objective: float = 0.99,
    availability_objective: float = 0.999,
    auc_floor: float = 0.52,
    window: int = 2000,
    fast_window: int = 200,
) -> Tuple[SLO, ...]:
    """The stock serving SLO set (thresholds overridable).

    One latency objective over every request kind, one availability
    objective, and a streaming-AUC floor riding the PR-4 quality
    monitor.  As with :func:`~repro.obs.quality.default_quality_rules`
    the defaults are loose — they exist to catch serving regressions,
    not to grade a laptop run.
    """
    return (
        SLO.latency(
            "serving-latency",
            latency_p99_seconds,
            objective=latency_objective,
            window=window,
            fast_window=fast_window,
        ),
        SLO.availability(
            "serving-availability",
            objective=availability_objective,
            window=window,
            fast_window=fast_window,
            severity=Severity.CRITICAL,
        ),
        SLO.quality(
            "streaming-auc",
            "quality.streaming_auc",
            floor=auc_floor,
            window=max(8, window // 20),
            fast_window=max(4, fast_window // 20),
            min_events=4,
        ),
    )


class SLOTracker:
    """Evaluates declared SLOs against the live serving stream.

    While active (:class:`use_slo_tracker`), the tracker registers as a
    request observer — every completed root
    :class:`~repro.obs.context.request_scope` feeds the latency and
    availability windows — and the serving engine feeds quality SLOs
    with each refresh's monitor snapshot.  Alert rules are evaluated
    every ``evaluate_every`` requests and on every explicit
    :meth:`evaluate` call (the engine does one per refresh).

    Parameters
    ----------
    slos:
        The declared objectives (defaults to :func:`default_serving_slos`).
    sinks:
        Alert sinks shared by every generated rule.
    evaluate_every:
        Auto-evaluation cadence in completed requests (0 disables —
        only explicit :meth:`evaluate` calls run the rules).
    """

    def __init__(
        self,
        slos: Optional[Sequence[SLO]] = None,
        sinks: Sequence[AlertSink] = (),
        evaluate_every: int = 64,
    ) -> None:
        slos = tuple(slos) if slos is not None else default_serving_slos()
        names = [slo.name for slo in slos]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate SLO names in {names}")
        if evaluate_every < 0:
            raise ValueError(
                f"evaluate_every must be >= 0, got {evaluate_every}"
            )
        self.slos = slos
        self.windows: Dict[str, SLOWindow] = {
            slo.name: SLOWindow(slo) for slo in slos
        }
        # Split once by kind: on_request rides the serving hot path, so
        # it folds a precomputed (window, slo) list instead of filtering
        # the full window dict per request.
        self._request_windows = [
            (window, window.slo)
            for window in self.windows.values()
            if window.slo.kind != "quality"
        ]
        self._quality_windows = [
            (window, window.slo)
            for window in self.windows.values()
            if window.slo.kind == "quality"
        ]
        self.alerts = AlertEngine(self.generated_rules(), sinks=sinks)
        self.evaluate_every = evaluate_every
        self.requests_seen = 0
        self._since_evaluate = 0
        self._gauges = GaugeMirror()

    # ------------------------------------------------------------------
    @staticmethod
    def _rules_for(slo: SLO) -> Tuple[AlertRule, AlertRule]:
        return (
            AlertRule(
                f"slo-burn:{slo.name}",
                f"slo.{slo.name}.burn_rate",
                threshold=slo.burn_alert,
                direction="above",
                clear_threshold=min(1.0, slo.burn_alert),
                severity=slo.severity,
            ),
            AlertRule(
                f"slo-budget:{slo.name}",
                f"slo.{slo.name}.budget_remaining",
                threshold=0.0,
                direction="below",
                clear_threshold=0.1,
                severity=Severity.CRITICAL,
            ),
        )

    def generated_rules(self) -> Tuple[AlertRule, ...]:
        """Two rules per SLO: burn-rate breach and budget exhaustion."""
        rules: List[AlertRule] = []
        for slo in self.slos:
            rules.extend(self._rules_for(slo))
        return tuple(rules)

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def on_request(self, record) -> None:
        """Request-observer hook: fold one completed root request in."""
        self.requests_seen += 1
        duration = record.duration_seconds
        ok = record.status == "ok"
        for window, slo in self._request_windows:
            if slo.request_kind is not None and slo.request_kind != record.kind:
                continue
            if slo.kind == "latency":
                window.add(duration <= slo.threshold, duration=duration)
            else:  # availability
                window.add(ok)
        if self.evaluate_every:
            self._since_evaluate += 1
            if self._since_evaluate >= self.evaluate_every:
                self.evaluate()

    def observe_quality(self, snapshot: Mapping[str, object]) -> None:
        """Fold one monitor snapshot into the quality SLO windows.

        Metrics that are absent, None or non-finite are skipped (the
        estimator is still warming up — neither good nor bad).
        """
        for window, slo in self._quality_windows:
            value = snapshot.get(slo.metric)
            if value is None or not isinstance(value, (int, float)):
                continue
            value = float(value)
            if not math.isfinite(value):
                continue
            window.add(value >= slo.threshold)

    # ------------------------------------------------------------------
    # Snapshots, alerting, reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Optional[float]]:
        """Flat ``slo.*`` metric mapping across every declared SLO."""
        out: Dict[str, Optional[float]] = {}
        for name in sorted(self.windows):
            out.update(self.windows[name].snapshot())
        return out

    def evaluate(self) -> List[Alert]:
        """Run the burn-rate/budget rules against a fresh snapshot.

        Finite values are mirrored into the active metrics registry as
        gauges so the Prometheus/JSONL exporters carry budget state.
        """
        self._since_evaluate = 0
        snapshot = self.snapshot()
        self._gauges.mirror(snapshot)
        return self.alerts.evaluate(snapshot)

    def exhausted(self) -> List[str]:
        """Names of SLOs whose error budget is currently spent."""
        out = []
        for name, window in sorted(self.windows.items()):
            remaining = window.budget_remaining()
            if remaining is not None and remaining <= 0.0:
                out.append(name)
        return out

    def iter_records(self):
        """One JSON-friendly ``slo`` record per declared objective."""
        for name in sorted(self.windows):
            window = self.windows[name]
            slo = window.slo
            record: Dict[str, object] = {
                "type": "slo",
                "name": name,
                "kind": slo.kind,
                "objective": slo.objective,
                "threshold": slo.threshold,
                "request_kind": slo.request_kind,
                "metric": slo.metric,
            }
            prefix = f"slo.{name}."
            for key, value in window.snapshot().items():
                record[key[len(prefix):]] = value
            yield record

    def to_text(self) -> str:
        """Short human-readable budget summary, one line per SLO."""
        lines = ["slo error budgets"]
        for name in sorted(self.windows):
            window = self.windows[name]
            remaining = window.budget_remaining()
            burn = window.burn_rate()
            lines.append(
                f"  {name} ({window.slo.kind}): "
                f"budget_remaining="
                f"{'n/a' if remaining is None else format(remaining, '.3f')} "
                f"burn_rate={'n/a' if burn is None else format(burn, '.3f')} "
                f"window={len(window._slow)}/{window.slo.window}"
            )
        fired = len(self.alerts.fired)
        active = self.alerts.active_alerts()
        lines.append(
            f"  alerts: {fired} fired, {len(active)} active"
            f"{' (' + ', '.join(active) + ')' if active else ''}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Active-tracker scoping (mirrors use_registry / use_monitor)
# ----------------------------------------------------------------------
_ACTIVE_TRACKERS: List[SLOTracker] = []


def get_active_slo_tracker() -> Optional[SLOTracker]:
    """The innermost active SLO tracker, or None when SLOs are off."""
    return _ACTIVE_TRACKERS[-1] if _ACTIVE_TRACKERS else None


class use_slo_tracker:
    """Activate ``tracker`` for the block: ambient lookup + request feed."""

    def __init__(self, tracker: SLOTracker) -> None:
        self._tracker = tracker

    def __enter__(self) -> SLOTracker:
        _ACTIVE_TRACKERS.append(self._tracker)
        register_request_observer(self._tracker)
        return self._tracker

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        unregister_request_observer(self._tracker)
        for position in range(len(_ACTIVE_TRACKERS) - 1, -1, -1):
            if _ACTIVE_TRACKERS[position] is self._tracker:
                del _ACTIVE_TRACKERS[position]
                break
