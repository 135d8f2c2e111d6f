"""Reference refresh-time monitor calls: the oracle for the drift channel.

Before the score-drift channel kept per-slot bins, every engine refresh
fed the monitor the same way: the whole catalogue's scores through
``DriftDetector.update``, a snapshot for the alert rules (mirrored into
registry gauges one locked lookup at a time, PSI and KL each from its
own pass over the live window) and a second snapshot for the SLO
tracker's quality windows.  The functions below keep exactly those
calls, so a twin monitor fed through them is what the incremental
monitor must match bit for bit (``test_monitor_reference.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.obs import MetricsRegistry, QualityMonitor, SLOTracker
from repro.obs.alerts import Alert
from repro.obs.drift import kl_divergence, psi


def observe_scores(monitor: QualityMonitor, scores) -> None:
    """The whole catalogue into the score-drift detector."""
    monitor._sample("scores", n=int(np.asarray(scores).size))
    monitor.score_drift.update(scores)
    monitor.score_emissions += 1


def _divergences(detector):
    if not detector.ready:
        return None, None
    (live,) = detector._live.totals()
    psi_value = psi(detector._reference, live, alpha=detector.alpha)
    (live,) = detector._live.totals()
    kl_value = kl_divergence(detector._reference, live, alpha=detector.alpha)
    return psi_value, kl_value


def snapshot(monitor: QualityMonitor) -> Dict[str, Optional[float]]:
    """``QualityMonitor.snapshot`` as it was: one totals pass per value."""
    warmed = monitor.outcomes_scored >= monitor.min_outcomes
    out: Dict[str, Optional[float]] = {
        "quality.streaming_auc": monitor.auc.value if warmed else None,
        "quality.ece": monitor.ece.value if warmed else None,
        "quality.impressions": float(monitor.impressions_seen),
        "quality.clicks": float(monitor.clicks_seen),
        "quality.outcomes_scored": float(monitor.outcomes_scored),
    }
    for cohort in monitor.cohort_ctr.cohorts():
        out[f"quality.ctr.{cohort}"] = monitor.cohort_ctr.ctr(cohort)
    out["drift.score.psi"], out["drift.score.kl"] = _divergences(
        monitor.score_drift
    )
    for name, detector in sorted(monitor.feature_drift.items()):
        (
            out[f"drift.feature.{name}.psi"],
            out[f"drift.feature.{name}.kl"],
        ) = _divergences(detector)
    if monitor.cold_start is not None:
        out["coldstart.items_seen"] = float(monitor.cold_start.items_seen)
        out["coldstart.warm_items"] = float(monitor.cold_start.warm_items)
        out["coldstart.divergence_mean"] = monitor.cold_start.divergence_mean()
    for path, record in sorted(monitor.validation.items()):
        for key, value in record.items():
            if key != "n":
                out[f"quality.validation.{path}.{key}"] = value
    return out


def _mirror(registry: MetricsRegistry, values) -> None:
    for name, value in values.items():
        if isinstance(value, (int, float)) and math.isfinite(value):
            registry.gauge(name).set(value)


def evaluate(monitor: QualityMonitor, registry: MetricsRegistry) -> List[Alert]:
    """``QualityMonitor.evaluate`` as it was, with an explicit registry."""
    values = snapshot(monitor)
    _mirror(registry, values)
    return monitor.alerts.evaluate(values)


def evaluate_slo(tracker: SLOTracker, registry: MetricsRegistry) -> List[Alert]:
    """``SLOTracker.evaluate`` as it was, with an explicit registry."""
    tracker._since_evaluate = 0
    values = tracker.snapshot()
    _mirror(registry, values)
    return tracker.alerts.evaluate(values)


def refresh(
    monitor: QualityMonitor,
    tracker: SLOTracker,
    registry: MetricsRegistry,
    n_slots: int,
    warm_view_threshold: int,
    scores: np.ndarray,
    divergence=None,
) -> None:
    """The monitor block of one engine refresh, as it was.

    ``divergence`` is the ``(slots, generated, encoded)`` the refresh
    sampled, or None when it re-encoded no slot.
    """
    monitor.attach_catalogue(n_slots, warm_view_threshold)
    observe_scores(monitor, scores)
    if divergence is not None:
        monitor.observe_divergence(*divergence)
    evaluate(monitor, registry)
    tracker.observe_quality(snapshot(monitor))
    evaluate_slo(tracker, registry)
