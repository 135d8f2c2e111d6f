"""Online model-quality monitoring for the serving path.

PR 1's telemetry observes *system* health (latencies, counters, loss
curves); this module observes *model* health while traffic flows:

* :class:`StreamingAUC` — fixed-bin histogram AUC over a (click, score)
  outcome stream: O(bins) memory, vectorised O(batch) updates, and
  within-bin ties handled midrank-style so it tracks the exact
  :func:`repro.metrics.auc.roc_auc` closely (see ``tests/obs``);
* :class:`WindowedECE` — expected calibration error over a sliding
  window, exactly equal to :func:`repro.metrics.classification.\
calibration_error` when evaluated on a full window;
* :class:`CohortCTR` — empirical click-through per cohort (cold vs warm
  serving path);
* :class:`ColdStartTracker` — the paper's whole point is scoring items
  with cold statistics, so new arrivals get dedicated telemetry: time to
  first impression, impressions until the warm threshold, and the cosine
  divergence between the generator's vector and the encoder's vector
  sampled at every refresh;
* :class:`QualityMonitor` — the façade bundling the estimators with
  per-channel :class:`~repro.obs.drift.DriftDetector` instances and an
  :class:`~repro.obs.alerts.AlertEngine`.

Like registries and tracers, monitors are *ambient*: instrumented code
(:class:`repro.serving.engine.RealTimeEngine`, the trainers' validation
hook) reports into the ``monitor`` of the ambient
:class:`~repro.obs.context.Telemetry`, and costs one ``None`` check when
monitoring is off.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.auc import roc_auc
from repro.metrics.classification import calibration_error
from repro.obs.alerts import Alert, AlertEngine, AlertRule, AlertSink, Severity
from repro.obs.context import current_telemetry
from repro.obs.drift import DriftDetector
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.window import SlidingBlocks
from repro.utils.buffers import grow_rows

__all__ = [
    "StreamingAUC",
    "WindowedECE",
    "CohortCTR",
    "ColdStartTracker",
    "QualityMonitor",
    "default_quality_rules",
]

_LOGGER = get_logger("obs.quality")


def _outcome_arrays(labels, scores) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=float).ravel()
    scores = np.asarray(scores, dtype=float).ravel()
    if labels.shape != scores.shape:
        raise ValueError(
            f"labels and scores must match, got {labels.shape} vs {scores.shape}"
        )
    return labels, scores


def _scored_outcomes(labels, scores) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_outcome_arrays` without the outcomes whose score is NaN.

    A NaN score has no bin: the histograms leave it out, and so do their
    observation counts.
    """
    labels, scores = _outcome_arrays(labels, scores)
    # The minimum is NaN exactly when some score is: one reduction.
    if scores.size and math.isnan(scores.min()):
        scored = ~np.isnan(scores)
        labels, scores = labels[scored], scores[scored]
    return labels, scores


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for batch-sized arrays.

    A sort plus a neighbour comparison: on numpy 2.4 several times
    faster than ``np.unique`` at a few hundred elements.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class StreamingAUC:
    """Histogram-based streaming AUC over a binary outcome stream.

    Scores are binned into ``n_bins`` equal-width bins over ``[lo, hi]``;
    per bin the estimator keeps positive and negative counts, and the
    AUC is the usual rank statistic with every within-bin pair treated
    as a tie (counted half).  The approximation error is bounded by the
    in-bin tie mass, so a few hundred bins put it well inside 0.01 of
    the exact midrank AUC for probability-style score streams.

    With ``window`` set, counts roll through block-rotated windows (see
    :class:`~repro.obs.window.SlidingBlocks`), forgetting old regimes.
    """

    def __init__(
        self,
        n_bins: int = 512,
        lo: float = 0.0,
        hi: float = 1.0,
        window: Optional[int] = None,
        block_size: Optional[int] = None,
    ) -> None:
        if n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {n_bins}")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        self.n_bins = n_bins
        self.lo = float(lo)
        self.hi = float(hi)
        self._blocks = SlidingBlocks((n_bins, n_bins), window, block_size)

    def update(self, labels, scores) -> None:
        """Fold a batch of (binary label, score) outcomes in."""
        labels, scores = _scored_outcomes(labels, scores)
        if labels.size == 0:
            return
        scaled = (scores - self.lo) / (self.hi - self.lo) * self.n_bins
        # Clip in float: a cast first would wrap +inf and values past
        # 2**63 to the bottom bin.
        bins = np.clip(scaled, 0, self.n_bins - 1).astype(np.int64)
        positive = labels != 0.0
        pos = np.bincount(bins[positive], minlength=self.n_bins).astype(float)
        neg = np.bincount(bins[~positive], minlength=self.n_bins).astype(float)
        self._blocks.add(labels.size, pos, neg)

    @property
    def count(self) -> int:
        """Outcomes inside the current window."""
        return self._blocks.count

    @property
    def value(self) -> Optional[float]:
        """Windowed AUC, or None while only one class has been seen."""
        pos, neg = self._blocks.totals()
        n_positive = pos.sum()
        n_negative = neg.sum()
        if n_positive == 0 or n_negative == 0:
            return None
        negatives_below = np.cumsum(neg) - neg
        pair_wins = (pos * (negatives_below + 0.5 * neg)).sum()
        return float(pair_wins / (n_positive * n_negative))


class WindowedECE:
    """Sliding-window expected calibration error.

    Per equal-width probability bin the estimator keeps (count, label
    sum, probability sum); the windowed ECE is then
    ``sum_b (count_b / total) * |mean_prob_b - mean_label_b|`` — on a
    full window this matches
    :func:`repro.metrics.classification.calibration_error` exactly
    (same binning, same weighting).
    """

    def __init__(
        self,
        n_bins: int = 10,
        window: Optional[int] = None,
        block_size: Optional[int] = None,
    ) -> None:
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        self.n_bins = n_bins
        # Inner bin edges: searchsorted(side="right") over them is
        # np.digitize, and lands in [0, n_bins) without a clip.
        self._inner_edges = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        self._blocks = SlidingBlocks((n_bins, n_bins, n_bins), window, block_size)

    def update(self, labels, probabilities) -> None:
        """Fold a batch of (binary label, probability) outcomes in."""
        labels, probabilities = _scored_outcomes(labels, probabilities)
        if labels.size == 0:
            return
        indices = self._inner_edges.searchsorted(probabilities, side="right")
        count = np.bincount(indices, minlength=self.n_bins).astype(float)
        label_sum = np.bincount(indices, weights=labels, minlength=self.n_bins)
        score_sum = np.bincount(
            indices, weights=probabilities, minlength=self.n_bins
        )
        self._blocks.add(labels.size, count, label_sum, score_sum)

    @property
    def count(self) -> int:
        return self._blocks.count

    @property
    def value(self) -> Optional[float]:
        """Windowed ECE, or None before any outcome arrived."""
        count, label_sum, score_sum = self._blocks.totals()
        total = count.sum()
        if total == 0:
            return None
        occupied = count > 0
        gaps = np.abs(
            score_sum[occupied] / count[occupied]
            - label_sum[occupied] / count[occupied]
        )
        return float(np.sum(count[occupied] / total * gaps))


class CohortCTR:
    """Windowed impression/click totals per named cohort."""

    def __init__(
        self, window: Optional[int] = None, block_size: Optional[int] = None
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if block_size is None and window is not None:
            block_size = max(1, window // 8)
        self.window = window
        self.block_size = block_size
        self._live_impressions: Dict[str, float] = {}
        self._live_clicks: Dict[str, float] = {}
        self._live_count = 0
        self._sealed: List[Tuple[int, Dict[str, float], Dict[str, float]]] = []

    def record(self, cohort: str, impressions: float, clicks: float) -> None:
        """Add a batch of impressions/clicks under ``cohort``."""
        if impressions < 0 or clicks < 0:
            raise ValueError("impressions and clicks must be >= 0")
        if impressions == 0 and clicks == 0:
            return
        self._live_impressions[cohort] = (
            self._live_impressions.get(cohort, 0.0) + impressions
        )
        self._live_clicks[cohort] = self._live_clicks.get(cohort, 0.0) + clicks
        self._live_count += int(impressions)
        if self.window is None:
            return
        if self._live_count >= self.block_size:
            self._sealed.append(
                (self._live_count, self._live_impressions, self._live_clicks)
            )
            self._live_impressions = {}
            self._live_clicks = {}
            self._live_count = 0
            retained = sum(n for n, _, _ in self._sealed)
            while self._sealed and retained - self._sealed[0][0] >= self.window:
                retained -= self._sealed.pop(0)[0]

    def _totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        impressions = dict(self._live_impressions)
        clicks = dict(self._live_clicks)
        for _, sealed_impressions, sealed_clicks in self._sealed:
            for cohort, value in sealed_impressions.items():
                impressions[cohort] = impressions.get(cohort, 0.0) + value
            for cohort, value in sealed_clicks.items():
                clicks[cohort] = clicks.get(cohort, 0.0) + value
        return impressions, clicks

    def cohorts(self) -> List[str]:
        impressions, _ = self._totals()
        return sorted(impressions)

    @staticmethod
    def _ctr(impressions, clicks, cohort: str) -> Optional[float]:
        shown = impressions.get(cohort, 0.0)
        if shown == 0:
            return None
        return clicks.get(cohort, 0.0) / shown

    def ctr(self, cohort: str) -> Optional[float]:
        """Windowed CTR of one cohort (None without impressions)."""
        return self._ctr(*self._totals(), cohort)

    def ctrs(self) -> Dict[str, Optional[float]]:
        """Windowed CTR of every cohort, sorted by name, from one pass."""
        impressions, clicks = self._totals()
        return {
            cohort: self._ctr(impressions, clicks, cohort)
            for cohort in sorted(impressions)
        }

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-cohort impressions/clicks/ctr inside the window."""
        impressions, clicks = self._totals()
        return {
            cohort: {
                "impressions": impressions[cohort],
                "clicks": clicks.get(cohort, 0.0),
                "ctr": (
                    clicks.get(cohort, 0.0) / impressions[cohort]
                    if impressions[cohort]
                    else 0.0
                ),
            }
            for cohort in sorted(impressions)
        }


class ColdStartTracker:
    """Per-new-item lifecycle telemetry.

    Tracks, per catalogue slot: release time (defaults to stream start),
    the timestamp of the first impression, cumulative impressions, the
    impression count at which the slot crossed the warm threshold, and
    the latest generator-vs-encoder cosine divergence (``1 - cosine``)
    sampled when the engine re-encodes the slot at refresh.
    """

    # Per-slot column -> (initial value, dtype).
    _COLUMNS = {
        "_release": (0.0, float),
        "_first_impression": (np.nan, float),
        "_impressions": (0, np.int64),
        "_warm_at": (-1, np.int64),
        "_last_divergence": (np.nan, float),
    }

    def __init__(
        self,
        n_slots: int,
        warm_view_threshold: int = 50,
        sample_capacity: int = 4096,
    ) -> None:
        if n_slots <= 0:
            raise ValueError(f"n_slots must be positive, got {n_slots}")
        if warm_view_threshold < 1:
            raise ValueError(
                f"warm_view_threshold must be >= 1, got {warm_view_threshold}"
            )
        self.n_slots = n_slots
        self.warm_view_threshold = warm_view_threshold
        # Per-slot columns live in capacity-doubling buffers (grow() is
        # amortised O(new slots)); the attributes are [:n_slots] views
        # that every update writes through in place.
        self._buffers = {
            name: np.full(n_slots, fill, dtype=dtype)
            for name, (fill, dtype) in self._COLUMNS.items()
        }
        self._bind_views()
        # Running scan results, so snapshots cost O(1): slots with a first
        # impression, slots past the warm threshold, and the sum and count
        # of the non-NaN latest divergences.  New slots add to none.
        self._items_seen = 0
        self._warm_items = 0
        self._divergence_sum = 0.0
        self._divergence_count = 0
        self._divergence_samples: List[float] = []
        self._sample_capacity = sample_capacity
        self._sample_stride = 1
        self._since_kept = 0

    def _bind_views(self) -> None:
        for name, buf in self._buffers.items():
            setattr(self, name, buf[: self.n_slots])

    def grow(self, n_new: int) -> int:
        """Extend tracking to ``n_new`` fresh slots; returns the new count.

        Existing slots keep their lifecycle state (release and
        first-impression times, impressions, warm crossing, divergence).
        New slots start unseen, cold and unsampled, so the running
        ``items_seen``/``warm_items``/divergence totals stay as they are.
        """
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        size = self.n_slots + n_new
        for name, (fill, _) in self._COLUMNS.items():
            buf = grow_rows(self._buffers[name], self.n_slots, size)
            buf[self.n_slots : size] = fill
            self._buffers[name] = buf
        self.n_slots = size
        self._bind_views()
        return size

    # ------------------------------------------------------------------
    def note_release(self, slot: int, timestamp: float) -> None:
        """Record when a slot entered the catalogue."""
        self._release[slot] = float(timestamp)

    def cold_mask(self, item_ids: np.ndarray) -> np.ndarray:
        """Which of ``item_ids`` are still below the warm threshold."""
        return self._impressions[item_ids] < self.warm_view_threshold

    def observe_impressions(
        self, item_ids: np.ndarray, timestamps: np.ndarray
    ) -> None:
        """Fold a batch of impressions (VIEW events) in, vectorised."""
        if item_ids.size == 0:
            return
        unique_items, first_positions, counts = np.unique(
            item_ids, return_index=True, return_counts=True
        )
        updated = self._impressions[unique_items] + counts
        crossed = (self._warm_at[unique_items] < 0) & (
            updated >= self.warm_view_threshold
        )
        self._warm_at[unique_items[crossed]] = updated[crossed]
        fresh = np.isnan(self._first_impression[unique_items])
        self._first_impression[unique_items[fresh]] = timestamps[
            first_positions[fresh]
        ]
        self._impressions[unique_items] = updated
        self._warm_items += int(np.count_nonzero(crossed))
        self._items_seen += int(np.count_nonzero(fresh))

    def observe_divergence(
        self, slots: np.ndarray, divergences: np.ndarray
    ) -> None:
        """Record ``1 - cosine`` divergences sampled at a refresh."""
        slots = np.asarray(slots, dtype=np.int64)
        divergences = np.asarray(divergences, dtype=float)
        # Unique slots read the latest value before and after the write,
        # so a slot listed twice (last write wins) is counted once.
        unique_slots = _sorted_unique(slots)
        previous = self._last_divergence[unique_slots]
        self._last_divergence[slots] = divergences
        latest = self._last_divergence[unique_slots]
        self._divergence_sum += float(np.nansum(latest) - np.nansum(previous))
        self._divergence_count += int(
            np.count_nonzero(~np.isnan(latest))
            - np.count_nonzero(~np.isnan(previous))
        )
        # Bounded sample (stride decimation, as Histogram does) for
        # stable percentile summaries over the whole run.
        for value in divergences:
            self._since_kept += 1
            if self._since_kept >= self._sample_stride:
                self._since_kept = 0
                self._divergence_samples.append(float(value))
                if len(self._divergence_samples) >= self._sample_capacity:
                    self._divergence_samples = self._divergence_samples[::2]
                    self._sample_stride *= 2

    # ------------------------------------------------------------------
    @property
    def items_seen(self) -> int:
        """Slots with at least one impression."""
        return self._items_seen

    @property
    def warm_items(self) -> int:
        """Slots that have crossed the warm threshold."""
        return self._warm_items

    def divergence_mean(self) -> Optional[float]:
        """Mean of the latest divergence per sampled slot."""
        if not self._divergence_count:
            return None
        return self._divergence_sum / self._divergence_count

    @staticmethod
    def _stats(values: np.ndarray) -> Optional[Dict[str, float]]:
        if values.size == 0:
            return None
        return {
            "mean": float(values.mean()),
            "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
            "max": float(values.max()),
        }

    def summary(self) -> Dict[str, object]:
        """JSON-friendly cohort lifecycle summary."""
        seen = ~np.isnan(self._first_impression)
        time_to_first = self._first_impression[seen] - self._release[seen]
        warm = self._warm_at >= 0
        divergences = np.asarray(self._divergence_samples)
        return {
            "n_slots": self.n_slots,
            "items_seen": int(seen.sum()),
            "warm_items": int(warm.sum()),
            "warm_view_threshold": self.warm_view_threshold,
            "time_to_first_impression": self._stats(time_to_first),
            "impressions_until_warm": self._stats(
                self._warm_at[warm].astype(float)
            ),
            "vector_divergence": self._stats(divergences),
            "vector_divergence_current_mean": self.divergence_mean(),
        }


def default_quality_rules(
    min_auc: float = 0.52,
    max_ece: float = 0.25,
    psi_warning: float = 0.25,
    psi_critical: float = 0.60,
    max_divergence: float = 0.80,
) -> Tuple[AlertRule, ...]:
    """The stock serving-quality rule set (thresholds overridable).

    The defaults are deliberately on the loose side — they catch
    collapses (an AUC at coin-flip level, a calibration blow-out, a
    score distribution that no longer resembles the reference, generator
    vectors pointing away from the encoder's), not day-to-day noise.
    """
    return (
        AlertRule(
            "auc-collapse",
            "quality.streaming_auc",
            min_auc,
            direction="below",
            clear_threshold=min_auc + 0.02,
            consecutive=2,
            severity=Severity.CRITICAL,
        ),
        AlertRule(
            "calibration-collapse",
            "quality.ece",
            max_ece,
            clear_threshold=max_ece * 0.7,
            consecutive=2,
            severity=Severity.WARNING,
        ),
        AlertRule(
            "score-drift",
            "drift.score.psi",
            psi_warning,
            clear_threshold=psi_warning * 0.6,
            consecutive=2,
            severity=Severity.WARNING,
        ),
        AlertRule(
            "score-drift-critical",
            "drift.score.psi",
            psi_critical,
            clear_threshold=psi_critical * 0.6,
            consecutive=2,
            severity=Severity.CRITICAL,
        ),
        AlertRule(
            "generator-divergence",
            "coldstart.divergence_mean",
            max_divergence,
            clear_threshold=max_divergence * 0.8,
            consecutive=2,
            severity=Severity.WARNING,
        ),
    )


class GaugeMirror:
    """Mirrors a snapshot's finite values into registry gauges.

    Gauge handles are cached per registry: a registry never replaces an
    instrument it created, so each name takes the registry's lock once,
    not on every mirror.
    """

    def __init__(self) -> None:
        self._registry: Optional[MetricsRegistry] = None
        self._gauges: Dict[str, Gauge] = {}

    def mirror(self, snapshot: Dict[str, Optional[float]]) -> None:
        """Set one gauge per finite value into the ambient registry."""
        registry = current_telemetry().registry
        if registry is None:
            return
        if registry is not self._registry:
            self._registry = registry
            self._gauges = {}
        gauges = self._gauges
        for name, value in snapshot.items():
            if isinstance(value, (int, float)) and math.isfinite(value):
                gauge = gauges.get(name)
                if gauge is None:
                    gauge = gauges[name] = registry.gauge(name)
                gauge.set(value)


class _CatalogueScoreBins:
    """Each catalogue slot's score bin, and the catalogue's bin counts.

    Kept between refreshes so that the score-drift channel re-bins only
    the slots whose score changed and the slots appended since, not the
    whole catalogue.  ``source`` is the caller's array the bins
    describe: a caller passes it back as ``previous`` to show that its
    new scores differ from it only at the slots it names and past its
    end.
    """

    def __init__(self, detector: DriftDetector) -> None:
        self._detector = detector
        self.source: Optional[object] = None
        self._buf = np.zeros(0, dtype=np.int64)
        self.size = 0
        # One count past the last bin, for NaN scores: no observation.
        self._counts = np.zeros(detector.n_bins + 1, dtype=np.int64)

    @property
    def counts(self) -> np.ndarray:
        """The catalogue's histogram (NaN scores left out)."""
        return self._counts[:-1]

    def _bincount(self, bins: np.ndarray) -> np.ndarray:
        return np.bincount(bins, minlength=self._counts.size)

    def assign(self, scores: np.ndarray) -> None:
        """Bin every slot of ``scores``."""
        self._buf = self._detector.bin(scores)
        self.size = self._buf.size
        self._counts = self._bincount(self._buf)

    def rebin(self, scores: np.ndarray, slots: np.ndarray) -> None:
        """Re-bin ``slots`` and bin the slots appended since the last call."""
        size = scores.size
        if size > self.size:
            appended = self._detector.bin(scores[self.size :])
            self._buf = grow_rows(self._buf, self.size, size)
            self._buf[self.size : size] = appended
            self._counts += self._bincount(appended)
            self.size = size
        if slots.size:
            if slots.size > 1 and not (slots[1:] > slots[:-1]).all():
                slots = _sorted_unique(slots)
            bins = self._buf[:size]
            self._counts -= self._bincount(bins[slots])
            bins[slots] = self._detector.bin(scores[slots])
            self._counts += self._bincount(bins[slots])


class QualityMonitor:
    """Bundles the streaming estimators, drift detectors and alerting.

    The serving engine feeds a monitor through three entry points:
    :meth:`observe_serving_batch` at ingest (impressions, clicks,
    cohorts, cold-start lifecycle, AUC/ECE over served scores),
    :meth:`observe_scores` at a full refresh and :meth:`observe_rescored`
    at an incremental one (catalogue score distribution into the
    ``score`` drift channel) and :meth:`observe_divergence` when warm
    slots are re-encoded.  Trainers feed
    :meth:`observe_validation` with held-out scores each epoch.

    Parameters
    ----------
    warm_view_threshold:
        Cold/warm cohort boundary; overridden by the engine's own
        threshold at :meth:`attach_catalogue` time.
    auc_bins, auc_window, ece_bins, ece_window, ctr_window:
        Estimator resolutions and sliding-window spans (None: cumulative).
    drift_reference, drift_window, drift_bins:
        Score-drift detector configuration (see
        :class:`~repro.obs.drift.DriftDetector`).
    rules, sinks:
        Alerting configuration; defaults to :func:`default_quality_rules`
        with a log sink (``sinks=()`` fires into no sink).
    min_outcomes:
        Outcomes required before AUC/ECE appear in snapshots (and can
        therefore trip alert rules) — warm-up handling.
    """

    def __init__(
        self,
        warm_view_threshold: int = 50,
        auc_bins: int = 512,
        auc_window: Optional[int] = None,
        ece_bins: int = 10,
        ece_window: Optional[int] = None,
        ctr_window: Optional[int] = None,
        drift_reference: int = 2000,
        drift_window: int = 2000,
        drift_bins: int = 32,
        rules: Optional[Sequence[AlertRule]] = None,
        sinks: Optional[Sequence[AlertSink]] = None,
        min_outcomes: int = 200,
    ) -> None:
        self.warm_view_threshold = warm_view_threshold
        self.auc = StreamingAUC(n_bins=auc_bins, window=auc_window)
        self.ece = WindowedECE(n_bins=ece_bins, window=ece_window)
        self.cohort_ctr = CohortCTR(window=ctr_window)
        self.score_drift = DriftDetector(
            n_bins=drift_bins,
            reference_size=drift_reference,
            window=drift_window,
        )
        self._score_bins = _CatalogueScoreBins(self.score_drift)
        self.feature_drift: Dict[str, DriftDetector] = {}
        self.alerts = AlertEngine(
            rules if rules is not None else default_quality_rules(),
            sinks=sinks,
        )
        self.cold_start: Optional[ColdStartTracker] = None
        self.min_outcomes = min_outcomes
        self.validation: Dict[str, Dict[str, float]] = {}
        self.impressions_seen = 0
        self.clicks_seen = 0
        self.outcomes_scored = 0
        self.score_emissions = 0
        # The snapshot the last evaluate() ran the rules on.
        self.last_snapshot: Optional[Dict[str, Optional[float]]] = None
        self._gauges = GaugeMirror()
        # Bounded log of ingestion samples, each stamped with the trace
        # of the request that produced it — joins monitor state to the
        # flight recorder's per-request records.
        self.samples: Deque[Dict[str, object]] = deque(maxlen=1024)

    def _sample(self, entry_point: str, **fields: object) -> None:
        context = current_telemetry().context
        record: Dict[str, object] = {
            "entry_point": entry_point,
            "trace_id": None if context is None else context.trace_id,
            "at_unix": time.time(),
        }
        record.update(fields)
        self.samples.append(record)

    # ------------------------------------------------------------------
    # Attachment and per-channel configuration
    # ------------------------------------------------------------------
    def attach_catalogue(
        self, n_slots: int, warm_view_threshold: Optional[int] = None
    ) -> "QualityMonitor":
        """Size the cold-start tracker for a catalogue (idempotent).

        A grown catalogue grows the tracker, keeping every existing
        slot's lifecycle state.
        """
        if warm_view_threshold is not None:
            self.warm_view_threshold = warm_view_threshold
        if self.cold_start is None:
            self.cold_start = ColdStartTracker(
                n_slots, warm_view_threshold=self.warm_view_threshold
            )
        elif self.cold_start.n_slots < n_slots:
            self.cold_start.grow(n_slots - self.cold_start.n_slots)
        return self

    def watch_feature(self, name: str, **detector_kwargs) -> DriftDetector:
        """Register (or fetch) a named feature drift channel."""
        if name not in self.feature_drift:
            self.feature_drift[name] = DriftDetector(**detector_kwargs)
        return self.feature_drift[name]

    def observe_feature(self, name: str, values) -> None:
        """Feed one batch of a watched feature's values."""
        self.watch_feature(name).update(values)

    # ------------------------------------------------------------------
    # Serving-path entry points
    # ------------------------------------------------------------------
    def observe_serving_batch(self, events, scores=None, columns=None) -> None:
        """Fold one ingested event batch in.

        ``scores`` is the score vector the engine was serving while the
        events happened (its last refresh); when None (no refresh yet),
        outcomes update cohorts and lifecycle but not AUC/ECE.
        ``columns`` optionally carries the precomputed
        :func:`~repro.serving.events.event_columns` arrays so callers
        that already decomposed the batch (the engine) don't pay for a
        second pass over the python event objects.
        """
        # Imported here (not at module top) to keep obs free of a hard
        # package dependency on repro.serving.
        from repro.serving.events import (
            EventKind,
            KIND_CODES,
            event_columns,
            join_outcome_columns,
        )

        if columns is None:
            if not events:
                return
            columns = event_columns(events)
        kinds, items, users, timestamps = columns
        if items.size == 0:
            return
        self._sample(
            "serving_batch", events=int(items.size), scored=scores is not None
        )
        if self.cold_start is None:
            self.attach_catalogue(int(items.max()) + 1)
        tracker = self.cold_start
        release_mask = kinds == KIND_CODES[EventKind.RELEASE]
        if release_mask.any():
            for slot, timestamp in zip(
                items[release_mask], timestamps[release_mask]
            ):
                tracker.note_release(int(slot), float(timestamp))
        items_v, users_v, ts_v, clicked = join_outcome_columns(
            kinds, items, users, timestamps
        )
        self.clicks_seen += int(
            np.count_nonzero(kinds == KIND_CODES[EventKind.CLICK])
        )
        if items_v.size == 0:
            return
        self.impressions_seen += int(items_v.size)
        cold = tracker.cold_mask(items_v)
        tracker.observe_impressions(items_v, ts_v)
        n_cold = int(cold.sum())
        self.cohort_ctr.record("cold", n_cold, float(clicked[cold].sum()))
        self.cohort_ctr.record(
            "warm", items_v.size - n_cold, float(clicked[~cold].sum())
        )
        if scores is not None:
            served = np.clip(np.asarray(scores)[items_v], 0.0, 1.0)
            labels = clicked.astype(float)
            self.auc.update(labels, served)
            self.ece.update(labels, served)
            self.outcomes_scored += int(items_v.size)

    def observe_scores(self, scores) -> None:
        """Feed a refreshed catalogue score distribution (drift channel).

        Bins every slot.  Once the reference has frozen, the bins are
        kept for :meth:`observe_rescored`.
        """
        values = np.asarray(scores, dtype=float).ravel()
        self._sample("scores", n=int(values.size))
        if self.score_drift.reference_frozen:
            self._score_bins.assign(values)
            self._score_bins.source = scores
            self.score_drift.update_counts(self._score_bins.counts)
        else:
            # The reference takes the head of the values in order.
            self._score_bins.source = None
            self.score_drift.update(values)
        self.score_emissions += 1

    def observe_rescored(self, scores, slots, previous) -> None:
        """Feed a refreshed catalogue that re-scored only ``slots``.

        ``scores`` must equal ``previous`` except at ``slots`` and at
        slots appended past its end.  When ``previous`` is the array this
        monitor binned last (and the reference has frozen), only those
        slots are re-binned and the detector gets the catalogue histogram
        as one counts block, the same update as :meth:`observe_scores`
        in O(changed slots).  Otherwise this is :meth:`observe_scores`.
        """
        bins = self._score_bins
        if (
            previous is None
            or previous is not bins.source
            or np.size(scores) < bins.size
            or not self.score_drift.reference_frozen
        ):
            self.observe_scores(scores)
            return
        values = np.asarray(scores, dtype=float).ravel()
        self._sample("scores", n=int(values.size))
        bins.rebin(values, np.asarray(slots, dtype=np.int64))
        bins.source = scores
        self.score_drift.update_counts(bins.counts)
        self.score_emissions += 1

    def observe_divergence(self, slots, generated, encoded) -> None:
        """Record generator-vs-encoder cosine divergence for re-encoded slots."""
        if self.cold_start is None:
            return
        self._sample("divergence", slots=int(np.asarray(slots).size))
        generated = np.asarray(generated, dtype=float)
        encoded = np.asarray(encoded, dtype=float)
        inner = np.sum(generated * encoded, axis=1)
        norms = np.linalg.norm(generated, axis=1) * np.linalg.norm(
            encoded, axis=1
        )
        norms = np.where(norms < 1e-12, 1.0, norms)
        self.cold_start.observe_divergence(slots, 1.0 - inner / norms)

    # ------------------------------------------------------------------
    # Training-eval entry point
    # ------------------------------------------------------------------
    def observe_validation(self, path: str, labels, scores) -> None:
        """Record exact quality of one validation pass (per model path)."""
        labels, scores = _outcome_arrays(labels, scores)
        self._sample("validation", path=path, n=int(labels.size))
        record: Dict[str, float] = {"n": float(labels.size)}
        try:
            record["auc"] = roc_auc(labels, scores)
        except ValueError:
            pass
        try:
            record["ece"] = calibration_error(labels, np.clip(scores, 0.0, 1.0))
        except ValueError:
            pass
        self.validation[path] = record

    # ------------------------------------------------------------------
    # Snapshots, alerting, reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Optional[float]]:
        """Flat metric mapping (None while an estimator warms up)."""
        warmed = self.outcomes_scored >= self.min_outcomes
        out: Dict[str, Optional[float]] = {
            "quality.streaming_auc": self.auc.value if warmed else None,
            "quality.ece": self.ece.value if warmed else None,
            "quality.impressions": float(self.impressions_seen),
            "quality.clicks": float(self.clicks_seen),
            "quality.outcomes_scored": float(self.outcomes_scored),
        }
        for cohort, ctr in self.cohort_ctr.ctrs().items():
            out[f"quality.ctr.{cohort}"] = ctr
        out["drift.score.psi"], out["drift.score.kl"] = (
            self.score_drift.divergences()
        )
        for name, detector in sorted(self.feature_drift.items()):
            (
                out[f"drift.feature.{name}.psi"],
                out[f"drift.feature.{name}.kl"],
            ) = detector.divergences()
        if self.cold_start is not None:
            out["coldstart.items_seen"] = float(self.cold_start.items_seen)
            out["coldstart.warm_items"] = float(self.cold_start.warm_items)
            out["coldstart.divergence_mean"] = self.cold_start.divergence_mean()
        for path, record in sorted(self.validation.items()):
            for key, value in record.items():
                if key != "n":
                    out[f"quality.validation.{path}.{key}"] = value
        return out

    def evaluate(self) -> List[Alert]:
        """Run the alert rules against a fresh snapshot.

        Finite snapshot values are also mirrored into the ambient metrics
        registry as gauges, so Prometheus/JSONL exports carry them.  The
        snapshot stays readable as :attr:`last_snapshot`, so a caller
        that needs it too (the SLO tracker's quality windows) does not
        compute it again.
        """
        snapshot = self.last_snapshot = self.snapshot()
        self._gauges.mirror(snapshot)
        transitions = self.alerts.evaluate(snapshot)
        for alert in transitions:
            _LOGGER.debug(
                kv("alert transition", rule=alert.rule, kind=alert.kind)
            )
        return transitions

    def iter_records(self) -> Iterator[Dict[str, object]]:
        """Report lines (quality / drift / coldstart / monitor_sample / alert)."""
        for name, value in self.snapshot().items():
            yield {"type": "quality", "name": name, "value": value}
        channels: List[Tuple[str, DriftDetector]] = [("score", self.score_drift)]
        channels.extend(sorted(self.feature_drift.items()))
        for channel, detector in channels:
            record: Dict[str, object] = {"type": "drift", "channel": channel}
            record.update(detector.snapshot())
            yield record
        if self.cold_start is not None:
            record = {"type": "coldstart"}
            record.update(self.cold_start.summary())
            yield record
        for sample in self.samples:
            record = {"type": "monitor_sample"}
            record.update(sample)
            yield record
        for alert_record in self.alerts.iter_records():
            record = {"type": "alert"}
            record.update(alert_record)
            yield record

    def to_text(self) -> str:
        """Short human-readable monitor summary."""
        lines = ["model-quality monitor"]
        for name, value in self.snapshot().items():
            rendered = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"  {name} = {rendered}")
        active = self.alerts.active_alerts()
        lines.append(
            f"  alerts: {len(self.alerts.fired)} fired, "
            f"{len(active)} active{' (' + ', '.join(active) + ')' if active else ''}"
        )
        return "\n".join(lines)
