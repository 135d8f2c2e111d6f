"""Serving warm-up experiment (Section IV-D deployment behaviour).

The deployed engine starts by scoring every new arrival through the
generator (profiles only) and switches items to the statistics-aware
encoder once behaviour accumulates.  This experiment streams behaviour
events in stages and measures, after each stage, the Spearman correlation
between the engine's scores and ground-truth popularity — quantifying how
much live statistics sharpen the cold-start ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.pipeline import TmallArtifacts, build_tmall_artifacts
from repro.metrics import rank_correlation
from repro.metrics.auc import roc_auc
from repro.obs.context import current_telemetry, use_telemetry
from repro.obs.quality import QualityMonitor
from repro.serving import EngineConfig, RealTimeEngine, generate_event_stream
from repro.serving.events import join_click_outcomes
from repro.utils.rng import derive_seed
from repro.utils.tabulate import format_table

__all__ = [
    "ServingStage",
    "ServingEvalResult",
    "MonitoredServingResult",
    "run_serving_eval",
    "run_monitored_serving",
]


@dataclass
class ServingStage:
    """Engine quality after one ingestion stage."""

    events_total: int
    warm_items: int
    rank_corr_vs_truth: float


@dataclass
class ServingEvalResult:
    """Warm-up trajectory of the real-time engine."""

    stages: List[ServingStage]
    preset: str

    def as_dict(self):
        """JSON-friendly summary."""
        return {
            "stages": [
                {
                    "events_total": stage.events_total,
                    "warm_items": stage.warm_items,
                    "rank_corr_vs_truth": stage.rank_corr_vs_truth,
                }
                for stage in self.stages
            ]
        }

    def render(self) -> str:
        """ASCII report of the warm-up trajectory."""
        return format_table(
            ["Events ingested", "Warm items", "Rank corr vs true popularity"],
            [
                [stage.events_total, stage.warm_items, stage.rank_corr_vs_truth]
                for stage in self.stages
            ],
            precision=4,
            title=f"Serving warm-up (preset={self.preset})",
        )

    @property
    def cold_quality(self) -> float:
        """Ranking quality before any events."""
        return self.stages[0].rank_corr_vs_truth

    @property
    def warm_quality(self) -> float:
        """Ranking quality after the final stage."""
        return self.stages[-1].rank_corr_vs_truth


def run_serving_eval(
    preset: str = "default",
    artifacts: Optional[TmallArtifacts] = None,
    event_batches: Optional[Sequence[int]] = None,
    warm_view_threshold: int = 30,
) -> ServingEvalResult:
    """Measure engine ranking quality across ingestion stages.

    Parameters
    ----------
    preset:
        Size preset name (ignored when ``artifacts`` is given).
    artifacts:
        Optional pre-trained stack.
    event_batches:
        View-event counts ingested *before* each measurement; the first
        entry is typically 0 (the all-cold state).  Defaults scale with
        the catalogue size so mid-stage batches actually warm items.
    warm_view_threshold:
        Views needed before an item switches to the encoder path.
    """
    if artifacts is None:
        artifacts = build_tmall_artifacts(preset)
    world = artifacts.world
    seed = artifacts.preset.seed
    if event_batches is None:
        n = len(world.new_items)
        event_batches = (0, 20 * n, 60 * n)

    engine = RealTimeEngine(
        artifacts.model,
        world.new_items,
        world.active_user_group(0.25),
        EngineConfig(warm_view_threshold=warm_view_threshold),
    )
    rng = np.random.default_rng(derive_seed(seed, "serving-eval"))
    catalogue = np.arange(len(world.new_items))

    stages: List[ServingStage] = []
    for batch_size in event_batches:
        if batch_size > 0:
            events = generate_event_stream(
                world, catalogue, n_events=batch_size, rng=rng
            )
            engine.ingest(events)
        scores = engine.refresh()
        stages.append(
            ServingStage(
                events_total=engine.events_seen,
                warm_items=int(
                    engine.store.warm_slots(warm_view_threshold).size
                ),
                rank_corr_vs_truth=rank_correlation(
                    scores, world.new_item_popularity
                ),
            )
        )
    return ServingEvalResult(stages=stages, preset=artifacts.preset.name)


@dataclass
class MonitoredServingResult:
    """Monitored serving run: warm-up trajectory plus quality telemetry.

    ``exact_auc`` is the ground-truth check computed offline over every
    scored impression (outcomes joined against the scores that served
    them), and ``streaming_auc`` is the monitor's histogram estimate of
    the same quantity — the two should agree to well within 0.01.
    """

    stages: List[ServingStage]
    preset: str
    quality: Dict[str, Optional[float]] = field(default_factory=dict)
    cold_start: Dict[str, object] = field(default_factory=dict)
    alerts: List[Dict[str, object]] = field(default_factory=list)
    exact_auc: Optional[float] = None
    streaming_auc: Optional[float] = None
    slo: Dict[str, Optional[float]] = field(default_factory=dict)
    slo_exhausted: List[str] = field(default_factory=list)

    def as_dict(self):
        """JSON-friendly summary."""
        return {
            "stages": [
                {
                    "events_total": stage.events_total,
                    "warm_items": stage.warm_items,
                    "rank_corr_vs_truth": stage.rank_corr_vs_truth,
                }
                for stage in self.stages
            ],
            "quality": dict(self.quality),
            "cold_start": dict(self.cold_start),
            "alerts": list(self.alerts),
            "exact_auc": self.exact_auc,
            "streaming_auc": self.streaming_auc,
            "slo": dict(self.slo),
            "slo_exhausted": list(self.slo_exhausted),
        }

    def render(self) -> str:
        """ASCII report: warm-up table plus the quality snapshot."""
        table = format_table(
            ["Events ingested", "Warm items", "Rank corr vs true popularity"],
            [
                [stage.events_total, stage.warm_items, stage.rank_corr_vs_truth]
                for stage in self.stages
            ],
            precision=4,
            title=f"Monitored serving (preset={self.preset})",
        )
        lines = [table, "", "quality snapshot:"]
        for name, value in sorted(self.quality.items()):
            rendered = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"  {name} = {rendered}")
        if self.exact_auc is not None and self.streaming_auc is not None:
            lines.append(
                f"  auc check: exact={self.exact_auc:.6f} "
                f"streaming={self.streaming_auc:.6f} "
                f"gap={abs(self.exact_auc - self.streaming_auc):.6f}"
            )
        fired = [a for a in self.alerts if a.get("kind") == "fired"]
        lines.append(f"  alerts fired: {len(fired)}")
        for alert in fired:
            lines.append(
                f"    {alert['rule']} ({alert['severity']}): "
                f"{alert['metric']}={alert['value']:.6g}"
            )
        budgets = sorted(
            name for name in self.slo if name.endswith(".budget_remaining")
        )
        if budgets:
            lines.append("  slo budgets:")
            for name in budgets:
                value = self.slo[name]
                rendered = "n/a" if value is None else f"{value:.3f}"
                lines.append(f"    {name} = {rendered}")
        if self.slo_exhausted:
            lines.append(
                f"  exhausted budgets: {', '.join(self.slo_exhausted)}"
            )
        return "\n".join(lines)


def run_monitored_serving(
    preset: str = "default",
    artifacts: Optional[TmallArtifacts] = None,
    event_batches: Optional[Sequence[int]] = None,
    warm_view_threshold: int = 30,
    monitor: Optional[QualityMonitor] = None,
) -> MonitoredServingResult:
    """The serving warm-up loop with the quality monitor armed.

    Uses the ambient telemetry's monitor when it has one (e.g. the CLI's
    ``--monitor`` telemetry session); otherwise builds a default
    :class:`~repro.obs.quality.QualityMonitor` and puts it in the slot
    for the run.
    Alongside the monitor's streaming estimates, the run accumulates
    every (outcome, served score) pair and computes the **exact** AUC
    offline, so reports carry both numbers and their gap.
    """
    if artifacts is None:
        artifacts = build_tmall_artifacts(preset)
    world = artifacts.world
    seed = artifacts.preset.seed
    if event_batches is None:
        n = len(world.new_items)
        event_batches = (0, 20 * n, 60 * n)

    telemetry = current_telemetry()
    if monitor is None:
        monitor = telemetry.monitor or QualityMonitor()

    engine = RealTimeEngine(
        artifacts.model,
        world.new_items,
        world.active_user_group(0.25),
        EngineConfig(warm_view_threshold=warm_view_threshold),
    )
    rng = np.random.default_rng(derive_seed(seed, "serving-monitor"))
    catalogue = np.arange(len(world.new_items))

    stages: List[ServingStage] = []
    exact_labels: List[np.ndarray] = []
    exact_scores: List[np.ndarray] = []
    with use_telemetry(replace(telemetry, monitor=monitor)):
        for batch_size in event_batches:
            if batch_size > 0:
                events = generate_event_stream(
                    world, catalogue, n_events=batch_size, rng=rng
                )
                served = engine.last_scores
                if served is not None:
                    items, _, _, clicked = join_click_outcomes(events)
                    if items.size:
                        exact_labels.append(clicked.astype(float))
                        exact_scores.append(
                            np.clip(served[items], 0.0, 1.0)
                        )
                engine.ingest(events)
            engine.refresh()
            stages.append(
                ServingStage(
                    events_total=engine.events_seen,
                    warm_items=int(
                        engine.store.warm_slots(warm_view_threshold).size
                    ),
                    rank_corr_vs_truth=rank_correlation(
                        engine.last_scores, world.new_item_popularity
                    ),
                )
            )

    snapshot = monitor.snapshot()
    exact_auc: Optional[float] = None
    if exact_labels:
        labels = np.concatenate(exact_labels)
        scores = np.concatenate(exact_scores)
        if 0.0 < labels.mean() < 1.0:
            exact_auc = roc_auc(labels, scores)
    # Riding SLO tracker (e.g. the CLI's --slo session): the engine's
    # request scopes have already fed it; report its state.
    tracker = telemetry.slo
    slo_snapshot: Dict[str, Optional[float]] = {}
    slo_exhausted: List[str] = []
    if tracker is not None:
        tracker.evaluate()
        slo_snapshot = tracker.snapshot()
        slo_exhausted = tracker.exhausted()
    return MonitoredServingResult(
        stages=stages,
        preset=artifacts.preset.name,
        quality=snapshot,
        cold_start=(
            monitor.cold_start.summary() if monitor.cold_start is not None else {}
        ),
        alerts=[dict(record) for record in monitor.alerts.iter_records()],
        exact_auc=exact_auc,
        streaming_auc=snapshot.get("quality.streaming_auc"),
        slo=slo_snapshot,
        slo_exhausted=slo_exhausted,
    )
