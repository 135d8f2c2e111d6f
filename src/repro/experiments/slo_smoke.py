"""SLO smoke run: burn-rate alerting end to end, clean and spiked.

The experiment replays the monitored serving stream twice under a
latency + availability + streaming-AUC SLO set:

* the **clean** phase streams normal traffic and expects quiet alerting
  — error budgets stay unexhausted and no burn-rate rule fires;
* the **spiked** phase injects a sustained latency spike (a slow
  ``inject.latency`` span inside the store-ingest path, visible in the
  flight recorder's span trees) and expects the multi-window burn-rate
  rule on the latency SLO to fire, the error budget to drain, and a
  postmortem bundle to land whose slowest exemplar names the offending
  span.

CI's ``slo-smoke`` job runs this with the smoke preset and asserts both
phases behaved; it is also the acceptance scenario of the observability
test-suite.  Run it manually with::

    atnn-repro slo-smoke --preset smoke
    python -m repro.experiments.slo_smoke --output results/
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.pipeline import TmallArtifacts, build_tmall_artifacts
from repro.obs.context import Telemetry, use_telemetry
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import QualityMonitor
from repro.obs.slo import SLO, SLOTracker
from repro.obs.tracing import Tracer, maybe_span
from repro.serving import EngineConfig, RealTimeEngine, generate_event_stream
from repro.utils.rng import derive_seed

__all__ = ["SLOPhase", "SLOSmokeResult", "run_slo_smoke", "smoke_slos"]


def smoke_slos(
    latency_threshold: float,
    auc_floor: float = 0.5,
) -> List[SLO]:
    """The smoke-run SLO set, sized so a short stream can trip the rules.

    The windows are small (fast 8 / slow 32 events) so the injected
    spike fires within one phase, but the multi-window minimum still
    requires a *sustained* breach — one slow outlier in the fast window
    cannot fire anything while the slow window stays clean.
    """
    return [
        SLO.latency(
            "serving-latency",
            latency_threshold,
            objective=0.9,
            window=32,
            fast_window=8,
            min_events=8,
            burn_alert=2.0,
        ),
        SLO.availability(
            "serving-availability",
            objective=0.99,
            window=32,
            fast_window=8,
            min_events=8,
        ),
        SLO.quality(
            "streaming-auc",
            "quality.streaming_auc",
            floor=auc_floor,
            objective=0.9,
            window=16,
            fast_window=4,
            min_events=4,
        ),
    ]


@dataclass
class SLOPhase:
    """Outcome of one phase (clean or spiked) of the smoke run."""

    name: str
    requests_seen: int
    burn_alerts_fired: List[str] = field(default_factory=list)
    budgets: Dict[str, Optional[float]] = field(default_factory=dict)
    exhausted: List[str] = field(default_factory=list)
    postmortems: List[str] = field(default_factory=list)
    slowest_trace_id: Optional[str] = None
    slowest_hottest_span: Optional[str] = None
    prometheus_text: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "requests_seen": self.requests_seen,
            "burn_alerts_fired": list(self.burn_alerts_fired),
            "budgets": dict(self.budgets),
            "exhausted": list(self.exhausted),
            "postmortems": list(self.postmortems),
            "slowest_trace_id": self.slowest_trace_id,
            "slowest_hottest_span": self.slowest_hottest_span,
        }


@dataclass
class SLOSmokeResult:
    """Both phases plus the derived pass/fail verdicts."""

    preset: str
    clean: SLOPhase
    spiked: SLOPhase

    @property
    def clean_ok(self) -> bool:
        """Clean stream: budgets intact, burn-rate rules silent."""
        return not self.clean.burn_alerts_fired and not self.clean.exhausted

    @property
    def spike_detected(self) -> bool:
        """Spiked stream: the latency burn-rate rule fired."""
        return any(
            name.startswith("slo-burn:serving-latency")
            for name in self.spiked.burn_alerts_fired
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "preset": self.preset,
            "clean": self.clean.as_dict(),
            "spiked": self.spiked.as_dict(),
            "clean_ok": self.clean_ok,
            "spike_detected": self.spike_detected,
        }

    def render(self) -> str:
        lines = [f"SLO smoke (preset={self.preset})"]
        for phase in (self.clean, self.spiked):
            lines.append(f"  phase {phase.name}: {phase.requests_seen} requests")
            lines.append(
                "    burn alerts fired: "
                + (", ".join(phase.burn_alerts_fired) or "none")
            )
            for name in sorted(phase.budgets):
                value = phase.budgets[name]
                lines.append(
                    f"    budget {name}: "
                    f"{'n/a' if value is None else format(value, '.3f')}"
                )
            if phase.exhausted:
                lines.append(
                    f"    exhausted: {', '.join(phase.exhausted)}"
                )
            if phase.slowest_trace_id is not None:
                lines.append(
                    f"    slowest request: {phase.slowest_trace_id} "
                    f"(hottest span: {phase.slowest_hottest_span})"
                )
            for bundle in phase.postmortems:
                lines.append(f"    postmortem: {bundle}")
        lines.append(f"  clean_ok={self.clean_ok} spike_detected={self.spike_detected}")
        return "\n".join(lines)


def _run_phase(
    name: str,
    artifacts: TmallArtifacts,
    n_batches: int,
    events_per_batch: int,
    latency_threshold: float,
    spike_seconds: float,
    spike_from: Optional[int],
    postmortem_dir: Optional[Path],
    warm_view_threshold: int,
) -> SLOPhase:
    world = artifacts.world
    engine = RealTimeEngine(
        artifacts.model,
        world.new_items,
        world.active_user_group(0.25),
        EngineConfig(warm_view_threshold=warm_view_threshold),
    )
    rng = np.random.default_rng(derive_seed(artifacts.preset.seed, f"slo-{name}"))
    catalogue = np.arange(len(world.new_items))

    registry = MetricsRegistry()
    tracer = Tracer()
    monitor = QualityMonitor(min_outcomes=50)
    tracker = SLOTracker(smoke_slos(latency_threshold), evaluate_every=4)
    recorder = FlightRecorder(
        capacity=128,
        tail_exemplars=8,
        postmortem_dir=postmortem_dir,
        dump_debounce=16,
    )

    original_ingest = engine.store.ingest

    def slow_ingest(events, columns=None):
        # The injected spike lives inside the request scope the engine
        # opens around ingest, so the flight-recorder exemplar's span
        # tree names it as the hottest span.
        with maybe_span("inject.latency"):
            time.sleep(spike_seconds)
        return original_ingest(events, columns=columns)

    telemetry = Telemetry(
        registry=registry, tracer=tracer, monitor=monitor, slo=tracker,
        flight=recorder,
    )
    with use_telemetry(telemetry):
        for batch in range(n_batches):
            if spike_from is not None and batch >= spike_from:
                engine.store.ingest = slow_ingest
            events = generate_event_stream(
                world, catalogue, n_events=events_per_batch, rng=rng
            )
            engine.ingest(events)
            engine.refresh()
            engine.top_k(min(10, len(catalogue)))
        tracker.evaluate()
    engine.store.ingest = original_ingest

    snapshot = tracker.snapshot()
    slowest = recorder.slowest_requests(1)
    return SLOPhase(
        name=name,
        requests_seen=tracker.requests_seen,
        burn_alerts_fired=[
            alert.rule
            for alert in tracker.alerts.fired
            if alert.rule.startswith("slo-burn:")
        ],
        budgets={
            key: value
            for key, value in snapshot.items()
            if key.endswith(".budget_remaining")
        },
        exhausted=tracker.exhausted(),
        postmortems=[str(path) for path in recorder.dumps],
        slowest_trace_id=slowest[0].trace_id if slowest else None,
        slowest_hottest_span=slowest[0].hottest_span() if slowest else None,
        prometheus_text=registry.to_prometheus_text(),
    )


def run_slo_smoke(
    preset: str = "smoke",
    artifacts: Optional[TmallArtifacts] = None,
    n_batches: int = 12,
    events_per_batch: Optional[int] = None,
    latency_threshold: float = 0.35,
    spike_seconds: Optional[float] = None,
    spike_from: int = 4,
    postmortem_dir: Optional[Path] = None,
    warm_view_threshold: int = 10,
) -> SLOSmokeResult:
    """Run the clean and spiked phases and return both verdicts.

    Parameters
    ----------
    preset:
        Size preset (ignored when ``artifacts`` is given).
    n_batches, events_per_batch:
        Stream shape per phase (defaults scale with the catalogue).
    latency_threshold:
        Latency SLO bound in seconds.  The default is far above any
        smoke-preset ingest/refresh on healthy hardware, so one noisy
        scheduler stall cannot fire the clean phase; the injected spike
        exceeds it on every spiked request.
    spike_seconds:
        Injected delay per ingest once the spike starts (defaults to
        ``2 * latency_threshold``).
    spike_from:
        Batch index at which the spiked phase's delay switches on.
    postmortem_dir:
        Where spiked-phase postmortem bundles land (None: no bundles).
    """
    if artifacts is None:
        artifacts = build_tmall_artifacts(preset)
    if events_per_batch is None:
        events_per_batch = 10 * len(artifacts.world.new_items)
    if spike_seconds is None:
        spike_seconds = 2.0 * latency_threshold

    clean = _run_phase(
        "clean",
        artifacts,
        n_batches=n_batches,
        events_per_batch=events_per_batch,
        latency_threshold=latency_threshold,
        spike_seconds=0.0,
        spike_from=None,
        postmortem_dir=None,
        warm_view_threshold=warm_view_threshold,
    )
    spiked = _run_phase(
        "spiked",
        artifacts,
        n_batches=n_batches,
        events_per_batch=events_per_batch,
        latency_threshold=latency_threshold,
        spike_seconds=spike_seconds,
        spike_from=spike_from,
        postmortem_dir=postmortem_dir,
        warm_view_threshold=warm_view_threshold,
    )
    return SLOSmokeResult(preset=artifacts.preset.name, clean=clean, spiked=spiked)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.experiments.slo_smoke``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.slo_smoke",
        description="Run the SLO burn-rate smoke check (clean + spiked).",
    )
    parser.add_argument("--preset", default="smoke")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory for the JSON verdict and postmortem bundles",
    )
    args = parser.parse_args(argv)
    postmortem_dir = args.output / "postmortems" if args.output else None
    result = run_slo_smoke(preset=args.preset, postmortem_dir=postmortem_dir)
    print(result.render())
    if args.output is not None:
        from repro.utils.serialization import save_json

        save_json(result.as_dict(), args.output / "slo_smoke.json")
    return 0 if (result.clean_ok and result.spike_detected) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
