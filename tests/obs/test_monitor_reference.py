"""The incremental score-drift channel against the reference monitor calls.

Two monitors (each with its SLO tracker and registry) watch one engine.
The live pair is armed and fed by the engine: per-slot score bins, one
snapshot per refresh, cached gauge handles.  The twin pair is fed the
same ingests and arrivals, and at every refresh the reference calls of
``monitor_reference`` (the whole catalogue, two snapshots, one gauge
lookup per value).  After every tick both must agree bit for bit: every
monitor and SLO snapshot, every mirrored gauge, the drift detector's
reference and live totals, and the alert transitions.

The replay covers a catalogue below the drift reference (the reference
freezes across refreshes and refresh histograms share the window) and
one above the window, arrivals between refreshes, incremental and full
refreshes, a weight change, and refreshes the monitor does not see.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import ATNN, TowerConfig
from repro.obs import (
    CallbackSink,
    MetricsRegistry,
    QualityMonitor,
    SLOTracker,
    default_quality_rules,
    default_serving_slos,
    Telemetry,
    use_telemetry,
)
from repro.serving import EngineConfig, Event, EventKind, RealTimeEngine
from tests.obs import monitor_reference as reference

TICKS = 18
ARRIVAL_TICKS = {2, 3, 7, 12, 15}
FULL_TICKS = {5, 11}
WEIGHT_CHANGE_TICK = 8  # before this tick's (incremental) refresh
UNSEEN_TICKS = {13}  # ingest and refresh with no monitor armed
WARM = 4

CONFIGS = {
    # 150 slots against a reference of 400: it freezes during the third
    # refresh, and refresh histograms share the 300-observation window.
    "below-reference": {"drift_reference": 400, "drift_window": 300},
    # The first refresh fills the reference; every catalogue histogram
    # after it covers more than the window.
    "above-window": {"drift_reference": 60, "drift_window": 100},
}


@pytest.fixture(scope="module")
def model(tiny_tmall_world):
    return ATNN(
        tiny_tmall_world.schema,
        TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                    num_cross_layers=1),
        rng=np.random.default_rng(21),
    )


def _events(rng, n_slots, tick):
    """Views skewed to low slots (so some warm up), clicks on a third."""
    slots = np.minimum(rng.geometric(0.03, size=60) - 1, n_slots - 1)
    users = rng.integers(0, 300, size=slots.size)
    events = []
    for offset, (slot, user) in enumerate(zip(slots.tolist(), users.tolist())):
        when = tick * 100.0 + offset
        events.append(Event(EventKind.VIEW, slot, user, when))
        if rng.random() < 0.2 + 0.5 * (slot % 3 == 0):
            events.append(Event(EventKind.CLICK, slot, user, when + 0.5))
    return events


def _quiet():
    return (CallbackSink(lambda alert: None),)


def _pair(config):
    monitor = QualityMonitor(
        min_outcomes=20,
        rules=default_quality_rules(min_auc=0.6, psi_warning=0.02, psi_critical=0.08),
        sinks=_quiet(),
        **config,
    )
    tracker = SLOTracker(
        default_serving_slos(auc_floor=0.6), sinks=_quiet(), evaluate_every=0
    )
    return monitor, tracker, MetricsRegistry()


def _gauges(registry, names):
    """The gauges among ``names`` (the store sets gauges of its own)."""
    return {
        name: payload["value"]
        for name, payload in registry.as_dict().items()
        if payload["type"] == "gauge" and name in names
    }


def _transitions(engine):
    return [
        (alert.rule, alert.kind, alert.value, alert.threshold)
        for alert in engine.history
    ]


def _assert_identical(live, twin):
    monitor, tracker, registry = live
    twin_monitor, twin_tracker, twin_registry = twin
    expected = reference.snapshot(twin_monitor)
    assert monitor.last_snapshot == expected
    assert monitor.snapshot() == expected
    assert tracker.snapshot() == twin_tracker.snapshot()
    mirrored = set(expected) | set(twin_tracker.snapshot())
    assert {
        name for name in twin_registry.names() if not name.startswith("alerts.")
    } <= mirrored
    assert _gauges(registry, mirrored) == _gauges(twin_registry, mirrored)
    drift, twin_drift = monitor.score_drift, twin_monitor.score_drift
    assert drift.n_reference == twin_drift.n_reference
    assert drift.n_live == twin_drift.n_live
    assert np.array_equal(drift._reference, twin_drift._reference)
    (live_totals,) = drift._live.totals()
    (twin_totals,) = twin_drift._live.totals()
    assert np.array_equal(live_totals, twin_totals)
    assert monitor.score_emissions == twin_monitor.score_emissions
    assert _transitions(monitor.alerts) == _transitions(twin_monitor.alerts)
    assert _transitions(tracker.alerts) == _transitions(twin_tracker.alerts)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_replay_matches_the_reference_calls(name, tiny_tmall_world, model):
    world = tiny_tmall_world
    config = CONFIGS[name]
    live, twin = _pair(config), _pair(config)
    monitor, tracker, registry = live
    twin_monitor, twin_tracker, twin_registry = twin
    head = model.scoring_head.weight
    original_head = head.data.copy()
    engine = RealTimeEngine(
        model, world.new_items, world.active_user_group(0.2),
        EngineConfig(warm_view_threshold=WARM),
    )
    # What the engine hands the live monitor for the divergence sample,
    # so the twin gets the same; and how often the bins were reused.
    sampled = []
    monitor.observe_divergence = _recording(monitor.observe_divergence, sampled)
    requests = _Requests()
    counts = {"assign": 0, "rebin": 0}
    bins = monitor._score_bins
    bins.assign = _counting(bins.assign, counts, "assign")
    bins.rebin = _counting(bins.rebin, counts, "rebin")

    @contextmanager
    def armed():
        # The twin tracker sees the same completed requests (the flight
        # hook runs after the live tracker's), held back so that it
        # evaluates where the live one did.
        with use_telemetry(Telemetry(
            registry=registry, monitor=monitor, slo=tracker, flight=requests,
        )):
            yield

    def twin_refresh():
        # The live tracker evaluated inside the refresh request, before
        # that request completed.
        *earlier, refresh_request = requests.records
        assert refresh_request.kind == "refresh"
        for record in earlier:
            twin_tracker.on_request(record)
        with use_telemetry(Telemetry(registry=twin_registry)):
            reference.refresh(
                twin_monitor, twin_tracker, twin_registry,
                len(engine.catalogue), WARM, engine.last_scores,
                sampled.pop() if sampled else None,
            )
        twin_tracker.on_request(refresh_request)
        requests.records.clear()

    rng = np.random.default_rng(len(name))
    try:
        with armed():
            engine.refresh()
        twin_refresh()
        _assert_identical(live, twin)
        if name == "below-reference":
            assert not monitor.score_drift.reference_frozen
        for tick in range(TICKS):
            if tick in UNSEEN_TICKS:
                engine.ingest(_events(rng, len(engine.catalogue), tick))
                engine.refresh()
                continue
            if tick == WEIGHT_CHANGE_TICK:
                head.assign_(head.data * 1.7 + 0.05)
            events = _events(rng, len(engine.catalogue), tick)
            served = engine.last_scores
            with armed():
                engine.ingest(events)
            with use_telemetry(Telemetry(registry=twin_registry)):
                twin_monitor.attach_catalogue(len(engine.catalogue), WARM)
                twin_monitor.observe_serving_batch(events, scores=served)
            if tick in ARRIVAL_TICKS:
                arrivals = world.new_items.subset(rng.integers(0, 150, size=7))
                with armed():
                    engine.add_arrivals(arrivals)
                twin_monitor.attach_catalogue(len(engine.catalogue), WARM)
            with armed():
                engine.refresh(full=tick in FULL_TICKS)
            assert not sampled or len(sampled) == 1
            twin_refresh()
            _assert_identical(live, twin)
    finally:
        head.assign_(original_head)
    assert len(engine.catalogue) == 150 + 7 * len(ARRIVAL_TICKS)
    # 18 refreshes reached the monitor.  Those that began before the
    # reference froze (1 or 3) went through DriftDetector.update; four
    # binned the whole catalogue (the first after the freeze, the two
    # full refreshes, the one after the unseen refresh); the kept bins
    # served the rest.
    frozen_late = name == "below-reference"
    assert counts == {"assign": 4, "rebin": 11 if frozen_late else 13}
    assert twin_monitor.alerts.history, "no quality alert transition"
    assert twin_tracker.alerts.history, "no SLO alert transition"


class _Requests:
    """A flight-recorder stand-in that keeps the completed requests."""

    def __init__(self):
        self.records = []

    def on_request(self, record):
        self.records.append(record)

    def on_alert(self, alert):
        pass


def _recording(method, calls):
    def recorded(slots, generated, encoded):
        calls.append((slots.copy(), generated.copy(), encoded.copy()))
        return method(slots, generated, encoded)

    return recorded


def _counting(method, counts, key):
    def counted(*args):
        counts[key] += 1
        return method(*args)

    return counted
