"""Alert rules: thresholds, hysteresis, debouncing and sinks."""

import json
import logging

import numpy as np
import pytest

from repro.obs import (
    Alert,
    AlertEngine,
    AlertRule,
    CallbackSink,
    JsonlSink,
    MetricsRegistry,
    QualityMonitor,
    Severity,
    Telemetry,
    use_telemetry,
)
from repro.serving import Event, EventKind


def _engine(*rules, sinks=()):
    return AlertEngine(rules, sinks=sinks or [CallbackSink(lambda a: None)])


class TestAlertRule:
    def test_direction_above(self):
        rule = AlertRule("r", "m", 0.5, direction="above")
        assert rule.breaches(0.5) and rule.breaches(0.9)
        assert not rule.breaches(0.4)
        assert rule.clears(0.4) and not rule.clears(0.5)

    def test_direction_below(self):
        rule = AlertRule("r", "m", 0.5, direction="below")
        assert rule.breaches(0.5) and rule.breaches(0.1)
        assert rule.clears(0.6) and not rule.clears(0.5)

    def test_clear_threshold_must_be_on_healthy_side(self):
        AlertRule("ok", "m", 0.5, direction="above", clear_threshold=0.4)
        with pytest.raises(ValueError):
            AlertRule("bad", "m", 0.5, direction="above", clear_threshold=0.6)
        with pytest.raises(ValueError):
            AlertRule("bad", "m", 0.5, direction="below", clear_threshold=0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            AlertRule("r", "m", 0.5, direction="sideways")
        with pytest.raises(ValueError):
            AlertRule("r", "m", 0.5, consecutive=0)
        with pytest.raises(ValueError):
            AlertRule("r", "m", 0.5, severity="panic")


class TestAlertEngine:
    def test_fires_and_resolves(self):
        engine = _engine(AlertRule("hot", "temp", 100.0))
        assert engine.evaluate({"temp": 50.0}) == []
        fired = engine.evaluate({"temp": 120.0})
        assert len(fired) == 1 and fired[0].kind == "fired"
        # Still hot: no new transition.
        assert engine.evaluate({"temp": 130.0}) == []
        resolved = engine.evaluate({"temp": 90.0})
        assert len(resolved) == 1 and resolved[0].kind == "resolved"
        assert engine.active_alerts() == []

    def test_consecutive_debounces_single_spike(self):
        engine = _engine(AlertRule("spiky", "m", 1.0, consecutive=3))
        assert engine.evaluate({"m": 2.0}) == []
        assert engine.evaluate({"m": 0.0}) == []  # streak broken
        assert engine.evaluate({"m": 2.0}) == []
        assert engine.evaluate({"m": 2.0}) == []
        assert len(engine.evaluate({"m": 2.0})) == 1  # third in a row

    def test_hysteresis_prevents_flapping(self):
        engine = _engine(
            AlertRule("flap", "m", 1.0, clear_threshold=0.5)
        )
        engine.evaluate({"m": 1.5})
        assert engine.active_alerts() == ["flap"]
        # Back under the firing threshold but above clear: stays active.
        assert engine.evaluate({"m": 0.9}) == []
        assert engine.active_alerts() == ["flap"]
        resolved = engine.evaluate({"m": 0.4})
        assert resolved[0].kind == "resolved"

    def test_missing_and_non_finite_leave_state_untouched(self):
        engine = _engine(AlertRule("r", "m", 1.0, consecutive=2))
        engine.evaluate({"m": 2.0})  # streak 1
        engine.evaluate({})  # missing: untouched
        engine.evaluate({"m": None})  # None: untouched
        engine.evaluate({"m": float("nan")})  # non-finite: untouched
        fired = engine.evaluate({"m": 2.0})  # streak 2 -> fires
        assert len(fired) == 1

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            AlertEngine([AlertRule("x", "a", 1.0), AlertRule("x", "b", 1.0)])

    def test_fired_counter_in_registry(self):
        registry = MetricsRegistry()
        engine = _engine(
            AlertRule("crit", "m", 1.0, severity=Severity.CRITICAL)
        )
        with use_telemetry(Telemetry(registry=registry)):
            engine.evaluate({"m": 5.0})
        assert registry.counter("alerts.fired").value == 1.0
        assert registry.counter("alerts.fired.critical").value == 1.0

    def test_history_and_records(self):
        engine = _engine(AlertRule("r", "m", 1.0))
        engine.evaluate({"m": 2.0})
        engine.evaluate({"m": 0.0})
        records = list(engine.iter_records())
        assert [r["kind"] for r in records] == ["fired", "resolved"]
        assert len(engine.fired) == 1


class TestSinks:
    def test_callback_sink_receives_alerts(self):
        received = []
        engine = AlertEngine(
            [AlertRule("r", "m", 1.0)], sinks=[CallbackSink(received.append)]
        )
        engine.evaluate({"m": 2.0})
        assert len(received) == 1
        assert isinstance(received[0], Alert)
        assert received[0].as_dict()["rule"] == "r"

    def test_jsonl_sink_appends(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        engine = AlertEngine(
            [AlertRule("r", "m", 1.0)], sinks=[JsonlSink(path)]
        )
        engine.evaluate({"m": 2.0})
        engine.evaluate({"m": 0.0})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "fired"
        assert json.loads(lines[1])["kind"] == "resolved"

    @pytest.mark.parametrize("sinks, logged", [(None, 1), ((), 0)])
    def test_empty_sinks_mean_no_sink(self, sinks, logged):
        """``sinks=None`` is the log sink; an explicit ``()`` is none."""
        records = []
        handler = logging.Handler(level=logging.DEBUG)
        handler.emit = records.append
        logger = logging.getLogger("repro.obs.alerts")
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            rule = AlertRule("low-auc", "quality.streaming_auc", 1.0,
                             direction="below", consecutive=1)
            monitor = QualityMonitor(min_outcomes=1, rules=(rule,), sinks=sinks)
            monitor.attach_catalogue(2)
            monitor.observe_serving_batch(
                [Event(EventKind.VIEW, 0, 1, 0.0), Event(EventKind.CLICK, 0, 1, 1.0),
                 Event(EventKind.VIEW, 1, 2, 2.0)],
                scores=np.array([0.9, 0.1]),
            )
            assert [t.rule for t in monitor.evaluate()] == ["low-auc"]
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        assert len(records) == logged
