"""SLO declarations, error budgets, burn rates, and generated alerting."""

import pytest

from repro.obs import MetricsRegistry, Telemetry, current_telemetry, use_telemetry
from repro.obs.context import RequestRecord, request_scope
from repro.obs.slo import (
    SLO,
    SLOTracker,
    SLOWindow,
    default_serving_slos,
)


def _request(kind="ingest", duration=0.01, status="ok"):
    return RequestRecord(
        trace_id="t-1",
        kind=kind,
        started_unix=0.0,
        started_perf=0.0,
        duration_seconds=duration,
        status=status,
    )


class TestSLOValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            SLO("x", "nonsense")

    def test_objective_bounds(self):
        with pytest.raises(ValueError, match="objective"):
            SLO("x", "availability", objective=1.0)

    def test_latency_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SLO.latency("x", 0.0)

    def test_quality_needs_metric(self):
        with pytest.raises(ValueError, match="metric"):
            SLO("x", "quality")

    def test_fast_window_cannot_exceed_window(self):
        with pytest.raises(ValueError, match="fast_window"):
            SLO.availability("x", window=10, fast_window=20)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOTracker([SLO.availability("a"), SLO.availability("a")])


class TestSLOWindow:
    def test_warmup_reports_none(self):
        window = SLOWindow(SLO.availability("a", min_events=5))
        for _ in range(4):
            window.add(True)
        assert window.burn_rate() is None
        assert window.budget_remaining() is None

    def test_budget_full_on_clean_stream(self):
        window = SLOWindow(SLO.availability("a", objective=0.9, min_events=5))
        for _ in range(20):
            window.add(True)
        assert window.budget_remaining() == pytest.approx(1.0)
        assert window.burn_rate() == pytest.approx(0.0)

    def test_budget_exhausts_and_goes_negative(self):
        slo = SLO.availability(
            "a", objective=0.9, window=10, fast_window=5, min_events=5
        )
        window = SLOWindow(slo)
        for _ in range(8):
            window.add(True)
        for _ in range(2):
            window.add(False)
        # 2 bad of 10 with 1 allowed: budget fully spent and then some.
        assert window.budget_remaining() == pytest.approx(-1.0)

    def test_burn_rate_is_min_of_windows(self):
        slo = SLO.availability(
            "a", objective=0.9, window=20, fast_window=5, min_events=5
        )
        window = SLOWindow(slo)
        for _ in range(15):
            window.add(False)
        for _ in range(5):
            window.add(True)
        # Slow window burns hot (15/20 bad) but the fast window is clean,
        # so the multi-window burn rate stays at the fast window's zero.
        assert window.burn_rate_slow() > 1.0
        assert window.burn_rate_fast() == pytest.approx(0.0)
        assert window.burn_rate() == pytest.approx(0.0)

    def test_latency_percentiles_reported(self):
        slo = SLO.latency("l", 0.1, min_events=1)
        window = SLOWindow(slo)
        for duration in (0.01, 0.02, 0.03):
            window.add(True, duration=duration)
        snapshot = window.snapshot()
        assert snapshot["slo.l.p50_seconds"] == pytest.approx(0.02)
        assert snapshot["slo.l.p99_seconds"] <= 0.03 + 1e-9

    def test_window_eviction_restores_budget(self):
        slo = SLO.availability(
            "a", objective=0.5, window=4, fast_window=2, min_events=2
        )
        window = SLOWindow(slo)
        for good in (False, False, False, False):
            window.add(good)
        assert window.budget_remaining() < 0
        for _ in range(4):
            window.add(True)
        assert window.budget_remaining() == pytest.approx(1.0)


class TestSLOTracker:
    def _tracker(self, **kwargs):
        slos = [
            SLO.latency(
                "lat", 0.05, objective=0.9, window=10, fast_window=5,
                min_events=5,
            ),
            SLO.availability(
                "avail", objective=0.9, window=10, fast_window=5, min_events=5,
            ),
            SLO.quality(
                "auc", "quality.streaming_auc", floor=0.6, objective=0.9,
                window=10, fast_window=5, min_events=5,
            ),
        ]
        return SLOTracker(slos, **kwargs)

    def test_generated_rules_cover_burn_and_budget(self):
        tracker = self._tracker()
        names = {rule.name for rule in tracker.alerts.rules}
        assert names == {
            "slo-burn:lat", "slo-budget:lat",
            "slo-burn:avail", "slo-budget:avail",
            "slo-burn:auc", "slo-budget:auc",
        }

    def test_latency_requests_fold_into_windows(self):
        tracker = self._tracker(evaluate_every=0)
        for _ in range(8):
            tracker.on_request(_request(duration=0.01))
        for _ in range(2):
            tracker.on_request(_request(duration=0.2))
        snapshot = tracker.snapshot()
        assert snapshot["slo.lat.window_bad"] == 2.0
        assert snapshot["slo.avail.window_bad"] == 0.0

    def test_request_kind_filter(self):
        slo = SLO.latency(
            "ref", 0.05, request_kind="refresh", min_events=1
        )
        tracker = SLOTracker([slo], evaluate_every=0)
        tracker.on_request(_request(kind="ingest"))
        tracker.on_request(_request(kind="refresh"))
        assert tracker.snapshot()["slo.ref.window_events"] == 1.0

    def test_error_requests_burn_availability(self):
        tracker = self._tracker(evaluate_every=0)
        for _ in range(10):
            tracker.on_request(_request(status="error"))
        assert "avail" in tracker.exhausted()

    def test_quality_snapshot_feeds_quality_slo(self):
        tracker = self._tracker(evaluate_every=0)
        for _ in range(6):
            tracker.observe_quality({"quality.streaming_auc": 0.4})
        assert "auc" in tracker.exhausted()
        # None / missing metrics are skipped, not counted bad.
        before = tracker.snapshot()["slo.auc.window_events"]
        tracker.observe_quality({"quality.streaming_auc": None})
        tracker.observe_quality({})
        assert tracker.snapshot()["slo.auc.window_events"] == before

    def test_sustained_breach_fires_burn_alert(self):
        tracker = self._tracker(evaluate_every=0)
        for _ in range(10):
            tracker.on_request(_request(duration=0.2))
            tracker.evaluate()
        fired = [alert.rule for alert in tracker.alerts.fired]
        assert "slo-burn:lat" in fired
        assert "slo-budget:lat" in fired

    def test_single_spike_stays_silent(self):
        tracker = self._tracker(evaluate_every=0)
        for index in range(30):
            duration = 0.2 if index == 10 else 0.01
            tracker.on_request(_request(duration=duration))
            tracker.evaluate()
        assert not [
            a for a in tracker.alerts.fired if a.rule.startswith("slo-burn")
        ]

    def test_evaluate_mirrors_gauges_to_registry(self):
        registry = MetricsRegistry()
        tracker = self._tracker(evaluate_every=0)
        with use_telemetry(Telemetry(registry=registry)):
            for _ in range(10):
                tracker.on_request(_request(duration=0.01))
            tracker.evaluate()
        assert registry.gauge("slo.lat.budget_remaining").value == pytest.approx(1.0)
        text = registry.to_prometheus_text()
        assert "slo_lat_budget_remaining" in text

    def test_auto_evaluate_cadence(self):
        tracker = self._tracker(evaluate_every=4)
        for _ in range(8):
            tracker.on_request(_request(duration=0.01))
        assert tracker.alerts.evaluations == 2

    def test_alert_carries_trace_id_of_evaluating_request(self):
        tracker = self._tracker(evaluate_every=0)
        for _ in range(10):
            tracker.on_request(_request(duration=0.2))
        with request_scope("refresh") as ctx:
            transitions = tracker.evaluate()
        fired = [t for t in transitions if t.kind == "fired"]
        assert fired
        assert all(alert.trace_id == ctx.trace_id for alert in fired)

    def test_iter_records_and_to_text(self):
        tracker = self._tracker(evaluate_every=0)
        for _ in range(10):
            tracker.on_request(_request(duration=0.01))
        records = list(tracker.iter_records())
        assert [r["name"] for r in records] == ["auc", "avail", "lat"]
        assert all(r["type"] == "slo" for r in records)
        assert "budget_remaining" in tracker.to_text()


class TestActiveTracker:
    def test_scoped_activation_and_request_feed(self):
        tracker = SLOTracker(
            [SLO.availability("a", min_events=1)], evaluate_every=0
        )
        assert current_telemetry().slo is None
        with use_telemetry(Telemetry(slo=tracker)):
            assert current_telemetry().slo is tracker
            with request_scope("ingest"):
                pass
        assert current_telemetry().slo is None
        assert tracker.requests_seen == 1
        # Requests after deactivation are not delivered.
        with request_scope("ingest"):
            pass
        assert tracker.requests_seen == 1


class TestDefaultServingSLOs:
    def test_stock_set_names_and_kinds(self):
        slos = default_serving_slos()
        assert [(s.name, s.kind) for s in slos] == [
            ("serving-latency", "latency"),
            ("serving-availability", "availability"),
            ("streaming-auc", "quality"),
        ]
