"""Flight recorder: ring buffer, tail exemplars, postmortems, replay."""

import json

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.obs.alerts import Alert
from repro.obs.context import RequestRecord, request_scope
from repro.obs.flight import (
    FlightRecorder,
    get_active_flight_recorder,
    load_bundle,
    main,
    render_bundle,
    use_flight_recorder,
)
from repro.obs.quality import QualityMonitor, use_monitor
from repro.obs.slo import SLO, SLOTracker, use_slo_tracker


def _record(trace_id, duration=0.01, status="ok", started_perf=None, spans=()):
    return RequestRecord(
        trace_id=trace_id,
        kind="ingest",
        started_unix=1000.0,
        started_perf=started_perf if started_perf is not None else 0.0,
        duration_seconds=duration,
        status=status,
        error="RuntimeError('x')" if status == "error" else None,
        spans=list(spans),
    )


class TestRingAndExemplars:
    def test_ring_keeps_most_recent(self):
        recorder = FlightRecorder(capacity=3, tail_exemplars=0)
        for index in range(5):
            recorder.on_request(_record(f"t-{index}", started_perf=float(index)))
        assert [r.trace_id for r in recorder.recent()] == ["t-2", "t-3", "t-4"]
        assert recorder.requests_recorded == 5

    def test_tail_exemplars_survive_ring_wrap(self):
        recorder = FlightRecorder(capacity=2, tail_exemplars=2)
        recorder.on_request(_record("slowest", duration=9.0, started_perf=0.0))
        for index in range(10):
            recorder.on_request(
                _record(f"fast-{index}", duration=0.001,
                        started_perf=1.0 + index)
            )
        slowest = recorder.slowest_requests()
        assert slowest[0].trace_id == "slowest"
        # retained() unions ring and exemplars without duplicates.
        retained_ids = [r.trace_id for r in recorder.retained()]
        assert "slowest" in retained_ids
        assert len(retained_ids) == len(set(retained_ids))

    def test_slowest_ordering_and_limit(self):
        recorder = FlightRecorder(capacity=10, tail_exemplars=3)
        for index, duration in enumerate((0.3, 0.1, 0.5, 0.2)):
            recorder.on_request(
                _record(f"t-{index}", duration=duration,
                        started_perf=float(index))
            )
        assert [r.trace_id for r in recorder.slowest_requests()] == [
            "t-2", "t-0", "t-3",
        ]
        assert len(recorder.slowest_requests(1)) == 1

    def test_registry_counters(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(capacity=4, auto_dump=False)
        with use_registry(registry):
            recorder.on_request(_record("ok"))
            recorder.on_request(_record("bad", status="error"))
        assert registry.counter("flight.requests_recorded").value == 2
        assert registry.counter("flight.requests_failed").value == 1

    def test_iter_records_flags_exemplars(self):
        recorder = FlightRecorder(capacity=1, tail_exemplars=1)
        recorder.on_request(_record("slow", duration=5.0, started_perf=0.0))
        recorder.on_request(_record("recent", duration=0.01, started_perf=1.0))
        records = {r["trace_id"]: r for r in recorder.iter_records()}
        assert records["slow"]["tail_exemplar"] is True
        assert records["slow"]["type"] == "request"


class TestPostmortemBundles:
    def _spanned_record(self, trace_id, duration=0.5):
        return _record(
            trace_id,
            duration=duration,
            spans=[
                ("engine.ingest/inject.latency", 0.001, duration - 0.002),
                ("engine.ingest", 0.0, duration - 0.001),
            ],
        )

    def test_dump_writes_all_artifacts(self, tmp_path):
        recorder = FlightRecorder(capacity=8, postmortem_dir=tmp_path)
        recorder.on_request(self._spanned_record("t-slow"))
        bundle = recorder.dump_postmortem("manual")
        assert bundle.is_dir()
        meta = json.loads((bundle / "META.json").read_text())
        assert meta["reason"] == "manual"
        assert meta["slowest_trace_id"] == "t-slow"
        requests = [
            json.loads(line)
            for line in (bundle / "requests.jsonl").read_text().splitlines()
        ]
        assert requests[0]["trace_id"] == "t-slow"
        trace = json.loads((bundle / "trace.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "request:ingest" in names
        assert "inject.latency" in names
        assert (bundle / "snapshot.json").exists()

    def test_snapshot_carries_monitor_slo_and_registry_state(self, tmp_path):
        recorder = FlightRecorder(capacity=8, postmortem_dir=tmp_path)
        recorder.on_request(_record("t-1"))
        registry = MetricsRegistry()
        monitor = QualityMonitor()
        tracker = SLOTracker(
            [SLO.availability("a", min_events=1)], evaluate_every=0
        )
        with use_registry(registry), use_monitor(monitor), \
                use_slo_tracker(tracker):
            registry.counter("engine.refreshes").inc()
            bundle = recorder.dump_postmortem("manual")
        snapshot = json.loads((bundle / "snapshot.json").read_text())
        assert "quality" in snapshot
        assert snapshot["slo"][0]["name"] == "a"
        assert "engine.refreshes" in snapshot["metrics"]

    def test_auto_dump_on_error_request(self, tmp_path):
        recorder = FlightRecorder(capacity=8, postmortem_dir=tmp_path)
        recorder.on_request(_record("bad", status="error"))
        assert len(recorder.dumps) == 1
        meta = json.loads((recorder.dumps[0] / "META.json").read_text())
        assert meta["reason"].startswith("exception-")
        assert "RuntimeError" in meta["error"]

    def test_auto_dump_on_fired_alert_with_debounce(self, tmp_path):
        recorder = FlightRecorder(
            capacity=8, postmortem_dir=tmp_path, dump_debounce=4
        )
        alert = Alert(
            rule="slo-burn:lat", metric="slo.lat.burn_rate", value=3.0,
            threshold=2.0, severity="warning", kind="fired",
        )
        recorder.on_request(_record("t-1"))
        recorder.on_alert(alert)
        recorder.on_alert(alert)  # debounced: same traffic window
        assert len(recorder.dumps) == 1
        for index in range(4):
            recorder.on_request(_record(f"t-{index + 2}"))
        recorder.on_alert(alert)
        assert len(recorder.dumps) == 2

    def test_max_dumps_cap(self, tmp_path):
        recorder = FlightRecorder(
            capacity=8, postmortem_dir=tmp_path, dump_debounce=0, max_dumps=2
        )
        for index in range(5):
            recorder.on_request(_record(f"bad-{index}", status="error"))
        assert len(recorder.dumps) == 2

    def test_recorders_sharing_a_directory_never_overwrite(self, tmp_path):
        first = FlightRecorder(capacity=4, postmortem_dir=tmp_path)
        second = FlightRecorder(capacity=4, postmortem_dir=tmp_path)
        first.on_request(_record("t-first"))
        second.on_request(_record("t-second"))
        first_bundle = first.dump_postmortem("manual")
        second_bundle = second.dump_postmortem("manual")
        assert first_bundle != second_bundle
        assert first_bundle.name.startswith("postmortem-001-manual-p")
        assert second_bundle.name.startswith("postmortem-002-manual-p")
        assert load_bundle(first_bundle)["meta"]["slowest_trace_id"] == "t-first"
        assert load_bundle(second_bundle)["meta"]["slowest_trace_id"] == "t-second"

    def test_no_auto_dump_without_directory(self):
        recorder = FlightRecorder(capacity=4)
        recorder.on_request(_record("bad", status="error"))
        assert recorder.dumps == []
        with pytest.raises(ValueError, match="postmortem_dir"):
            recorder.dump_postmortem("manual")


class TestReplay:
    def test_load_and_render_bundle(self, tmp_path):
        recorder = FlightRecorder(capacity=8, postmortem_dir=tmp_path)
        recorder.on_request(
            _record(
                "t-slow",
                duration=0.5,
                spans=[
                    ("engine.ingest/inject.latency", 0.001, 0.45),
                    ("engine.ingest", 0.0, 0.49),
                ],
            )
        )
        path = recorder.dump_postmortem("manual")
        bundle = load_bundle(path)
        text = render_bundle(bundle)
        assert "t-slow" in text
        assert "hottest span (self time): engine.ingest/inject.latency" in text

    def test_main_exit_codes(self, tmp_path, capsys):
        recorder = FlightRecorder(capacity=4, postmortem_dir=tmp_path)
        recorder.on_request(_record("t-1"))
        path = recorder.dump_postmortem("manual")
        assert main([str(path)]) == 0
        assert "postmortem bundle" in capsys.readouterr().out
        assert main([str(tmp_path / "missing")]) == 2


class TestActiveRecorder:
    def test_scoped_activation_feeds_requests_and_alerts(self, tmp_path):
        recorder = FlightRecorder(
            capacity=8, postmortem_dir=tmp_path, dump_debounce=0
        )
        tracker = SLOTracker(
            [SLO.availability("a", objective=0.9, window=10, fast_window=5,
                              min_events=5)],
            evaluate_every=1,
        )
        assert get_active_flight_recorder() is None
        with use_flight_recorder(recorder), use_slo_tracker(tracker):
            assert get_active_flight_recorder() is recorder
            for _ in range(10):
                with pytest.raises(RuntimeError):
                    with request_scope("ingest"):
                        raise RuntimeError("down")
        assert get_active_flight_recorder() is None
        assert recorder.requests_recorded == 10
        assert recorder.requests_failed == 10
        # Both the error requests and the availability burn alert dumped.
        assert recorder.dumps
        reasons = [
            json.loads((path / "META.json").read_text())["reason"]
            for path in recorder.dumps
        ]
        assert any(reason.startswith("exception-") for reason in reasons)
        # Deactivated: no further deliveries.
        with request_scope("ingest"):
            pass
        assert recorder.requests_recorded == 10
