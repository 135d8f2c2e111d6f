"""The telemetry slot and request-scoped trace context: identity,
nesting, request and alert hooks."""

import json

import pytest

from repro.obs import (
    AlertEngine,
    AlertRule,
    FlightRecorder,
    MetricsRegistry,
    SLO,
    SLOTracker,
    Tracer,
)
from repro.obs.context import (
    MAX_SPANS_PER_REQUEST,
    RequestRecord,
    Telemetry,
    current_telemetry,
    new_trace_id,
    request_scope,
    use_telemetry,
)


class _Collector:
    def __init__(self):
        self.records = []

    def on_request(self, record):
        self.records.append(record)


@pytest.fixture
def collector():
    observer = _Collector()
    with use_telemetry(Telemetry(flight=observer)):
        yield observer


class TestTelemetrySlot:
    def test_empty_outside_any_use(self):
        telemetry = current_telemetry()
        assert telemetry.registry is None and telemetry.tracer is None
        assert telemetry.monitor is None and telemetry.slo is None
        assert telemetry.flight is None and telemetry.callback is None

    def test_nested_use_restores_outer(self):
        outer_registry, inner_registry = MetricsRegistry(), MetricsRegistry()
        outer = Telemetry(registry=outer_registry)
        inner = Telemetry(registry=inner_registry)
        empty = current_telemetry()
        with use_telemetry(outer) as entered:
            assert entered is outer and current_telemetry() is outer
            with use_telemetry(inner):
                assert current_telemetry().registry is inner_registry
            assert current_telemetry() is outer
        assert current_telemetry() is empty

    def test_nested_use_restores_outer_after_exception(self):
        outer, inner = Telemetry(), Telemetry()
        empty = current_telemetry()
        with use_telemetry(outer):
            with pytest.raises(KeyError):
                with use_telemetry(inner):
                    raise KeyError("boom")
            assert current_telemetry() is outer
        assert current_telemetry() is empty

    def test_request_context_restored_per_telemetry(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry), request_scope("outer") as root:
            assert telemetry.context is root
            with request_scope("inner") as child:
                assert current_telemetry().context is child
            assert current_telemetry().context is root
        assert telemetry.context is None


class _Raising:
    def __init__(self):
        self.calls = 0

    def on_request(self, record):
        self.calls += 1
        raise RuntimeError("hook failed")


class TestRequestHooks:
    def test_raising_hook_propagates_and_slot_recovers(self):
        failing, after = _Raising(), _Collector()
        with use_telemetry(Telemetry(slo=failing, flight=after)):
            with pytest.raises(RuntimeError, match="hook failed"):
                with request_scope("ingest"):
                    pass
            # The raising SLO hook runs first, so the recorder never saw
            # this request; the slot is already restored.
            assert after.records == []
            assert current_telemetry().context is None
            with pytest.raises(RuntimeError):
                with request_scope("ingest"):
                    pass
        assert failing.calls == 2

    def test_slo_hook_runs_before_flight(self, tmp_path):
        # The flight recorder dumps on the failing request; its snapshot
        # must already count that request in the SLO windows.
        tracker = SLOTracker(
            [SLO.availability("avail", min_events=1)], evaluate_every=0
        )
        recorder = FlightRecorder(postmortem_dir=tmp_path, dump_debounce=0)
        with use_telemetry(Telemetry(slo=tracker, flight=recorder)):
            with request_scope("ingest"):
                pass
            with pytest.raises(ValueError):
                with request_scope("ingest"):
                    raise ValueError("broken")
        assert len(recorder.dumps) == 1
        snapshot = json.loads(
            (recorder.dumps[0] / "snapshot.json").read_text(encoding="utf-8")
        )
        (record,) = snapshot["slo"]
        assert record["events"] == 2.0
        assert record["bad_events"] == 1.0

    def test_alert_inside_request_dumps_bundle(self, tmp_path):
        engine = AlertEngine(
            [AlertRule("hot", "load", threshold=1.0, direction="above")],
            sinks=(),
        )
        recorder = FlightRecorder(postmortem_dir=tmp_path)
        with use_telemetry(Telemetry(flight=recorder)):
            with request_scope("refresh") as ctx:
                (alert,) = engine.evaluate({"load": 2.0})
        assert alert.trace_id == ctx.trace_id
        assert len(recorder.dumps) == 1
        meta = json.loads(
            (recorder.dumps[0] / "META.json").read_text(encoding="utf-8")
        )
        assert meta["reason"] == "alert-hot"
        assert meta["alert"]["trace_id"] == ctx.trace_id


class TestTraceIds:
    def test_unique_and_monotonic(self):
        ids = [new_trace_id() for _ in range(100)]
        assert len(set(ids)) == 100
        prefixes = {trace_id.split("-")[0] for trace_id in ids}
        assert len(prefixes) == 1  # one process prefix

    def test_no_active_context_outside_scopes(self):
        assert current_telemetry().context is None


class TestRequestScope:
    def test_root_scope_sets_and_clears_context(self):
        with request_scope("ingest") as ctx:
            assert current_telemetry().context is ctx
            assert ctx.kind == "ingest"
            assert ctx.parent_id is None
        assert current_telemetry().context is None

    def test_nested_scope_shares_trace_and_storage(self):
        with request_scope("top_k") as root:
            with request_scope("refresh") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                assert child.span_id != root.span_id
                child.note("slots_rescored", 3)
            # Child decisions land on the shared request storage.
            assert root.decisions["slots_rescored"] == 3

    def test_baggage_propagates_to_children(self):
        with request_scope("a", baggage={"shard": "7"}) as root:
            with request_scope("b") as child:
                assert child.baggage["shard"] == "7"
            assert root.baggage["shard"] == "7"

    def test_exception_reraised_and_context_cleared(self):
        with pytest.raises(RuntimeError):
            with request_scope("boom"):
                raise RuntimeError("nope")
        assert current_telemetry().context is None


class TestRequestObservers:
    def test_root_scope_notifies_with_record(self, collector):
        with request_scope("ingest") as ctx:
            ctx.note("events_applied", 12)
        assert len(collector.records) == 1
        record = collector.records[0]
        assert isinstance(record, RequestRecord)
        assert record.trace_id == ctx.trace_id
        assert record.kind == "ingest"
        assert record.status == "ok"
        assert record.decisions == {"events_applied": 12}
        assert record.duration_seconds >= 0.0

    def test_nested_scope_produces_single_record(self, collector):
        with request_scope("outer"):
            with request_scope("inner"):
                pass
        assert [r.kind for r in collector.records] == ["outer"]

    def test_error_status_and_message(self, collector):
        with pytest.raises(ValueError):
            with request_scope("broken"):
                raise ValueError("k out of range")
        record = collector.records[0]
        assert record.status == "error"
        assert "k out of range" in record.error

    def test_tracer_spans_attach_to_request(self, collector):
        tracer = Tracer()
        with request_scope("req"):
            with tracer.span("work"):
                with tracer.span("sub"):
                    pass
        record = collector.records[0]
        paths = [path for path, _, _ in record.spans]
        assert paths == ["work/sub", "work"]  # pop order

    def test_span_cap_counts_drops(self, collector):
        with request_scope("req") as ctx:
            for index in range(MAX_SPANS_PER_REQUEST + 5):
                ctx.record_span(f"s{index}", 0.0, 0.001)
        record = collector.records[0]
        assert len(record.spans) == MAX_SPANS_PER_REQUEST
        assert record.spans_dropped == 5


class TestRequestRecord:
    def _record(self, spans):
        return RequestRecord(
            trace_id="t-1",
            kind="req",
            started_unix=0.0,
            started_perf=100.0,
            duration_seconds=0.05,
            status="ok",
            spans=spans,
        )

    def test_as_dict_renders_relative_starts(self):
        record = self._record([("work", 100.01, 0.02)])
        payload = record.as_dict()
        span = payload["spans"][0]
        assert span["path"] == "work"
        assert span["start_seconds"] == pytest.approx(0.01)
        assert span["duration_seconds"] == pytest.approx(0.02)

    def test_self_times_subtract_direct_children(self):
        record = self._record(
            [
                ("work/sub", 100.0, 0.03),
                ("work", 100.0, 0.05),
                ("other", 100.06, 0.001),
            ]
        )
        self_times = record.span_self_times()
        assert self_times["work"] == pytest.approx(0.02)
        assert self_times["work/sub"] == pytest.approx(0.03)
        assert record.hottest_span() == "work/sub"

    def test_hottest_span_none_without_spans(self):
        assert self._record([]).hottest_span() is None

