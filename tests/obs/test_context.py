"""Request-scoped trace context: identity, nesting, observers."""

import pytest

from repro.obs import Tracer, use_tracer
from repro.obs.context import (
    MAX_SPANS_PER_REQUEST,
    RequestRecord,
    current_trace_context,
    new_trace_id,
    register_request_observer,
    request_scope,
    unregister_request_observer,
)


class _Collector:
    def __init__(self):
        self.records = []

    def on_request(self, record):
        self.records.append(record)


@pytest.fixture
def collector():
    observer = _Collector()
    register_request_observer(observer)
    yield observer
    unregister_request_observer(observer)


class TestTraceIds:
    def test_unique_and_monotonic(self):
        ids = [new_trace_id() for _ in range(100)]
        assert len(set(ids)) == 100
        prefixes = {trace_id.split("-")[0] for trace_id in ids}
        assert len(prefixes) == 1  # one process prefix

    def test_no_active_context_outside_scopes(self):
        assert current_trace_context() is None


class TestRequestScope:
    def test_root_scope_sets_and_clears_context(self):
        with request_scope("ingest") as ctx:
            assert current_trace_context() is ctx
            assert ctx.kind == "ingest"
            assert ctx.parent_id is None
        assert current_trace_context() is None

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
        assert current_trace_context() is None


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
        with use_tracer(tracer), request_scope("req"):
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

