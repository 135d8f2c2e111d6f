"""Span/Tracer timing semantics."""

import time

import pytest

from repro.obs import Telemetry, Tracer, current_telemetry, maybe_span, use_telemetry


class TestTracer:
    def test_span_records_calls_and_time(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                time.sleep(0.001)
        stats = tracer.stats("work")
        assert stats.calls == 3
        assert stats.total_seconds >= 0.003
        assert stats.min_seconds <= stats.max_seconds

    def test_nested_spans_build_paths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert sorted(tracer.report()) == ["outer", "outer/inner"]

    def test_nested_timing_monotonic(self):
        """A parent span's wall clock dominates the sum of its children."""
        tracer = Tracer()
        with tracer.span("parent"):
            for _ in range(4):
                with tracer.span("child"):
                    time.sleep(0.001)
        parent = tracer.stats("parent")
        child = tracer.stats("parent/child")
        assert child.calls == 4
        assert parent.total_seconds >= child.total_seconds

    def test_sibling_spans_share_parent_path(self):
        tracer = Tracer()
        with tracer.span("p"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert sorted(tracer.report()) == ["p", "p/a", "p/b"]

    def test_span_name_validation(self):
        with pytest.raises(ValueError):
            Tracer().span("a/b")
        with pytest.raises(ValueError):
            Tracer().span("")

    def test_records_and_text(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        records = list(tracer.iter_records())
        assert records[0]["path"] == "x" and records[0]["calls"] == 1
        assert "x" in tracer.to_text()


class TestActiveTracer:
    def test_maybe_span_noop_without_tracer(self):
        assert current_telemetry().tracer is None
        with maybe_span("anything"):
            pass  # must not raise and must not record anywhere

    def test_maybe_span_records_on_active_tracer(self):
        tracer = Tracer()
        with use_telemetry(Telemetry(tracer=tracer)):
            with maybe_span("tick"):
                pass
        assert tracer.stats("tick").calls == 1


class TestSelfTime:
    def test_parent_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.005)
            with tracer.span("inner"):
                time.sleep(0.01)
        outer = tracer.stats("outer")
        inner = tracer.stats("outer/inner")
        assert outer.child_seconds == pytest.approx(inner.total_seconds)
        assert outer.self_seconds == pytest.approx(
            outer.total_seconds - inner.total_seconds
        )
        assert outer.self_seconds < outer.total_seconds
        # Leaf spans: self time equals total time.
        assert inner.self_seconds == pytest.approx(inner.total_seconds)

    def test_only_direct_children_subtracted(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    time.sleep(0.005)
        a = tracer.stats("a")
        b = tracer.stats("a/b")
        c = tracer.stats("a/b/c")
        # a's children time is b's total (not b + c).
        assert a.child_seconds == pytest.approx(b.total_seconds)
        assert b.child_seconds == pytest.approx(c.total_seconds)

    def test_self_seconds_in_records_and_text(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        records = {r["path"]: r for r in tracer.iter_records()}
        assert "self_seconds" in records["outer"]
        assert records["outer"]["self_seconds"] <= records["outer"]["total_seconds"]
        assert "self=" in tracer.to_text()


class TestDroppedEvents:
    def test_overflow_counts_drops_and_keeps_stats(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            with tracer.span("tick"):
                pass
        assert tracer.dropped_events == 3
        assert len(tracer.chrome_trace_events()) == 2
        # Aggregated stats are unaffected by the event cap.
        assert tracer.stats("tick").calls == 5

    def test_dropped_line_in_text_report(self):
        tracer = Tracer(max_events=1)
        for _ in range(3):
            with tracer.span("tick"):
                pass
        text = tracer.to_text()
        assert "events dropped: 2" in text
        assert "max_events=1" in text
        # No dropped line when nothing was dropped.
        assert "events dropped" not in Tracer().to_text()

    def test_chrome_trace_metadata_reports_drops(self):
        import json

        tracer = Tracer(max_events=1)
        for _ in range(3):
            with tracer.span("tick"):
                pass
        payload = json.loads(tracer.to_chrome_trace())
        assert payload["metadata"]["events_dropped"] == 2
        assert payload["metadata"]["events_recorded"] == 1
        assert payload["metadata"]["max_events"] == 1

    def test_registry_counter_mirrors_drops(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(max_events=1)
        with use_telemetry(Telemetry(registry=registry)):
            for _ in range(4):
                with tracer.span("tick"):
                    pass
        assert registry.counter("tracer.events_dropped").value == 3


class TestTraceIdOnEvents:
    def test_events_carry_trace_id_inside_request_scope(self):
        from repro.obs.context import request_scope

        tracer = Tracer()
        with tracer.span("outside"):
            pass
        with request_scope("req") as ctx:
            with tracer.span("inside"):
                pass
        events = tracer.chrome_trace_events()
        by_name = {event["name"]: event for event in events}
        assert "trace_id" not in by_name["outside"]["args"]
        assert by_name["inside"]["args"]["trace_id"] == ctx.trace_id
