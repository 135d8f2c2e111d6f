"""Unit tests for the telemetry shipper, spool tailing and collector."""

import json
import time

import pytest

from repro.obs.agg import (
    WIRE_VERSION,
    TelemetryCollector,
    TelemetryShipper,
    stitch_request_records,
    stitched_chrome_trace,
)
from repro.obs.context import TraceContext, request_scope, use_trace_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO, SLOTracker
from repro.obs.tracing import Tracer


def _slo_set():
    return [
        SLO.latency(
            "lat",
            0.1,
            objective=0.9,
            window=64,
            fast_window=64,
            min_events=8,
            burn_alert=2.0,
        )
    ]


def _request(tracker, duration, kind="serve"):
    from repro.obs.context import RequestRecord

    tracker.on_request(
        RequestRecord(
            trace_id="t",
            kind=kind,
            started_unix=time.time(),
            started_perf=time.perf_counter(),
            duration_seconds=duration,
            status="ok",
        )
    )


# ----------------------------------------------------------------------
# Shipper frames
# ----------------------------------------------------------------------
class TestShipper:
    def test_flush_writes_complete_versioned_frames(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("req").inc(3)
        shipper = TelemetryShipper(
            tmp_path, process_label="worker", registry=registry
        )
        shipper.flush()
        shipper.flush()
        lines = [
            json.loads(line)
            for line in (tmp_path / "worker.jsonl").read_text().splitlines()
        ]
        headers = [line for line in lines if line["type"] == "frame"]
        ends = [line for line in lines if line["type"] == "frame_end"]
        assert [header["seq"] for header in headers] == [1, 2]
        assert [end["seq"] for end in ends] == [1, 2]
        for header in headers:
            assert header["version"] == WIRE_VERSION
            assert header["process"] == "worker"
            assert header["pid"] > 0
        # n_records counts exactly the records between header and end.
        body = [
            line
            for line in lines
            if line["type"] not in ("frame", "frame_end")
        ]
        assert len(body) == headers[0]["n_records"] + headers[1]["n_records"]

    def test_flush_counts_itself_into_the_shipped_registry(self, tmp_path):
        registry = MetricsRegistry()
        shipper = TelemetryShipper(
            tmp_path, process_label="w", registry=registry
        )
        shipper.flush()
        assert registry.counter("shipper.flushes").value == 1.0
        assert registry.histogram("shipper.flush_seconds").count == 1

    def test_maybe_flush_respects_interval(self, tmp_path):
        registry = MetricsRegistry()
        shipper = TelemetryShipper(
            tmp_path,
            process_label="w",
            registry=registry,
            interval_seconds=3600.0,
        )
        assert shipper.maybe_flush() is True  # never flushed before
        assert shipper.maybe_flush() is False  # interval not yet elapsed
        assert shipper.maybe_flush(time.monotonic() + 7200.0) is True

    def test_first_maybe_flush_ships_on_a_freshly_booted_host(self, tmp_path):
        """A monotonic clock that started seconds ago must not read as
        "flushed recently": the first pump always ships."""
        now = [5.0]  # seconds since boot
        shipper = TelemetryShipper(
            tmp_path,
            process_label="w",
            registry=MetricsRegistry(),
            interval_seconds=3600.0,
            clock=lambda: now[0],
        )
        assert shipper.maybe_flush() is True
        now[0] += 3599.0
        assert shipper.maybe_flush() is False
        now[0] += 1.0
        assert shipper.maybe_flush() is True
        shipper.on_request(None)  # inside the interval: ships nothing
        assert shipper.flush() == 3

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryShipper(tmp_path, interval_seconds=0.0)

    def test_tracer_drop_count_is_shipped(self, tmp_path):
        tracer = Tracer(max_events=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass  # dropped: cap is one event
        shipper = TelemetryShipper(tmp_path, process_label="w", tracer=tracer)
        shipper.flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        assert collector.registry.counter("tracer.dropped").value == 1.0
        assert collector.registry.gauge("tracer.dropped.w").value == 1.0
        assert collector.processes["w"]["tracer_dropped"] == 1


# ----------------------------------------------------------------------
# Spool robustness
# ----------------------------------------------------------------------
class TestSpoolTailing:
    def _shipper(self, tmp_path, label="w"):
        registry = MetricsRegistry()
        registry.counter("req").inc(1)
        return TelemetryShipper(
            tmp_path, process_label=label, registry=registry
        )

    def test_partial_tail_line_is_not_consumed(self, tmp_path):
        shipper = self._shipper(tmp_path)
        shipper.flush()
        spool = shipper.spool_path
        complete = spool.read_text()
        # Append a torn write: a frame whose last line lacks a newline.
        torn = complete.replace('"seq": 1', '"seq": 2').rstrip("\n")
        spool.write_text(complete + torn)
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        assert collector.processes["w"]["seq"] == 1
        # The writer completes the line: the frame is now consumable.
        with open(spool, "a", encoding="utf-8") as handle:
            handle.write("\n")
        collector.collect()
        assert collector.processes["w"]["seq"] == 2

    def test_truncated_spool_resets_the_tail(self, tmp_path):
        shipper = self._shipper(tmp_path)
        shipper.flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        assert collector.processes["w"]["seq"] == 1
        # Rotation: the file starts over with a fresh frame.
        shipper.spool_path.write_text("")
        fresh = self._shipper(tmp_path)
        fresh.flush()
        collector.collect()
        assert collector.processes["w"]["seq"] == 1
        assert collector.registry.counter("req").value == 1.0

    def test_corrupt_lines_are_counted_and_skipped(self, tmp_path):
        shipper = self._shipper(tmp_path)
        shipper.flush()
        with open(shipper.spool_path, "a", encoding="utf-8") as handle:
            handle.write("{not json}\n")
        shipper.flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        assert collector.processes["w"]["seq"] == 2
        tail = collector._tails["w.jsonl"]
        assert tail.corrupt_lines == 1

    def test_unknown_wire_version_is_skipped(self, tmp_path):
        shipper = self._shipper(tmp_path)
        shipper.flush()
        frame = shipper.build_frame()
        frame[0]["version"] = WIRE_VERSION + 1
        with open(shipper.spool_path, "a", encoding="utf-8") as handle:
            for record in frame:
                handle.write(json.dumps(record) + "\n")
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        # The versioned frame (seq 2) was skipped; seq 1 is the truth.
        assert collector.processes["w"]["seq"] == 1

    def test_mismatched_record_count_discards_the_frame(self, tmp_path):
        shipper = self._shipper(tmp_path)
        frame = shipper.build_frame()
        frame[0]["n_records"] = 99
        with open(shipper.spool_path, "a", encoding="utf-8") as handle:
            for record in frame:
                handle.write(json.dumps(record) + "\n")
        collector = TelemetryCollector(tmp_path)
        summary = collector.collect()
        assert summary["processes"] == 0


# ----------------------------------------------------------------------
# Collector merge + evaluation
# ----------------------------------------------------------------------
class TestCollector:
    def test_merged_counters_equal_per_process_sums(self, tmp_path):
        for label, count in (("a", 3), ("b", 4)):
            registry = MetricsRegistry()
            registry.counter("req").inc(count)
            registry.histogram("lat").observe(0.01 * count)
            TelemetryShipper(
                tmp_path, process_label=label, registry=registry
            ).flush()
        collector = TelemetryCollector(tmp_path)
        summary = collector.collect()
        assert summary["processes"] == 2
        assert collector.registry.counter("req").value == 7.0
        assert collector.registry.histogram("lat").count == 2

    def test_rebuild_is_idempotent_across_collections(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("req").inc(5)
        shipper = TelemetryShipper(
            tmp_path, process_label="w", registry=registry
        )
        shipper.flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        collector.collect()  # same newest frame: must not double-count
        assert collector.registry.counter("req").value == 5.0
        registry.counter("req").inc(2)
        shipper.flush()
        collector.collect()
        assert collector.registry.counter("req").value == 7.0

    def test_stale_process_is_flagged_but_kept_in_the_merge(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("req").inc(5)
        TelemetryShipper(
            tmp_path, process_label="old", registry=registry
        ).flush()
        collector = TelemetryCollector(tmp_path, stale_after=30.0)
        summary = collector.collect(now=time.time() + 3600.0)
        assert summary["stale"] == ["old"]
        assert collector.processes["old"]["stale"] is True
        # Stale state still merges: flagged, never silently dropped.
        assert collector.registry.counter("req").value == 5.0
        assert (
            collector.registry.gauge("collector.stale_processes").value == 1.0
        )

    def test_fleet_burn_rate_alert_fires_on_merged_windows(self, tmp_path):
        # Shard A is healthy; shard B breaches the latency bound on
        # every request.  Neither shard alone saw the tracker evaluate,
        # but the merged windows burn fast enough to page.
        for label, duration in (("a", 0.01), ("b", 0.5)):
            tracker = SLOTracker(_slo_set(), evaluate_every=0)
            for _ in range(30):
                _request(tracker, duration)
            TelemetryShipper(tmp_path, process_label=label, slo=tracker).flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        alerts = collector.evaluate()
        assert any(alert.rule == "slo-burn:lat" for alert in alerts)
        # Burn-rate gauges landed in the merged registry.
        assert collector.registry.gauge("slo.lat.burn_rate").value >= 2.0

    def test_no_alert_when_fleet_is_healthy(self, tmp_path):
        for label in ("a", "b"):
            tracker = SLOTracker(_slo_set(), evaluate_every=0)
            for _ in range(30):
                _request(tracker, 0.01)
            TelemetryShipper(tmp_path, process_label=label, slo=tracker).flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        assert collector.evaluate() == []

    def test_prometheus_export_of_merged_view(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("req").inc(5)
        TelemetryShipper(tmp_path, process_label="w", registry=registry).flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        text = collector.to_prometheus_text()
        assert "req 5.0" in text
        assert "collector_processes 1.0" in text
        assert "# TYPE req counter" in text

    def test_jsonl_report_carries_fleet_and_process_records(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("req").inc(1)
        TelemetryShipper(tmp_path, process_label="w", registry=registry).flush()
        collector = TelemetryCollector(tmp_path)
        collector.collect()
        destination = tmp_path / "fleet.jsonl"
        collector.write_jsonl(destination)
        records = [
            json.loads(line)
            for line in destination.read_text().splitlines()
        ]
        kinds = {record["type"] for record in records}
        assert "fleet" in kinds and "process" in kinds
        assert "counter" in kinds  # merged instruments ride along

    def test_empty_spool_dir_collects_nothing(self, tmp_path):
        collector = TelemetryCollector(tmp_path / "missing")
        summary = collector.collect()
        assert summary["processes"] == 0


# ----------------------------------------------------------------------
# Cross-process context propagation + stitching
# ----------------------------------------------------------------------
class TestTraceStitching:
    def test_inject_extract_roundtrip_preserves_identity(self):
        context = TraceContext(kind="route")
        carrier = json.loads(json.dumps(context.inject()))
        remote = TraceContext.extract(carrier)
        assert remote.trace_id == context.trace_id
        assert remote.remote is True
        assert carrier["span_id"] is not None

    def test_remote_parent_scope_records_chained_root(self):
        records = []

        class Observer:
            def on_request(self, record):
                records.append(record)

        from repro.obs.context import (
            register_request_observer,
            unregister_request_observer,
        )

        observer = Observer()
        register_request_observer(observer)
        try:
            with request_scope("route") as upstream:
                carrier = upstream.inject()
            remote = TraceContext.extract(carrier)
            with use_trace_context(remote):
                with request_scope("serve"):
                    pass
        finally:
            unregister_request_observer(observer)
        route, serve = records
        assert serve.trace_id == route.trace_id
        assert serve.parent_id == carrier["span_id"] == route.span_id

    def _records(self):
        base = time.time()
        return [
            {
                "trace_id": "t1",
                "kind": "route",
                "started_unix": base,
                "duration_seconds": 0.2,
                "status": "ok",
                "span_id": "s-root",
                "parent_id": None,
                "pid": 1,
                "shard": "router",
                "spans": [],
            },
            {
                "trace_id": "t1",
                "kind": "serve",
                "started_unix": base + 0.01,
                "duration_seconds": 0.1,
                "status": "ok",
                "span_id": "s-child",
                "parent_id": "s-root",
                "pid": 2,
                "shard": "shard-0",
                "spans": [
                    {
                        "path": "serve/score",
                        "start_seconds": 0.001,
                        "duration_seconds": 0.05,
                    }
                ],
            },
            {
                "trace_id": "t2",
                "kind": "serve",
                "started_unix": base + 0.02,
                "duration_seconds": 0.05,
                "status": "ok",
                "span_id": "s-other",
                "parent_id": "s-elsewhere",  # parent never shipped
                "pid": 2,
                "shard": "shard-0",
                "spans": [],
            },
        ]

    def test_stitch_builds_cross_process_trees(self):
        trees = stitch_request_records(self._records())
        assert set(trees) == {"t1", "t2"}
        (root,) = trees["t1"]
        assert root["kind"] == "route"
        assert [child["kind"] for child in root["children"]] == ["serve"]
        # Orphaned parents keep their record as a root, not dropped.
        (orphan,) = trees["t2"]
        assert orphan["span_id"] == "s-other"

    def test_stitched_chrome_trace_counts_multi_process_traces(self):
        trace = stitched_chrome_trace(self._records())
        assert trace["metadata"]["stitched_traces"] == 1
        assert trace["metadata"]["processes"] == 2
        request_events = [
            event
            for event in trace["traceEvents"]
            if event.get("ph") == "X" and event.get("cat") == "request"
        ]
        assert {event["pid"] for event in request_events} == {1, 2}
        span_events = [
            event
            for event in trace["traceEvents"]
            if event.get("ph") == "X" and event.get("cat") == "span"
        ]
        assert any(event["name"] == "score" for event in span_events)
