"""End-to-end trace propagation and the SLO/flight acceptance scenario.

Satellite coverage: a scripted serving session where every emitted
monitor sample, alert, and JSONL telemetry record must carry the
``trace_id`` of the request that produced it — including across a
dirty-slot (incremental) refresh.  Plus the tentpole acceptance test: an
injected p99 latency spike must fire the multi-window burn-rate alert,
dump a postmortem bundle whose slowest exemplar names the offending
span, and leave an exhausted-budget line in the Prometheus export.
"""

import io
import json
import time

import numpy as np
import pytest

from repro.core import ATNN, TowerConfig
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    QualityMonitor,
    Telemetry,
    TelemetrySession,
    Tracer,
    use_telemetry,
)
from repro.obs.flight import load_bundle
from repro.obs.slo import SLO, SLOTracker
from repro.obs.tracing import maybe_span
from repro.serving import EngineConfig, Event, EventKind, RealTimeEngine


@pytest.fixture(scope="module")
def serving_model(tiny_tmall_world):
    return ATNN(
        tiny_tmall_world.schema,
        TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                    num_cross_layers=1),
        rng=np.random.default_rng(11),
    )


@pytest.fixture
def engine(tiny_tmall_world, serving_model):
    return RealTimeEngine(
        serving_model,
        tiny_tmall_world.new_items,
        tiny_tmall_world.active_user_group(0.2),
        EngineConfig(warm_view_threshold=5),
    )


def _views(slot, count):
    return [Event(EventKind.VIEW, slot, user, float(user)) for user in range(count)]


class _Collector:
    def __init__(self):
        self.records = []

    def on_request(self, record):
        self.records.append(record)


class TestTracePropagation:
    def test_monitor_samples_alerts_and_jsonl_carry_trace_ids(self, engine):
        """The scripted session of the satellite requirement.

        Script: full refresh → ingest (warms slot 0) → incremental
        dirty-slot refresh (scores + divergence samples) → top_k.  A
        hair-trigger latency SLO fires during the second refresh, so the
        alert must carry that refresh's trace id too.
        """
        monitor = QualityMonitor()
        tracker = SLOTracker(
            [SLO.latency("lat", 1e-9, objective=0.5, window=8,
                         fast_window=4, min_events=2)],
            evaluate_every=0,
        )
        recorder = FlightRecorder(capacity=32, tail_exemplars=4)
        session = TelemetrySession(
            profile_autograd=False, monitor=monitor, slo=tracker,
            flight=recorder,
        )
        with session:
            engine.refresh()
            engine.ingest(_views(0, 6) + _views(1, 3))
            engine.refresh()  # dirty-slot path: slot 0 is warm+dirty
            engine.top_k(3)

        completed = recorder.recent()
        kinds = [record.kind for record in completed]
        assert kinds == ["refresh", "ingest", "refresh", "top_k"]
        refresh1, ingest, refresh2, top_k = completed
        assert len({r.trace_id for r in completed}) == 4

        # Every monitor sample names the request that produced it.
        samples = list(monitor.samples)
        assert [s["entry_point"] for s in samples] == [
            "scores", "serving_batch", "scores", "divergence",
        ]
        assert samples[0]["trace_id"] == refresh1.trace_id
        assert samples[1]["trace_id"] == ingest.trace_id
        # Dirty-slot refresh: both its samples carry the refresh's id.
        assert samples[2]["trace_id"] == refresh2.trace_id
        assert samples[3]["trace_id"] == refresh2.trace_id

        # The hair-trigger SLO fired while refresh2 evaluated the rules.
        fired = [a for a in tracker.alerts.fired if a.rule == "slo-burn:lat"]
        assert fired and fired[0].trace_id == refresh2.trace_id

        # Every JSONL record that names a request names a real one.
        buffer = io.StringIO()
        session.write_jsonl(buffer)
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        trace_ids = {r.trace_id for r in completed}
        monitor_samples = [r for r in records if r["type"] == "monitor_sample"]
        request_records = [r for r in records if r["type"] == "request"]
        alert_records = [
            r for r in records
            if r["type"] == "alert" and r.get("kind") == "fired"
        ]
        assert monitor_samples and request_records and alert_records
        assert all(r["trace_id"] in trace_ids for r in monitor_samples)
        assert all(r["trace_id"] in trace_ids for r in request_records)
        assert all(r["trace_id"] in trace_ids for r in alert_records)

        # The dirty-slot refresh's request record names its work.
        refresh2_record = next(
            r for r in request_records if r["trace_id"] == refresh2.trace_id
        )
        assert refresh2_record["decisions"]["slots_rescored"] == 1
        assert refresh2_record["decisions"]["full_refresh"] is False

    def test_engine_decisions_recorded_per_request(self, engine):
        collector = _Collector()
        with use_telemetry(Telemetry(flight=collector)):
            engine.ingest(_views(0, 4))
            engine.top_k(2)
            engine.top_k(2)
        # top_k's lazy refresh nests as a child scope, so it folds into
        # the first top_k record instead of emitting its own.
        ingest, top_k1, top_k2 = collector.records
        assert ingest.decisions["events_applied"] == 4
        assert top_k1.decisions["full_refresh"] is True
        assert top_k1.decisions["order_cache_hit"] is False
        assert top_k1.decisions["served_slots"] == 2
        assert top_k2.decisions == {
            "k": 2, "order_cache_hit": True, "served_slots": 2,
        }

    def test_store_spans_nest_under_request(self, engine):
        tracer = Tracer()
        with use_telemetry(Telemetry(tracer=tracer)):
            engine.ingest(_views(0, 3))
            engine.refresh()
        report = tracer.report()
        assert "engine.ingest/store.ingest" in report
        assert "engine.refresh/generator" in report


class TestLatencySpikeAcceptance:
    def test_spike_fires_burn_alert_with_bundle_and_prometheus(
        self, engine, tmp_path
    ):
        """The ISSUE acceptance scenario at test scale.

        A scripted serving run with an injected latency spike must
        produce (a) a fired burn-rate alert, (b) a postmortem bundle
        whose slowest-request exemplar trace names the offending span,
        and (c) an exhausted-budget line in the Prometheus export.
        """
        threshold = 0.02
        # Sized once batches 0-3 have run: at least 10x their slowest
        # request, so on a loaded host no refresh can outrun the spike.
        spike = 0.06
        registry = MetricsRegistry()
        tracer = Tracer()
        monitor = QualityMonitor()
        tracker = SLOTracker(
            [
                SLO.latency(
                    "serving-latency", threshold, objective=0.9,
                    window=32, fast_window=8, min_events=8,
                ),
            ],
            evaluate_every=0,
        )
        recorder = FlightRecorder(
            capacity=64, tail_exemplars=8, postmortem_dir=tmp_path,
            dump_debounce=8,
        )

        original_ingest = engine.store.ingest

        def slow_ingest(events, columns=None):
            with maybe_span("inject.latency"):
                time.sleep(spike)
            return original_ingest(events, columns=columns)

        n = len(engine.catalogue)
        with use_telemetry(Telemetry(registry=registry, tracer=tracer, monitor=monitor, slo=tracker, flight=recorder)):
            for batch in range(12):
                if batch == 4:
                    slowest = recorder.slowest_requests(1)[0]
                    spike = max(spike, 10 * slowest.duration_seconds)
                    engine.store.ingest = slow_ingest
                events = _views(batch % n, 3) + _views((batch + 1) % n, 2)
                engine.ingest(events)
                engine.refresh()
                engine.top_k(3)
            tracker.evaluate()
        engine.store.ingest = original_ingest

        # (a) the multi-window burn-rate rule fired.
        fired = [alert.rule for alert in tracker.alerts.fired]
        assert "slo-burn:serving-latency" in fired

        # (b) a bundle landed; its slowest exemplar blames the spike.
        # (The quality monitor's own divergence alert may dump first, so
        # pick the bundle the SLO alert triggered by its reason.)
        assert recorder.dumps
        slo_bundles = [
            path for path in recorder.dumps
            if load_bundle(path)["meta"]["reason"].startswith("alert-slo-")
        ]
        assert slo_bundles
        bundle = load_bundle(slo_bundles[0])
        slowest = recorder.slowest_requests(1)[0]
        assert slowest.hottest_span() == "engine.ingest/inject.latency"
        # The bundle names its own slowest-at-dump-time exemplar; that
        # request's span tree must blame the injected span too.
        dumped = {r["trace_id"]: r for r in bundle["requests"]}
        bundle_slowest = dumped[bundle["meta"]["slowest_trace_id"]]
        spans = {s["path"] for s in bundle_slowest["spans"]}
        assert "engine.ingest/inject.latency" in spans

        # (c) the Prometheus export carries the exhausted budget.
        assert "serving-latency" in tracker.exhausted()
        prom = registry.to_prometheus_text()
        budget_lines = [
            line for line in prom.splitlines()
            if line.startswith("slo_serving_latency_budget_remaining")
        ]
        assert budget_lines, prom
        assert float(budget_lines[0].split()[-1]) <= 0.0
