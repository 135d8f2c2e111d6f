"""Serving-path telemetry: deterministic counters from a scripted stream."""

import numpy as np
import pytest

from repro.core import ATNN, TowerConfig
from repro.obs import (
    MetricsRegistry,
    QualityMonitor,
    Telemetry,
    Tracer,
    use_telemetry,
)
from repro.serving import (
    EngineConfig,
    Event,
    EventKind,
    ItemStatisticsStore,
    RealTimeEngine,
)


@pytest.fixture(scope="module")
def serving_model(tiny_tmall_world):
    return ATNN(
        tiny_tmall_world.schema,
        TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                    num_cross_layers=1),
        rng=np.random.default_rng(7),
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


class TestEngineCounters:
    def test_cold_warm_counters_after_scripted_stream(self, engine):
        """Exact counter values from a hand-built event sequence.

        Slot 0 gets exactly the warm threshold of views (5), slot 1 one
        fewer (4), so after the second refresh precisely one slot has
        crossed onto the encoder path.
        """
        registry = MetricsRegistry()
        n = len(engine.catalogue)
        with use_telemetry(Telemetry(registry=registry)):
            engine.refresh()  # everything cold
            engine.ingest(_views(0, 5) + _views(1, 4))
            engine.refresh()  # slot 0 warm, rest cold
        assert registry.counter("engine.refreshes").value == 2
        assert registry.counter("engine.warm_path_items").value == 1
        assert registry.counter("engine.cold_path_items").value == n + (n - 1)
        assert registry.counter("engine.events_ingested").value == 9
        assert registry.counter("store.events_ingested").value == 9
        assert registry.histogram("engine.refresh_seconds").count == 2

    def test_lazy_refresh_counts_once(self, engine):
        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            engine.scores()
            engine.scores()  # cached: no second refresh
        assert registry.counter("engine.refreshes").value == 1

    def test_recommend_metrics(self, engine, tiny_tmall_world):
        user_row = {
            name: tiny_tmall_world.users[name][:1]
            for name in tiny_tmall_world.schema.all_column_names("user")
        }
        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            engine.recommend_for_user(user_row, k=3)
        assert registry.counter("engine.recommend_requests").value == 1
        assert registry.histogram("engine.recommend_seconds").count == 1

    def test_refresh_span_recorded(self, engine):
        tracer = Tracer()
        with use_telemetry(Telemetry(tracer=tracer)):
            engine.refresh()
        assert tracer.stats("engine.refresh").calls == 1

    def test_no_registry_no_counters(self, engine):
        """The engine works identically with telemetry off."""
        engine.refresh()
        engine.ingest(_views(0, 3))
        scores = engine.scores()
        assert scores.shape == (len(engine.catalogue),)


class TestColdStartTelemetry:
    def test_arrivals_keep_cold_start_lifecycle(self, engine, tiny_tmall_world):
        """Growing the catalogue grows the monitor's cold-start tracker
        instead of replacing it (which wiped every slot's lifecycle)."""
        names = tiny_tmall_world.schema.all_column_names("item_profile")
        arrivals = type(tiny_tmall_world.new_items)(
            {name: tiny_tmall_world.items[name][:3] for name in names}
        )
        monitor = QualityMonitor(warm_view_threshold=5)
        with use_telemetry(Telemetry(monitor=monitor)):
            engine.refresh()
            engine.ingest(
                [Event(EventKind.VIEW, 0, 1, 3.0), Event(EventKind.VIEW, 2, 1, 8.0)]
            )
            tracker = monitor.cold_start
            before = tracker.summary()
            engine.add_arrivals(arrivals)
        after = monitor.cold_start.summary()
        assert monitor.cold_start is tracker
        assert after["n_slots"] == before["n_slots"] + 3
        assert after["items_seen"] == before["items_seen"] == 2
        assert (
            after["time_to_first_impression"]
            == before["time_to_first_impression"]
        )


class TestStoreThroughput:
    def test_ingest_metrics(self):
        registry = MetricsRegistry()
        store = ItemStatisticsStore(4)
        with use_telemetry(Telemetry(registry=registry)):
            store.ingest(_views(2, 7))
        assert registry.counter("store.events_ingested").value == 7
        assert registry.histogram("store.ingest_seconds").count == 1
        assert registry.gauge("store.events_per_second").value > 0

    def test_empty_batch_records_nothing(self):
        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            ItemStatisticsStore(2).ingest([])
        assert "store.events_ingested" not in registry
