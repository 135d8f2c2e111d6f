"""Metric instrument and registry semantics."""

import io
import json
import math

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    current_telemetry,
    use_telemetry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_decrease_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(3.0)
        assert gauge.value == 4.0


class TestHistogram:
    def test_quantiles_match_numpy_percentile(self):
        values = np.random.default_rng(0).lognormal(size=2000)
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(
                np.percentile(values, 100.0 * q), rel=1e-12
            )

    def test_count_sum_min_max(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0

    def test_bucket_counts(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            histogram.observe(value)
        # (<=1, <=2, +inf) — bounds are inclusive as in Prometheus.
        assert histogram.bucket_counts == [2, 1, 1]

    def test_quantile_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(0.5)

    def test_quantile_out_of_range_rejected(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty_summary_has_none_quantiles(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p50"] is None

    def test_bounded_sample_stays_approximately_correct(self):
        values = np.random.default_rng(1).random(50_000)
        histogram = Histogram("h", sample_capacity=1024)
        for value in values:
            histogram.observe(value)
        # The decimated sample still tracks the true distribution.
        assert histogram.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert histogram.count == 50_000

    def test_summary_buckets_end_with_inf(self):
        summary = Histogram("h", buckets=(1.0,)).summary()
        assert summary["buckets"][-1]["le"] == math.inf


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_to_text_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(2)
        registry.gauge("lr").set(0.01)
        registry.histogram("latency").observe(0.5)
        text = registry.to_text()
        assert "requests" in text and "lr" in text and "latency" in text
        assert "p99" in text

    def test_jsonl_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(2)
        registry.histogram("latency").observe(0.5)
        buffer = io.StringIO()
        registry.write_jsonl(buffer, extra=[{"type": "meta", "label": "x"}])
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert records[0] == {"type": "meta", "label": "x"}
        by_name = {r["name"]: r for r in records[1:]}
        assert by_name["requests"]["value"] == 2
        assert by_name["latency"]["count"] == 1


class TestActiveRegistry:
    def test_inactive_by_default(self):
        assert current_telemetry().registry is None

    def test_scoped_activation_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_telemetry(Telemetry(registry=outer)):
            assert current_telemetry().registry is outer
            with use_telemetry(Telemetry(registry=inner)):
                assert current_telemetry().registry is inner
            assert current_telemetry().registry is outer
        assert current_telemetry().registry is None
