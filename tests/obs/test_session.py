"""TelemetrySession lifecycle and run-report format."""

import io
import json

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.obs import (
    TelemetrySession,
    current_telemetry,
    maybe_span,
)


def _records(session):
    buffer = io.StringIO()
    session.write_jsonl(buffer)
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestLifecycle:
    def test_activates_and_deactivates_all_surfaces(self):
        session = TelemetrySession(profile_autograd=False, label="t")
        outside = current_telemetry()
        assert outside.registry is None
        with session:
            telemetry = current_telemetry()
            assert telemetry is session.telemetry
            assert telemetry.registry is session.registry
            assert telemetry.tracer is session.tracer
            assert telemetry.callback is session.callback
        assert current_telemetry() is outside

    def test_double_start_rejected(self):
        with TelemetrySession(profile_autograd=False) as session:
            with pytest.raises(RuntimeError):
                session.start()

    def test_stop_without_start_is_noop(self):
        TelemetrySession(profile_autograd=False).stop()

    def test_standard_counters_pre_registered(self):
        with TelemetrySession(profile_autograd=False) as session:
            pass
        for name in (
            "engine.refreshes",
            "engine.cold_path_items",
            "engine.warm_path_items",
            "store.events_ingested",
            "trainer.divergence_warning",
        ):
            assert name in session.registry


class TestReport:
    def test_jsonl_record_types(self):
        with TelemetrySession(label="run") as session:
            session.registry.histogram("latency").observe(0.25)
            session.callback.epochs.append({"loss": 0.5})
            with maybe_span("work"):
                (Tensor(np.ones((2, 2)), requires_grad=True) * 2.0).sum().backward()
        records = _records(session)
        types = {record["type"] for record in records}
        assert {"meta", "epoch", "counter", "histogram", "autograd_op", "span"} <= types
        meta = records[0]
        assert meta["type"] == "meta" and meta["label"] == "run"
        assert meta["duration_seconds"] >= 0.0
        epoch = next(r for r in records if r["type"] == "epoch")
        assert epoch["record"] == {"loss": 0.5}
        span = next(r for r in records if r["type"] == "span")
        assert span["path"] == "work"
        ops = {r["op"] for r in records if r["type"] == "autograd_op"}
        assert {"mul", "sum"} <= ops

    def test_histogram_records_carry_quantiles(self):
        with TelemetrySession(profile_autograd=False) as session:
            histogram = session.registry.histogram("latency")
            for value in np.linspace(0.01, 1.0, 100):
                histogram.observe(float(value))
        record = next(
            r for r in _records(session)
            if r["type"] == "histogram" and r["name"] == "latency"
        )
        for key in ("p50", "p90", "p99"):
            assert isinstance(record[key], float)
        assert record["p50"] <= record["p90"] <= record["p99"]

    def test_render_text_mentions_sections(self):
        with TelemetrySession(profile_autograd=False, label="demo") as session:
            session.registry.counter("demo.work").inc()
            with maybe_span("phase"):
                pass
        text = session.render_text()
        assert "demo" in text
        assert "demo.work" in text
        assert "phase" in text

    def test_write_jsonl_to_path(self, tmp_path):
        destination = tmp_path / "missing" / "dirs" / "report.jsonl"
        with TelemetrySession(profile_autograd=False) as session:
            session.registry.counter("c").inc()
        session.write_jsonl(destination)
        lines = destination.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert any(json.loads(line)["type"] == "counter" for line in lines)
