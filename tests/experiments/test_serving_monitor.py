"""Monitored serving: streaming estimates vs exact, alerts, telemetry."""

import numpy as np
import pytest

from repro.core.trainer import ATNNTrainer
from repro.experiments import build_tmall_artifacts, run_monitored_serving
from repro.obs import QualityMonitor, TelemetrySession


@pytest.fixture(scope="module")
def artifacts():
    return build_tmall_artifacts("smoke")


class TestRunMonitoredServing:
    @pytest.fixture(scope="class")
    def result(self, artifacts):
        return run_monitored_serving("smoke", artifacts=artifacts)

    def test_streaming_auc_within_tolerance_of_exact(self, result):
        assert result.exact_auc is not None
        assert result.streaming_auc is not None
        assert abs(result.exact_auc - result.streaming_auc) <= 0.01

    def test_quality_snapshot_populated(self, result):
        assert result.quality["quality.streaming_auc"] is not None
        assert result.quality["quality.ece"] is not None
        assert result.quality["quality.impressions"] > 0
        assert "quality.ctr.cold" in result.quality
        assert "quality.ctr.warm" in result.quality

    def test_cold_start_cohort_tracked(self, result):
        assert result.cold_start["items_seen"] > 0
        assert result.cold_start["warm_items"] > 0
        assert result.cold_start["vector_divergence"] is not None

    def test_no_spurious_alerts_on_healthy_run(self, result):
        fired = [a for a in result.alerts if a["kind"] == "fired"]
        assert fired == []

    def test_render_and_as_dict(self, result):
        text = result.render()
        assert "Monitored serving" in text
        assert "auc check" in text
        payload = result.as_dict()
        assert payload["exact_auc"] == result.exact_auc
        assert "quality" in payload and "alerts" in payload

    def test_warmup_trajectory_recorded(self, result):
        assert len(result.stages) == 3
        assert result.stages[-1].warm_items > 0


class TestSessionIntegration:
    def test_monitor_session_collects_gauges(self, artifacts):
        with TelemetrySession(profile_autograd=False, monitor=True) as session:
            run_monitored_serving(
                "smoke", artifacts=artifacts, monitor=session.monitor
            )
        assert "quality.streaming_auc" in session.registry
        record_types = {record["type"] for record in session.iter_records()}
        assert {"quality", "drift", "coldstart"} <= record_types

    def test_trainer_validation_routes_to_monitor(self, artifacts):
        from repro.data.splits import train_test_split

        rng = np.random.default_rng(0)
        train, valid = train_test_split(
            artifacts.world.interactions, 0.2, rng
        )
        monitor = QualityMonitor()
        with TelemetrySession(profile_autograd=False, monitor=monitor):
            trainer = ATNNTrainer(epochs=1, batch_size=256, seed=0)
            trainer.fit(artifacts.model, train, valid=valid)
        assert "encoder" in monitor.validation
        assert "generator" in monitor.validation
        snapshot = monitor.snapshot()
        assert 0.0 <= snapshot["quality.validation.encoder.auc"] <= 1.0
        assert "quality.validation.generator.auc" in snapshot

    def test_passing_explicit_monitor_reuses_it(self, artifacts):
        monitor = QualityMonitor()
        result = run_monitored_serving(
            "smoke",
            artifacts=artifacts,
            event_batches=(0, 2_000),
            monitor=monitor,
        )
        assert monitor.impressions_seen > 0
        assert result.quality["quality.impressions"] == float(
            monitor.impressions_seen
        )
