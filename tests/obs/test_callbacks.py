"""Trainer callback interface and the telemetry metrics adapter."""

import numpy as np
import pytest

from repro.core import ATNNTrainer, TwoTowerModel, TwoTowerTrainer, ATNN
from repro.data import train_test_split
from repro.obs import (
    BatchStats,
    MetricsRegistry,
    TelemetryCallback,
    Telemetry,
    TrainerCallback,
    current_telemetry,
    use_telemetry,
)


@pytest.fixture
def tiny_train(tiny_tmall_world):
    rng = np.random.default_rng(0)
    train, _ = train_test_split(tiny_tmall_world.interactions, 0.2, rng)
    return train.subset(np.arange(2000))


def _batch(step, path, losses, lr=1e-3, grad_norm=1.0):
    return BatchStats(
        step=step,
        path=path,
        losses=losses,
        grad_norm=grad_norm,
        grad_norms={"item_tower": grad_norm},
        lr=lr,
    )


class _Recorder(TrainerCallback):
    def __init__(self):
        self.events = []

    def on_train_begin(self, trainer, model):
        self.events.append("begin")

    def on_batch_end(self, stats):
        self.events.append(("batch", stats.path, sorted(stats.losses)))

    def on_epoch_end(self, epoch, record):
        self.events.append(("epoch", epoch))

    def on_train_end(self, history):
        self.events.append("end")


class TestTrainerIntegration:
    def test_direct_callback_receives_full_lifecycle(
        self, tiny_tmall_world, tiny_tower_config, tiny_train
    ):
        recorder = _Recorder()
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        TwoTowerTrainer(
            epochs=1, batch_size=512, lr=1e-3, callbacks=[recorder]
        ).fit(model, tiny_train)
        assert recorder.events[0] == "begin"
        assert recorder.events[-1] == "end"
        assert ("epoch", 0) in recorder.events
        batch_events = [e for e in recorder.events if e[0] == "batch"]
        assert batch_events and all(e[1] == "encoder" for e in batch_events)

    def test_atnn_reports_both_paths_with_grad_norms(
        self, tiny_tmall_world, tiny_tower_config, tiny_train
    ):
        seen = []

        class _Paths(TrainerCallback):
            def on_batch_end(self, stats):
                seen.append(stats)

        model = ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(2),
        )
        ATNNTrainer(
            epochs=1, batch_size=512, lr=1e-3, callbacks=[_Paths()]
        ).fit(model, tiny_train)
        paths = {stats.path for stats in seen}
        assert paths == {"encoder", "generator"}
        encoder = next(s for s in seen if s.path == "encoder")
        assert "loss_i" in encoder.losses
        assert encoder.grad_norm > 0
        assert "item_encoder" in encoder.grad_norms
        generator = next(s for s in seen if s.path == "generator")
        assert set(generator.losses) == {"loss_g", "loss_s"}

    def test_global_callback_attached_and_detached(
        self, tiny_tmall_world, tiny_tower_config, tiny_train
    ):
        recorder = _Recorder()
        with use_telemetry(Telemetry(callback=recorder)):
            assert current_telemetry().callback is recorder
            model = TwoTowerModel(
                tiny_tmall_world.schema, tiny_tower_config,
                rng=np.random.default_rng(1),
            )
            TwoTowerTrainer(epochs=1, batch_size=512, lr=1e-3).fit(
                model, tiny_train
            )
        assert recorder.events[0] == "begin" and recorder.events[-1] == "end"
        assert current_telemetry().callback is None

    def test_no_ambient_callback_outside_telemetry(self):
        assert current_telemetry().callback is None


class TestTelemetryCallback:
    def test_metrics_emitted(self):
        registry = MetricsRegistry()
        callback = TelemetryCallback(registry)
        callback.on_batch_end(_batch(1, "encoder", {"loss_i": 0.7}))
        callback.on_epoch_end(0, {"loss_i": 0.7})
        assert registry.counter("trainer.batches").value == 1
        assert registry.histogram("trainer.loss_i").count == 1
        assert registry.histogram("trainer.grad_norm").count == 1
        assert registry.histogram("trainer.grad_norm.item_tower").count == 1
        assert registry.gauge("trainer.lr").value == 1e-3
        assert callback.epochs == [{"loss_i": 0.7}]

    def test_resolves_active_registry_when_unbound(self):
        registry = MetricsRegistry()
        callback = TelemetryCallback()
        with use_telemetry(Telemetry(registry=registry)):
            callback.on_batch_end(_batch(1, "encoder", {"loss": 0.5}))
        assert registry.counter("trainer.batches").value == 1

    def test_divergence_counter_on_ratio_drift(self):
        registry = MetricsRegistry()
        callback = TelemetryCallback(
            registry, drift_factor=2.0, warmup_batches=5, ema_decay=0.9
        )
        step = 0
        for _ in range(10):  # stable alternation: ratio 1.0
            step += 1
            callback.on_batch_end(_batch(step, "encoder", {"loss_i": 0.5}))
            step += 1
            callback.on_batch_end(_batch(step, "generator", {"loss_g": 0.5}))
        assert registry.counter("trainer.divergence_warning").value == 0
        # Generator loss explodes: ratio jumps 10x past the drift factor.
        step += 1
        callback.on_batch_end(_batch(step, "encoder", {"loss_i": 0.5}))
        step += 1
        callback.on_batch_end(_batch(step, "generator", {"loss_g": 5.0}))
        assert registry.counter("trainer.divergence_warning").value == 1

    def test_non_finite_loss_counts_as_divergence(self):
        registry = MetricsRegistry()
        callback = TelemetryCallback(registry)
        callback.on_batch_end(_batch(1, "encoder", {"loss_i": float("nan")}))
        assert registry.counter("trainer.divergence_warning").value == 1

    def test_no_warning_during_warmup(self):
        registry = MetricsRegistry()
        callback = TelemetryCallback(
            registry, drift_factor=2.0, warmup_batches=50, ema_decay=0.9
        )
        callback.on_batch_end(_batch(1, "encoder", {"loss_i": 0.5}))
        callback.on_batch_end(_batch(2, "generator", {"loss_g": 0.5}))
        callback.on_batch_end(_batch(3, "encoder", {"loss_i": 0.5}))
        callback.on_batch_end(_batch(4, "generator", {"loss_g": 50.0}))
        assert registry.counter("trainer.divergence_warning").value == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TelemetryCallback(drift_factor=1.0)
        with pytest.raises(ValueError):
            TelemetryCallback(ema_decay=1.0)
