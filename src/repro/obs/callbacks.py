"""Trainer telemetry: the callback interface and its metrics adapter.

``repro.core.trainer._BaseTrainer`` emits one :class:`BatchStats` per
optimizer step and one record per epoch to every attached
:class:`TrainerCallback` — both callbacks passed to the trainer directly
and the ``callback`` of the ambient
:class:`~repro.obs.context.Telemetry` (which is how a
:class:`~repro.obs.session.TelemetrySession` observes trainers it never
constructed).

:class:`TelemetryCallback` converts those events into registry metrics —
per-batch loss histograms, per-parameter-group gradient norms, the
learning rate — and watches the adversarial game for divergence: when the
generator/encoder loss ratio drifts by more than ``drift_factor`` from
its running (exponential-moving-average) level, it increments the
``trainer.divergence_warning`` counter and logs a warning.  This is the
collapse monitor that alternating schemes like ATNN's need (per-epoch
means hide it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.context import current_telemetry
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "BatchStats",
    "TrainerCallback",
    "TelemetryCallback",
]

_LOGGER = get_logger("obs.trainer")


@dataclass(frozen=True)
class BatchStats:
    """One optimizer step's diagnostics.

    Attributes
    ----------
    step:
        The optimizer's global step count after this update.
    path:
        Which alternating path produced the step (``"encoder"`` or
        ``"generator"``; plain trainers use ``"encoder"``).
    losses:
        Scalar loss components of this step (e.g. ``loss_i`` or
        ``loss_g``/``loss_s``).
    grad_norm:
        Global L2 norm over all gradients present after the step.
    grad_norms:
        L2 norm per top-level parameter group of the model.
    lr:
        The optimizer's current learning rate.
    """

    step: int
    path: str
    losses: Dict[str, float]
    grad_norm: float
    grad_norms: Dict[str, float]
    lr: float


class TrainerCallback:
    """Base class; subclasses override any subset of the hooks."""

    def on_train_begin(self, trainer, model) -> None:
        pass

    def on_batch_end(self, stats: BatchStats) -> None:
        pass

    def on_epoch_end(self, epoch: int, record: Dict[str, float]) -> None:
        pass

    def on_validation_scores(self, path: str, labels, scores) -> None:
        """Raw held-out (labels, scores) of one validation pass.

        ``path`` names the scoring head (``"encoder"``/``"generator"``).
        Trainers call this right after computing their validation AUC so
        quality monitors can derive exact calibration metrics without
        re-running prediction.
        """
        pass

    def on_train_end(self, history) -> None:
        pass


# ----------------------------------------------------------------------
# Metrics adapter
# ----------------------------------------------------------------------
# Loss keys reported by the encoder path of each trainer, used to anchor
# the generator/encoder ratio.
_ENCODER_LOSS_KEYS = ("loss_i", "loss_r", "loss")
_GENERATOR_LOSS_KEY = "loss_g"

# Loss histograms use wide log-style buckets (losses are unit-scale but
# can spike by orders of magnitude when the game diverges).
_LOSS_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0)


class TelemetryCallback(TrainerCallback):
    """Streams trainer events into a :class:`MetricsRegistry`.

    Parameters
    ----------
    registry:
        Destination registry; defaults to the ambient one at event time.
    drift_factor:
        How far the generator/encoder loss ratio may deviate from its EMA
        (multiplicatively, either direction) before a divergence warning
        fires.
    warmup_batches:
        Generator steps observed before drift checks start (the ratio is
        meaningless while both paths are still settling).
    ema_decay:
        Smoothing of the log-ratio EMA.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        drift_factor: float = 3.0,
        warmup_batches: int = 20,
        ema_decay: float = 0.98,
    ) -> None:
        if drift_factor <= 1.0:
            raise ValueError(f"drift_factor must be > 1, got {drift_factor}")
        if not 0.0 < ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in (0, 1), got {ema_decay}")
        self._registry = registry
        self.drift_factor = drift_factor
        self.warmup_batches = warmup_batches
        self.ema_decay = ema_decay
        self.epochs: List[Dict[str, float]] = []
        self._last_encoder_loss: Optional[float] = None
        self._log_ratio_ema: Optional[float] = None
        self._generator_batches = 0

    def _resolve_registry(self) -> Optional[MetricsRegistry]:
        if self._registry is not None:
            return self._registry
        return current_telemetry().registry

    # ------------------------------------------------------------------
    def on_train_begin(self, trainer, model) -> None:
        registry = self._resolve_registry()
        if registry is not None:
            registry.counter("trainer.runs").inc()
            registry.gauge("trainer.lr").set(trainer.lr)

    def on_batch_end(self, stats: BatchStats) -> None:
        registry = self._resolve_registry()
        if registry is not None:
            registry.counter("trainer.batches").inc()
            registry.gauge("trainer.lr").set(stats.lr)
            for key, value in stats.losses.items():
                registry.histogram(
                    f"trainer.{key}", buckets=_LOSS_BUCKETS
                ).observe(value)
            registry.histogram("trainer.grad_norm").observe(stats.grad_norm)
            for group, norm in stats.grad_norms.items():
                registry.histogram(f"trainer.grad_norm.{group}").observe(norm)
        self._watch_divergence(stats, registry)

    def on_epoch_end(self, epoch: int, record: Dict[str, float]) -> None:
        self.epochs.append(dict(record))
        registry = self._resolve_registry()
        if registry is not None:
            registry.gauge("trainer.epoch").set(epoch + 1)
        _LOGGER.debug(kv("epoch finished", epoch=epoch, **record))

    def on_validation_scores(self, path: str, labels, scores) -> None:
        monitor = current_telemetry().monitor
        if monitor is not None:
            monitor.observe_validation(path, labels, scores)

    # ------------------------------------------------------------------
    def _watch_divergence(
        self, stats: BatchStats, registry: Optional[MetricsRegistry]
    ) -> None:
        """Track the generator/encoder loss ratio; flag drift and NaNs."""
        non_finite = [k for k, v in stats.losses.items() if not math.isfinite(v)]
        if non_finite:
            self._warn(
                registry,
                "non-finite loss",
                step=stats.step,
                keys=",".join(non_finite),
            )
            return
        for key in _ENCODER_LOSS_KEYS:
            if key in stats.losses:
                self._last_encoder_loss = stats.losses[key]
                return
        generator_loss = stats.losses.get(_GENERATOR_LOSS_KEY)
        if generator_loss is None or not self._last_encoder_loss:
            return
        if generator_loss <= 0 or self._last_encoder_loss <= 0:
            return
        log_ratio = math.log(generator_loss / self._last_encoder_loss)
        self._generator_batches += 1
        if self._log_ratio_ema is None:
            self._log_ratio_ema = log_ratio
            return
        drifted = (
            self._generator_batches > self.warmup_batches
            and abs(log_ratio - self._log_ratio_ema) > math.log(self.drift_factor)
        )
        if drifted:
            self._warn(
                registry,
                "generator/encoder loss ratio drifted",
                step=stats.step,
                ratio=math.exp(log_ratio),
                ema_ratio=math.exp(self._log_ratio_ema),
            )
        self._log_ratio_ema = (
            self.ema_decay * self._log_ratio_ema + (1.0 - self.ema_decay) * log_ratio
        )

    def _warn(self, registry: Optional[MetricsRegistry], message: str, **fields):
        if registry is not None:
            registry.counter("trainer.divergence_warning").inc()
        _LOGGER.warning(kv(message, **fields))
