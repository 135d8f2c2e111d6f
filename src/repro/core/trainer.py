"""Training loops for the two-tower baselines and the ATNN models.

Implements the paper's alternating optimisation:

* Algorithm 1 (e-commerce ATNN): per batch, first minimise ``L_i`` (encoder
  path), then minimise ``L_g + lambda * L_s`` (generator path with the
  similarity term against detached encoder vectors).
* Algorithm 2 (food-delivery multi-task ATNN): the same alternation with
  ``L^GMV + lambda_1 * L^VpPV`` on each path and ``lambda_2 * L_s``.

Every trainer runs the one epoch loop of ``_BaseTrainer.fit`` and writes
only its per-batch step and its validation.  A single optimizer covers all
unique parameters; each alternating step only touches the parameters
reachable from its loss graph (parameters without gradients are skipped),
so the alternation matches the paper's two-step updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.atnn import ATNN
from repro.core.multitask import MultiTaskATNN
from repro.core.two_tower import TwoTowerModel
from repro.data.dataset import Batch, InteractionDataset
from repro.metrics.auc import roc_auc
from repro.nn.losses import (
    binary_cross_entropy,
    mean_squared_error,
    similarity_loss,
)
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor, no_grad, set_default_dtype
from repro.obs.callbacks import BatchStats, TrainerCallback
from repro.obs.context import current_telemetry
from repro.obs.tracing import maybe_span

__all__ = [
    "EarlyStopping",
    "TrainingHistory",
    "TwoTowerTrainer",
    "ATNNTrainer",
    "MultiTaskTrainer",
]


@dataclass(frozen=True)
class EarlyStopping:
    """Early-stopping policy on a recorded validation metric.

    Attributes
    ----------
    metric:
        Epoch-record key to watch: a validation metric such as
        ``valid_auc_encoder`` or ``valid_mae_vppv`` (requires training
        with a validation set), or a mean training loss such as ``loss``.
    mode:
        ``"max"`` (higher is better, AUC) or ``"min"`` (MAE/loss).
    patience:
        Epochs without improvement tolerated before stopping.
    restore_best:
        Reload the best epoch's weights when training ends.
    """

    metric: str
    mode: str = "max"
    patience: int = 2
    restore_best: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {self.mode!r}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")

    def improved(self, value: float, best: Optional[float]) -> bool:
        """Whether ``value`` beats the best seen so far."""
        if best is None:
            return True
        return value > best if self.mode == "max" else value < best


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics.

    ``records`` holds one dict per epoch with the mean batch losses (keys
    depend on the trainer) plus any validation metrics.
    """

    records: List[Dict[str, float]] = field(default_factory=list)

    def series(self, key: str) -> List[float]:
        """Values of one diagnostic across epochs (missing epochs skipped)."""
        return [record[key] for record in self.records if key in record]

    @property
    def n_epochs(self) -> int:
        return len(self.records)

    def last(self, key: str) -> float:
        """Most recent value of one diagnostic."""
        values = self.series(key)
        if not values:
            raise KeyError(f"no recorded values for {key!r}")
        return values[-1]

    def keys(self) -> List[str]:
        """All diagnostic keys, in order of first appearance."""
        seen: List[str] = []
        for record in self.records:
            for key in record:
                if key not in seen:
                    seen.append(key)
        return seen

    def to_dict(self) -> Dict[str, List[Dict[str, float]]]:
        """JSON-friendly payload; round-trips through :meth:`from_dict`."""
        return {"records": [dict(record) for record in self.records]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "TrainingHistory":
        """Rebuild a history saved by :meth:`to_dict`."""
        records = payload.get("records")
        if not isinstance(records, list):
            raise ValueError("payload must contain a 'records' list")
        rebuilt = []
        for position, record in enumerate(records):
            if not isinstance(record, dict):
                raise ValueError(f"record #{position} is not a mapping")
            rebuilt.append({str(k): float(v) for k, v in record.items()})
        return cls(records=rebuilt)

    def summary(self) -> str:
        """One-line description: epoch count and first→last per diagnostic."""
        if not self.records:
            return "TrainingHistory: empty"
        parts = []
        for key in self.keys():
            values = self.series(key)
            if len(values) == 1:
                parts.append(f"{key} {values[0]:.4f}")
            else:
                parts.append(f"{key} {values[0]:.4f}→{values[-1]:.4f}")
        plural = "s" if self.n_epochs != 1 else ""
        return f"TrainingHistory: {self.n_epochs} epoch{plural}; " + ", ".join(parts)


# One optimizer step of a training step: the path it trains ("encoder" or
# "generator"), the loss to minimise, and the scalars to log for it.
PathStep = Tuple[str, Tensor, Dict[str, Tensor]]


class _BaseTrainer:
    """The one epoch loop; subclasses supply a step and a validation.

    :meth:`fit` owns the shuffle rng, the Adam optimizer, the
    ``train.epoch`` span, per-epoch loss means, validation, early
    stopping with best-state restore, and callbacks.  A subclass writes
    its objective once, as :meth:`_train_step`: a generator that yields
    one :data:`PathStep` per optimizer step on a batch.  The loop steps
    the optimizer before resuming the generator, so a later path's
    forward sees the earlier path's update — Algorithm 1's alternation.
    """

    def __init__(
        self,
        epochs: int = 3,
        batch_size: int = 512,
        lr: float = 1e-3,
        grad_clip: Optional[float] = 5.0,
        seed: int = 0,
        verbose: bool = False,
        on_epoch_end: Optional[Callable[[int, Dict[str, float]], None]] = None,
        early_stopping: Optional[EarlyStopping] = None,
        callbacks: Optional[Sequence[TrainerCallback]] = None,
        dtype=np.float32,
    ) -> None:
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.grad_clip = grad_clip
        self.seed = seed
        self.verbose = verbose
        self.on_epoch_end = on_epoch_end
        self.early_stopping = early_stopping
        self.callbacks: List[TrainerCallback] = list(callbacks or [])
        # Compute dtype for the whole fit.  float32 halves the memory
        # traffic of the numpy kernels; fit hands the parameters back in
        # the dtype they came in, so serving still sees float64.
        self.dtype = np.dtype(dtype)
        self._previous_dtype = None
        self._entry_dtypes: List[Tuple] = []
        self._best_value: Optional[float] = None
        self._best_state: Optional[Dict[str, np.ndarray]] = None
        self._epochs_without_improvement = 0
        self._active_callbacks: Tuple[TrainerCallback, ...] = ()
        self._parameter_groups: List[Tuple[str, List]] = []

    # ------------------------------------------------------------------
    # What each trainer supplies
    # ------------------------------------------------------------------
    def _train_step(self, model, batch: Batch, label: str) -> Iterator[PathStep]:
        """Yield the optimizer steps of one batch, in order."""
        raise NotImplementedError

    def _validate(self, model, valid: InteractionDataset, label: str) -> Dict[str, float]:
        """Validation metrics for one epoch's record."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------
    def fit(
        self,
        model,
        train: InteractionDataset,
        valid: Optional[InteractionDataset] = None,
        label: str = "ctr",
    ) -> TrainingHistory:
        """Train ``model`` in place; returns per-epoch history.

        Parameters
        ----------
        model:
            The model to train.
        train:
            Training interactions.
        valid:
            Optional held-out interactions; when given, each epoch's
            record also carries the trainer's validation metrics.
        label:
            Which label column carries the click target.

        Raises
        ------
        ValueError
            When an epoch takes no optimizer step (an empty training set,
            or batches too small for the objective).
        """
        rng = np.random.default_rng(self.seed)
        history = TrainingHistory()
        try:
            self._begin_fit(model)
            optimizer = Adam(model.parameters(), lr=self.lr)
            model.train()
            for epoch in range(self.epochs):
                logged: Dict[str, List[float]] = {}
                with maybe_span("train.epoch"):
                    for batch in train.iter_batches(self.batch_size, rng=rng):
                        for path, loss, logs in self._train_step(model, batch, label):
                            self._step(optimizer, loss)
                            values = {key: tensor.item() for key, tensor in logs.items()}
                            for key, value in values.items():
                                logged.setdefault(key, []).append(value)
                            self._on_batch(optimizer, path, values)
                if not logged:
                    raise ValueError(
                        f"epoch {epoch + 1} took no training step: {len(train)} "
                        f"training rows at batch_size={self.batch_size}"
                    )
                record = {key: float(np.mean(values)) for key, values in logged.items()}
                if valid is not None:
                    record.update(self._validate(model, valid, label))
                    model.train()
                self._finish_epoch(epoch, record, history)
                if self._check_early_stop(record, model):
                    break
            self._maybe_restore_best(model)
            model.eval()
        finally:
            self._end_fit(history)
        return history

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _begin_fit(self, model) -> None:
        """Enter the compute dtype, reset early stopping, resolve callbacks."""
        self._entry_dtypes = [(param, param.data.dtype) for param in model.parameters()]
        self._previous_dtype = set_default_dtype(self.dtype)
        model.to_dtype(self.dtype)
        self._best_value = None
        self._best_state = None
        self._epochs_without_improvement = 0
        ambient = current_telemetry().callback
        self._active_callbacks = tuple(self.callbacks) + (
            () if ambient is None else (ambient,)
        )
        self._parameter_groups = []
        if self._active_callbacks:
            # Group parameters by the model's top-level submodule; a shared
            # parameter (the paper's embedding trick) counts once, under the
            # group that registered it first.
            groups: Dict[str, List] = {}
            seen_ids: set = set()
            for name, param in model.named_parameters():
                if id(param) in seen_ids:
                    continue
                seen_ids.add(id(param))
                group = name.split(".", 1)[0]
                groups.setdefault(group, []).append(param)
            self._parameter_groups = sorted(groups.items())
        for callback in self._active_callbacks:
            callback.on_train_begin(self, model)

    def _end_fit(self, history: "TrainingHistory") -> None:
        """Run on every exit path: hand back the entry dtypes, then end callbacks."""
        for param, dtype in self._entry_dtypes:
            param.to_dtype(dtype)
        self._entry_dtypes = []
        if self._previous_dtype is not None:
            set_default_dtype(self._previous_dtype)
            self._previous_dtype = None
        for callback in self._active_callbacks:
            callback.on_train_end(history)
        self._active_callbacks = ()
        self._parameter_groups = []

    @staticmethod
    def _grad_norm(parameters) -> float:
        total = 0.0
        for param in parameters:
            if param.grad is not None:
                total += float((param.grad ** 2).sum())
        return float(np.sqrt(total))

    def _on_batch(
        self,
        optimizer: Optimizer,
        path: str,
        losses: Dict[str, float],
    ) -> None:
        """Emit one :class:`BatchStats` (gradients still hold this step's values)."""
        if not self._active_callbacks:
            return
        stats = BatchStats(
            step=optimizer.step_count,
            path=path,
            losses=losses,
            grad_norm=self._grad_norm(optimizer.parameters),
            grad_norms={
                group: self._grad_norm(params)
                for group, params in self._parameter_groups
            },
            lr=optimizer.lr,
        )
        for callback in self._active_callbacks:
            callback.on_batch_end(stats)

    def _step(self, optimizer: Optimizer, loss: Tensor) -> None:
        value = loss.item()
        if not np.isfinite(value):
            raise RuntimeError(
                f"training diverged: loss is {value!r} at optimizer step "
                f"{optimizer.step_count}; lower the learning rate or enable "
                "gradient clipping"
            )
        optimizer.zero_grad()
        loss.backward()
        if self.grad_clip is not None:
            Optimizer.clip_gradients(optimizer.parameters, self.grad_clip)
        optimizer.step()

    def _emit_validation_scores(self, path: str, labels, scores) -> None:
        """Hand one validation pass's raw (labels, scores) to callbacks."""
        for callback in self._active_callbacks:
            callback.on_validation_scores(path, labels, scores)

    def _finish_epoch(
        self,
        epoch: int,
        record: Dict[str, float],
        history: TrainingHistory,
    ) -> None:
        history.records.append(record)
        if self.verbose:
            rendered = ", ".join(f"{k}={v:.4f}" for k, v in record.items())
            print(f"epoch {epoch + 1}/{self.epochs}: {rendered}")
        if self.on_epoch_end is not None:
            self.on_epoch_end(epoch, record)
        for callback in self._active_callbacks:
            callback.on_epoch_end(epoch, record)

    def _check_early_stop(self, record: Dict[str, float], model) -> bool:
        """Update the best snapshot; return True when patience is spent."""
        policy = self.early_stopping
        if policy is None:
            return False
        if policy.metric not in record:
            raise KeyError(
                f"early stopping watches {policy.metric!r} but the epoch "
                f"record only has {sorted(record)}; pass a validation set"
            )
        value = record[policy.metric]
        if policy.improved(value, self._best_value):
            self._best_value = value
            self._epochs_without_improvement = 0
            if policy.restore_best:
                self._best_state = model.state_dict()
        else:
            self._epochs_without_improvement += 1
        return self._epochs_without_improvement >= policy.patience

    def _maybe_restore_best(self, model) -> None:
        """Reload the best snapshot when configured."""
        if (
            self.early_stopping is not None
            and self.early_stopping.restore_best
            and self._best_state is not None
        ):
            model.load_state_dict(self._best_state)


class TwoTowerTrainer(_BaseTrainer):
    """Trains :class:`TwoTowerModel` on binary CTR labels.

    Records ``loss`` per epoch, plus ``valid_auc`` when :meth:`fit` gets a
    validation set.
    """

    def _train_step(
        self, model: TwoTowerModel, batch: Batch, label: str
    ) -> Iterator[PathStep]:
        probabilities = model(batch.features)
        loss = binary_cross_entropy(probabilities, batch.label(label))
        yield "encoder", loss, {"loss": loss}

    def _validate(
        self, model: TwoTowerModel, valid: InteractionDataset, label: str
    ) -> Dict[str, float]:
        valid_labels = valid.label(label)
        valid_scores = model.predict_proba(valid.features)
        metrics = {"valid_auc": roc_auc(valid_labels, valid_scores)}
        self._emit_validation_scores("encoder", valid_labels, valid_scores)
        return metrics


class ATNNTrainer(_BaseTrainer):
    """Alternating trainer for :class:`ATNN` (Algorithm 1).

    Records ``loss_i``, ``loss_g`` and ``loss_s`` per epoch.  When
    :meth:`fit` gets a validation set, both the encoder-path AUC
    (``valid_auc_encoder``) and the cold-start generator-path AUC
    (``valid_auc_generator``) are recorded too.

    Parameters
    ----------
    lambda_similarity:
        The paper's ``lambda`` weighting ``L_s`` in the generator step
        (0.1 in the paper's experiments; 0 disables distillation).
    """

    def __init__(self, lambda_similarity: float = 0.1, **kwargs) -> None:
        super().__init__(**kwargs)
        if lambda_similarity < 0:
            raise ValueError(
                f"lambda_similarity must be >= 0, got {lambda_similarity}"
            )
        self.lambda_similarity = lambda_similarity

    def _train_step(self, model: ATNN, batch: Batch, label: str) -> Iterator[PathStep]:
        targets = batch.label(label)

        # Step 1 — optimise the encoder path on L_i.
        probabilities = model(batch.features)
        loss_i = binary_cross_entropy(probabilities, targets)
        yield "encoder", loss_i, {"loss_i": loss_i}

        # Step 2 — optimise the generator path on L_g + lambda*L_s.
        with no_grad():
            encoder_targets = model.encoded_item_vectors(batch.features)
        generated = model.generated_item_vectors(batch.features)
        user_vectors = model.user_vectors(batch.features)
        generator_probabilities = model.scoring_head(generated, user_vectors)
        loss_g = binary_cross_entropy(generator_probabilities, targets)
        loss_s = similarity_loss(generated, Tensor(encoder_targets.data))
        combined = loss_g + self.lambda_similarity * loss_s
        yield "generator", combined, {"loss_g": loss_g, "loss_s": loss_s}

    def _validate(
        self, model: ATNN, valid: InteractionDataset, label: str
    ) -> Dict[str, float]:
        valid_labels = valid.label(label)
        encoder_scores = model.predict_proba(valid.features)
        generator_scores = model.predict_proba_cold_start(valid.features)
        metrics = {
            "valid_auc_encoder": roc_auc(valid_labels, encoder_scores),
            "valid_auc_generator": roc_auc(valid_labels, generator_scores),
        }
        self._emit_validation_scores("encoder", valid_labels, encoder_scores)
        self._emit_validation_scores("generator", valid_labels, generator_scores)
        return metrics


class MultiTaskTrainer(_BaseTrainer):
    """Alternating trainer for :class:`MultiTaskATNN` (Algorithm 2).

    Records ``loss_r`` (plus ``loss_g`` and ``loss_s`` when adversarial)
    per epoch, and ``valid_mae_<task>`` when :meth:`fit` gets a
    validation set.

    Parameters
    ----------
    lambda_vppv:
        The paper's ``lambda_1`` weighting the VpPV loss against the GMV
        loss (100 in the paper).
    lambda_similarity:
        The paper's ``lambda_2`` weighting ``L_s`` (10 in the paper).
    adversarial:
        When False the generator step is skipped entirely — this is the
        TNN-DCN comparison model of Table IV trained on the same code path.
    """

    def __init__(
        self,
        lambda_vppv: float = 100.0,
        lambda_similarity: float = 10.0,
        adversarial: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if lambda_vppv < 0 or lambda_similarity < 0:
            raise ValueError("loss weights must be >= 0")
        self.lambda_vppv = lambda_vppv
        self.lambda_similarity = lambda_similarity
        self.adversarial = adversarial

    def fit(
        self,
        model: MultiTaskATNN,
        train: InteractionDataset,
        valid: Optional[InteractionDataset] = None,
    ) -> TrainingHistory:
        """Run Algorithm 2 on the ``gmv`` and ``vppv`` labels."""
        # Start each regression head at its label mean so early epochs fit
        # structure rather than climbing the output offset.
        if len(train):
            model.gmv_head.set_output_bias(float(train.label("gmv").mean()))
            model.vppv_head.set_output_bias(float(train.label("vppv").mean()))
        return super().fit(model, train, valid)

    def _task_loss(
        self, model: MultiTaskATNN, item_vectors: Tensor, batch: Batch
    ) -> Tensor:
        """``L^GMV + lambda_1 * L^VpPV`` on one path's item vectors."""
        group_vectors = model.group_vectors(batch.features)
        gmv_prediction = model.gmv_head(item_vectors, group_vectors)
        vppv_prediction = model.vppv_head(item_vectors, group_vectors)
        return mean_squared_error(
            gmv_prediction, batch.label("gmv")
        ) + self.lambda_vppv * mean_squared_error(vppv_prediction, batch.label("vppv"))

    def _train_step(
        self, model: MultiTaskATNN, batch: Batch, label: str
    ) -> Iterator[PathStep]:
        # Step 1 — encoder path: L_r^GMV + lambda_1 * L_r^VpPV.
        loss_r = self._task_loss(model, model.encoded_item_vectors(batch.features), batch)
        yield "encoder", loss_r, {"loss_r": loss_r}
        if not self.adversarial:
            return

        # Step 2 — generator path plus similarity distillation.
        with no_grad():
            encoder_targets = model.encoded_item_vectors(batch.features)
        generated = model.generated_item_vectors(batch.features)
        loss_g = self._task_loss(model, generated, batch)
        loss_s = similarity_loss(generated, Tensor(encoder_targets.data))
        combined = loss_g + self.lambda_similarity * loss_s
        yield "generator", combined, {"loss_g": loss_g, "loss_s": loss_s}

    def _validate(
        self, model: MultiTaskATNN, valid: InteractionDataset, label: str
    ) -> Dict[str, float]:
        metrics = {}
        for task in MultiTaskATNN.TASKS:
            predictions = model.predict(
                valid.features, task, cold_start=self.adversarial
            )
            errors = np.abs(predictions - valid.label(task))
            metrics[f"valid_mae_{task}"] = float(errors.mean())
        return metrics
