"""Reference training loops: one plain function per trainer.

These are the four hand-written epoch loops the trainers ran before they
shared ``_BaseTrainer.fit``, kept as the oracle for that loop.  Callbacks,
verbose printing and telemetry spans are left out; everything that moves
a number is kept.  Each function reads its hyper-parameters from a trainer
instance (``epochs``, ``batch_size``, ``lr``, ``grad_clip``, ``seed``,
``early_stopping``, ``dtype`` and the loss weights) but calls none of its
methods, so a change to the trainers cannot move the oracle with them.

``reference_retrieval_fit`` keeps its own shuffle: one permutation drawn
once and reshuffled in place each epoch.  ``iter_batches`` draws a fresh
permutation per epoch, so only the first epoch of a retrieval fit is
comparable with it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.multitask import MultiTaskATNN
from repro.metrics.auc import roc_auc
from repro.nn.losses import (
    binary_cross_entropy,
    in_batch_softmax_loss,
    mean_squared_error,
    similarity_loss,
)
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor, no_grad, set_default_dtype

__all__ = [
    "reference_two_tower_fit",
    "reference_atnn_fit",
    "reference_multitask_fit",
    "reference_retrieval_fit",
]


def _step(trainer, optimizer: Optimizer, loss: Tensor) -> float:
    value = loss.item()
    optimizer.zero_grad()
    loss.backward()
    if trainer.grad_clip is not None:
        Optimizer.clip_gradients(optimizer.parameters, trainer.grad_clip)
    optimizer.step()
    return value


class _Run:
    """Compute dtype and early stopping for one reference fit."""

    def __init__(self, trainer, model) -> None:
        self.trainer = trainer
        self.model = model
        self.records: List[Dict[str, float]] = []
        self.best_value: Optional[float] = None
        self.best_state = None
        self.stale = 0
        self.entry_dtypes = []
        self.previous_dtype = None

    def __enter__(self) -> "_Run":
        self.entry_dtypes = [(p, p.data.dtype) for p in self.model.parameters()]
        self.previous_dtype = set_default_dtype(self.trainer.dtype)
        self.model.to_dtype(self.trainer.dtype)
        return self

    def __exit__(self, *exc) -> None:
        # Hand every parameter back in the dtype it came in.
        for param, dtype in self.entry_dtypes:
            param.to_dtype(dtype)
        set_default_dtype(self.previous_dtype)

    def end_epoch(self, record: Dict[str, float]) -> bool:
        """Append ``record``; True when early stopping's patience is spent."""
        self.records.append(record)
        policy = self.trainer.early_stopping
        if policy is None:
            return False
        value = record[policy.metric]
        better = self.best_value is None or (
            value > self.best_value if policy.mode == "max" else value < self.best_value
        )
        if better:
            self.best_value = value
            self.stale = 0
            if policy.restore_best:
                self.best_state = self.model.state_dict()
        else:
            self.stale += 1
        return self.stale >= policy.patience

    def finish(self) -> List[Dict[str, float]]:
        policy = self.trainer.early_stopping
        if policy is not None and policy.restore_best and self.best_state is not None:
            self.model.load_state_dict(self.best_state)
        self.model.eval()
        return self.records


def reference_two_tower_fit(trainer, model, train, valid=None, label="ctr"):
    """``TwoTowerTrainer.fit``: BCE on the encoder path."""
    rng = np.random.default_rng(trainer.seed)
    with _Run(trainer, model) as run:
        optimizer = Adam(model.parameters(), lr=trainer.lr)
        model.train()
        for _ in range(trainer.epochs):
            losses: List[float] = []
            for batch in train.iter_batches(trainer.batch_size, rng=rng):
                probabilities = model(batch.features)
                loss = binary_cross_entropy(probabilities, batch.label(label))
                losses.append(_step(trainer, optimizer, loss))
            record = {"loss": float(np.mean(losses))}
            if valid is not None:
                valid_scores = model.predict_proba(valid.features)
                record["valid_auc"] = roc_auc(valid.label(label), valid_scores)
                model.train()
            if run.end_epoch(record):
                break
        return run.finish()


def reference_atnn_fit(trainer, model, train, valid=None, label="ctr"):
    """``ATNNTrainer.fit``: Algorithm 1."""
    rng = np.random.default_rng(trainer.seed)
    with _Run(trainer, model) as run:
        optimizer = Adam(model.parameters(), lr=trainer.lr)
        model.train()
        for _ in range(trainer.epochs):
            losses_i: List[float] = []
            losses_g: List[float] = []
            losses_s: List[float] = []
            for batch in train.iter_batches(trainer.batch_size, rng=rng):
                targets = batch.label(label)

                probabilities = model(batch.features)
                loss_i = binary_cross_entropy(probabilities, targets)
                losses_i.append(_step(trainer, optimizer, loss_i))

                with no_grad():
                    encoder_targets = model.encoded_item_vectors(batch.features)
                generated = model.generated_item_vectors(batch.features)
                user_vectors = model.user_vectors(batch.features)
                generator_probabilities = model.scoring_head(generated, user_vectors)
                loss_g = binary_cross_entropy(generator_probabilities, targets)
                loss_s = similarity_loss(generated, Tensor(encoder_targets.data))
                combined = loss_g + trainer.lambda_similarity * loss_s
                _step(trainer, optimizer, combined)
                losses_g.append(loss_g.item())
                losses_s.append(loss_s.item())

            record = {
                "loss_i": float(np.mean(losses_i)),
                "loss_g": float(np.mean(losses_g)),
                "loss_s": float(np.mean(losses_s)),
            }
            if valid is not None:
                valid_labels = valid.label(label)
                encoder_scores = model.predict_proba(valid.features)
                generator_scores = model.predict_proba_cold_start(valid.features)
                record["valid_auc_encoder"] = roc_auc(valid_labels, encoder_scores)
                record["valid_auc_generator"] = roc_auc(valid_labels, generator_scores)
                model.train()
            if run.end_epoch(record):
                break
        return run.finish()


def _task_loss(trainer, model, features, item_vectors, gmv, vppv) -> Tensor:
    group_vectors = model.group_vectors(features)
    gmv_prediction = model.gmv_head(item_vectors, group_vectors)
    vppv_prediction = model.vppv_head(item_vectors, group_vectors)
    return mean_squared_error(gmv_prediction, gmv) + trainer.lambda_vppv * (
        mean_squared_error(vppv_prediction, vppv)
    )


def reference_multitask_fit(trainer, model, train, valid=None):
    """``MultiTaskTrainer.fit``: Algorithm 2."""
    model.gmv_head.set_output_bias(float(train.label("gmv").mean()))
    model.vppv_head.set_output_bias(float(train.label("vppv").mean()))
    rng = np.random.default_rng(trainer.seed)
    with _Run(trainer, model) as run:
        optimizer = Adam(model.parameters(), lr=trainer.lr)
        model.train()
        for _ in range(trainer.epochs):
            losses_r: List[float] = []
            losses_g: List[float] = []
            losses_s: List[float] = []
            for batch in train.iter_batches(trainer.batch_size, rng=rng):
                gmv, vppv = batch.label("gmv"), batch.label("vppv")
                encoded = model.encoded_item_vectors(batch.features)
                loss_r = _task_loss(trainer, model, batch.features, encoded, gmv, vppv)
                losses_r.append(_step(trainer, optimizer, loss_r))
                if not trainer.adversarial:
                    continue

                with no_grad():
                    encoder_targets = model.encoded_item_vectors(batch.features)
                generated = model.generated_item_vectors(batch.features)
                loss_g = _task_loss(trainer, model, batch.features, generated, gmv, vppv)
                loss_s = similarity_loss(generated, Tensor(encoder_targets.data))
                combined = loss_g + trainer.lambda_similarity * loss_s
                _step(trainer, optimizer, combined)
                losses_g.append(loss_g.item())
                losses_s.append(loss_s.item())

            record: Dict[str, float] = {"loss_r": float(np.mean(losses_r))}
            if losses_g:
                record["loss_g"] = float(np.mean(losses_g))
                record["loss_s"] = float(np.mean(losses_s))
            if valid is not None:
                for task in MultiTaskATNN.TASKS:
                    predictions = model.predict(
                        valid.features, task, cold_start=trainer.adversarial
                    )
                    errors = np.abs(predictions - valid.label(task))
                    record[f"valid_mae_{task}"] = float(errors.mean())
                model.train()
            if run.end_epoch(record):
                break
        return run.finish()


def reference_retrieval_fit(trainer, model, interactions, label="ctr", item_indices=None):
    """``RetrievalTrainer.fit``: in-batch softmax over the positive rows."""
    positive_rows = np.flatnonzero(interactions.label(label) == 1.0)
    positives = interactions.subset(positive_rows)
    log_probabilities = None
    if item_indices is not None:
        positive_items = np.asarray(item_indices)[positive_rows]
        counts = np.bincount(positive_items)
        log_probabilities = np.log(counts[positive_items] / positive_items.size)

    rng = np.random.default_rng(trainer.seed)
    with _Run(trainer, model) as run:
        optimizer = Adam(model.parameters(), lr=trainer.lr)
        model.train()
        order = np.arange(len(positives))
        for _ in range(trainer.epochs):
            rng.shuffle(order)
            losses: List[float] = []
            for start in range(0, len(order), trainer.batch_size):
                rows = order[start : start + trainer.batch_size]
                if rows.size < 2:
                    continue
                features = {name: col[rows] for name, col in positives.features.items()}
                loss = in_batch_softmax_loss(
                    model.user_vectors(features),
                    model.item_vectors(features),
                    temperature=trainer.temperature,
                    log_sampling_prob=(
                        log_probabilities[rows] if log_probabilities is not None else None
                    ),
                )
                losses.append(_step(trainer, optimizer, loss))
            if run.end_epoch({"loss": float(np.mean(losses))}):
                break
        return run.finish()
