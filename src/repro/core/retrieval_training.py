"""Candidate-retrieval training for two-tower models.

The paper's two-tower structure is also the standard architecture for
*candidate retrieval* (its reference [15], Yi et al. 2019).  This module
trains a :class:`~repro.core.two_tower.TwoTowerModel` with the in-batch
sampled-softmax objective on positive (clicked) pairs, and evaluates
corpus-level recall: given a user, is the item they actually clicked
ranked inside the top-k of the whole item corpus?
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional

import numpy as np

from repro.core.trainer import PathStep, TrainingHistory, _BaseTrainer
from repro.core.two_tower import TwoTowerModel
from repro.data.dataset import Batch, FeatureTable, InteractionDataset
from repro.nn.losses import in_batch_softmax_loss
from repro.nn.tensor import no_grad

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle at import)
    from repro.retrieval import MIPSIndex

__all__ = ["RetrievalTrainer", "recall_against_corpus"]

_LOG_SAMPLING_PROB = "_log_sampling_prob"


class RetrievalTrainer(_BaseTrainer):
    """Trains a two-tower model for retrieval with in-batch negatives.

    Records ``loss`` per epoch.  Batches of fewer than two rows are
    skipped: in-batch softmax needs at least one negative.

    Parameters
    ----------
    temperature:
        Softmax temperature of the in-batch objective.
    (plus the shared knobs of the base trainer: epochs, batch_size, lr,
    grad_clip, seed, verbose, early_stopping, callbacks, dtype.)
    """

    def __init__(self, temperature: float = 0.2, **kwargs) -> None:
        super().__init__(**kwargs)
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.temperature = temperature

    def fit(
        self,
        model: TwoTowerModel,
        interactions: InteractionDataset,
        label: str = "ctr",
        item_indices: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train on the positive rows of ``interactions``.

        Negative rows are dropped: in-batch softmax supplies negatives
        from the other positives in each batch, as in sampled-softmax
        retrieval training.

        Parameters
        ----------
        item_indices:
            Optional per-row item identity (aligned to ``interactions``).
            When given, empirical item frequencies provide the
            log-sampling-probability correction of Yi et al. — without it
            popular items are over-penalised as in-batch negatives.
        """
        positive_rows = np.flatnonzero(interactions.label(label) == 1.0)
        positives = interactions.subset(positive_rows)
        if len(positives) < 2:
            raise ValueError(
                "retrieval training needs at least 2 positive rows, got "
                f"{len(positives)}"
            )

        if item_indices is not None:
            item_indices = np.asarray(item_indices)
            if item_indices.shape != (len(interactions),):
                raise ValueError(
                    f"item_indices must align with interactions "
                    f"({len(interactions)} rows), got {item_indices.shape}"
                )
            positive_items = item_indices[positive_rows]
            counts = np.bincount(positive_items)
            frequencies = counts[positive_items] / positive_items.size
            # A label column of the subset, so each batch slices its own rows.
            positives.labels[_LOG_SAMPLING_PROB] = np.log(frequencies)
        return super().fit(model, positives, label=label)

    def _train_step(
        self, model: TwoTowerModel, batch: Batch, label: str
    ) -> Iterator[PathStep]:
        if batch.size < 2:
            return
        loss = in_batch_softmax_loss(
            model.user_vectors(batch.features),
            model.item_vectors(batch.features),
            temperature=self.temperature,
            log_sampling_prob=batch.labels.get(_LOG_SAMPLING_PROB),
        )
        yield "encoder", loss, {"loss": loss}


def recall_against_corpus(
    model: TwoTowerModel,
    user_rows: Dict[str, np.ndarray],
    true_item_indices: np.ndarray,
    corpus: FeatureTable,
    k: int = 10,
    batch_size: int = 4096,
    index: Optional["MIPSIndex"] = None,
) -> float:
    """Corpus-level recall@k of a retrieval-trained two-tower model.

    Parameters
    ----------
    model:
        The trained model.
    user_rows:
        Feature columns for the evaluation users (one row per query).
    true_item_indices:
        For each query, the corpus row of the item the user clicked.
    corpus:
        The full candidate item table.
    k:
        Cutoff.
    batch_size:
        Encoding *and* scoring chunk size — the dense path never
        materialises more than ``(batch_size, len(corpus))`` scores.
    index:
        Optional :class:`repro.retrieval.MIPSIndex`.  When given, it is
        rebuilt over the encoded corpus and queries route through
        ``index.search`` — the exact code path the serving engine uses —
        so training eval measures the retrieval stack that actually
        serves (pass an IVF index to measure its recall loss directly).
        Ties at the k-th score are then broken by the index instead of
        pessimistically.

    Returns
    -------
    float
        Fraction of queries whose true item ranks in the top-k by dot
        product against the encoded corpus.
    """
    true_item_indices = np.asarray(true_item_indices)
    n_queries = len(next(iter(user_rows.values())))
    if true_item_indices.shape != (n_queries,):
        raise ValueError(
            f"true_item_indices must have shape ({n_queries},), "
            f"got {true_item_indices.shape}"
        )
    if not 1 <= k <= len(corpus):
        raise ValueError(f"k must be in [1, {len(corpus)}], got {k}")

    was_training = model.training
    model.eval()
    try:
        with no_grad():
            corpus_chunks = []
            for start in range(0, len(corpus), batch_size):
                chunk = {
                    name: col[start : start + batch_size]
                    for name, col in corpus.columns.items()
                }
                corpus_chunks.append(model.item_vectors(chunk).data)
            corpus_vectors = np.concatenate(corpus_chunks, axis=0)

            user_chunks = []
            for start in range(0, n_queries, batch_size):
                chunk = {
                    name: np.asarray(col)[start : start + batch_size]
                    for name, col in user_rows.items()
                }
                user_chunks.append(model.user_vectors(chunk).data)
            user_vectors = np.concatenate(user_chunks, axis=0)
    finally:
        model.train(was_training)

    hits = 0
    if index is not None:
        index.rebuild(corpus_vectors)
        for start in range(0, n_queries, batch_size):
            stop = min(start + batch_size, n_queries)
            ids, _ = index.search(user_vectors[start:stop], k)
            hits += int(
                (ids == true_item_indices[start:stop, None]).any(axis=1).sum()
            )
    else:
        # Batched dense scoring: one matmul per query block, rank of the
        # true item = number of corpus items scoring at least as high
        # (ties resolved pessimistically).
        for start in range(0, n_queries, batch_size):
            stop = min(start + batch_size, n_queries)
            scores = user_vectors[start:stop] @ corpus_vectors.T
            true_scores = scores[
                np.arange(stop - start), true_item_indices[start:stop]
            ]
            ranks = (scores >= true_scores[:, None]).sum(axis=1)
            hits += int((ranks <= k).sum())
    return float(hits / n_queries)
