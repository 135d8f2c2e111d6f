"""Embedding table layers.

The ATNN paper maps each categorical feature (user id, occupation, item
category, ...) to a fixed-length dense vector; the generator and the item
encoder *share* the item-profile embedding tables.  Sharing is expressed here
simply by passing the same :class:`Embedding` instance to both towers — the
module system deduplicates shared parameters at optimisation time.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, embedding_lookup, fused_embedding_bag

__all__ = ["Embedding", "EmbeddingBag", "FeatureEmbeddings"]


class Embedding(Module):
    """A lookup table mapping integer ids to dense vectors.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size.
    embedding_dim:
        Dimension of each embedding vector.
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                "vocabulary and embedding dimension must be positive, got "
                f"{num_embeddings}x{embedding_dim}"
            )
        rng = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.normal(rng, (num_embeddings, embedding_dim), std=0.05),
            name="embedding",
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        """Look up ``indices`` (any integer array) → shape ``indices.shape + (D,)``."""
        return embedding_lookup(self.weight, np.asarray(indices))

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class EmbeddingBag(Module):
    """Mean-pooled embedding of variable-length id lists.

    Used for multi-valued categorical features (e.g. a user's preferred
    categories).  Input is a padded integer matrix plus a validity mask.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.embedding = Embedding(num_embeddings, embedding_dim, rng=rng)
        self.embedding_dim = embedding_dim

    def forward(self, indices: np.ndarray, mask: np.ndarray) -> Tensor:
        """Mean-pool embeddings of valid positions.

        Parameters
        ----------
        indices:
            Integer array of shape ``(batch, max_len)``.
        mask:
            Float/bool array of the same shape; 1 marks a valid id.
        """
        indices = np.asarray(indices)
        mask = np.asarray(mask, dtype=self.embedding.weight.data.dtype)
        if indices.shape != mask.shape:
            raise ValueError(
                f"indices shape {indices.shape} and mask shape {mask.shape} differ"
            )
        vectors = self.embedding(indices)  # (batch, max_len, dim)
        masked = vectors * Tensor(mask[..., None])
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        return masked.sum(axis=1) * Tensor(1.0 / counts)


class FeatureEmbeddings(Module):
    """A bank of embedding tables, one per categorical feature.

    Produces the concatenation of each feature's embedding, in the order the
    features were declared — the standard "embedding layer" block of the
    paper's Figures 3–4.  With more than one feature the whole block is one
    fused tape node (:func:`repro.nn.tensor.fused_embedding_bag`): every
    table gathers straight into its column slice of one output buffer, and
    the backward hands each table a view of its gradient columns.

    Parameters
    ----------
    vocab_sizes:
        Mapping from feature name to vocabulary size.
    embedding_dims:
        Mapping from feature name to embedding dimension (the paper uses
        e.g. 16 for user id, 8 for occupation, 6 for item category).
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        vocab_sizes: Mapping[str, int],
        embedding_dims: Mapping[str, int],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if set(vocab_sizes) != set(embedding_dims):
            raise ValueError(
                "vocab_sizes and embedding_dims must cover the same features; "
                f"got {sorted(vocab_sizes)} vs {sorted(embedding_dims)}"
            )
        self.feature_names: List[str] = list(vocab_sizes)
        self._tables: Dict[str, Embedding] = {}
        for name in self.feature_names:
            table = Embedding(vocab_sizes[name], embedding_dims[name], rng=rng)
            self._tables[name] = table
            self.register_module(f"emb_{name}", table)

    @property
    def output_dim(self) -> int:
        """Total width of the concatenated embedding block."""
        return sum(self._tables[name].embedding_dim for name in self.feature_names)

    def table(self, name: str) -> Embedding:
        """Return the underlying table for one feature."""
        return self._tables[name]

    def forward(self, features: Mapping[str, np.ndarray]) -> Tensor:
        """Embed and concatenate the declared features.

        Parameters
        ----------
        features:
            Mapping from feature name to an integer id array of shape
            ``(batch,)``.  Extra keys are ignored; missing keys raise.
        """
        missing = [name for name in self.feature_names if name not in features]
        if missing:
            raise KeyError(f"missing categorical features: {missing}")
        if len(self.feature_names) == 1:
            name = self.feature_names[0]
            return self._tables[name](features[name])
        return fused_embedding_bag(
            [self._tables[name].weight for name in self.feature_names],
            [np.asarray(features[name]) for name in self.feature_names],
        )
