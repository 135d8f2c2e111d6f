"""Op-chain references for the fused layers, and the dense embedding backward.

``MLP``, ``CrossLayer`` and ``FeatureEmbeddings`` each run as one fused
tape node.  These helpers rebuild the same computations from elementary
autograd ops over the *same* parameters, so tests can check the fused
kernels value for value and gradient for gradient.

Embedding backwards emit row-sparse :class:`~repro.nn.sparse.SparseGrad`
gradients.  :func:`dense_embedding_lookup` is the same gather with the
plain dense scatter as its backward (a full ``num_embeddings x dim``
table, ``np.add.at``), the oracle the sparse path is checked against.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.nn import Tensor, concat, embedding_lookup
from repro.nn.layers import CrossLayer, CrossNetwork, FeatureEmbeddings, MLP


def mlp_chain(mlp: MLP, x: Tensor) -> Tensor:
    """The MLP as its Linear/activation/dropout layer chain."""
    for layer in mlp.layers:
        x = layer(x)
    return x


def cross_chain(layer: CrossLayer, x0: Tensor, x: Tensor) -> Tensor:
    """``x0 * (x @ w) + b + x`` as four tape nodes."""
    return x0 * (x @ layer.weight) + layer.bias + x


def cross_network_chain(network: CrossNetwork, x: Tensor) -> Tensor:
    out = x
    for layer in network.layers:
        out = cross_chain(layer, x, out)
    return out


def dense_embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """``weight[indices]`` whose backward scatters into a dense table."""
    indices = np.asarray(indices)

    def backward(grad: np.ndarray):
        full = np.zeros_like(weight.data)
        np.add.at(full, indices, grad)  # repro-lint: disable=ATN003 -- the dense scatter is the oracle the segment-sum kernel is checked against
        return (full,)

    return Tensor._make(weight.data[indices], (weight,), backward)


def embedding_bank_chain(
    bank: FeatureEmbeddings,
    features: Mapping[str, np.ndarray],
    lookup: Callable[[Tensor, np.ndarray], Tensor] = embedding_lookup,
) -> Tensor:
    """One ``lookup`` node per table, then a concat node."""
    parts = [
        lookup(bank.table(name).weight, np.asarray(features[name]))
        for name in bank.feature_names
    ]
    return parts[0] if len(parts) == 1 else concat(parts, axis=-1)


def bce_logits_chain(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Stable BCE-with-logits as the ~9-node elementwise chain."""
    y = Tensor(targets)
    return (
        logits.relu() - logits * y + (1.0 + (-logits.abs()).exp()).log()
    ).mean()
