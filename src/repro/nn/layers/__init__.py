"""Neural network layers built on the autograd engine."""

from repro.nn.layers.activation import (
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Tanh,
    get_activation,
)
from repro.nn.layers.cross import CrossLayer, CrossNetwork
from repro.nn.layers.dcn import DCN
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.embedding import Embedding, EmbeddingBag, FeatureEmbeddings
from repro.nn.layers.linear import Linear
from repro.nn.layers.mlp import MLP
from repro.nn.layers.normalization import BatchNorm1d, LayerNorm

__all__ = [
    "Identity",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "get_activation",
    "CrossLayer",
    "CrossNetwork",
    "DCN",
    "Dropout",
    "Embedding",
    "EmbeddingBag",
    "FeatureEmbeddings",
    "Linear",
    "MLP",
    "BatchNorm1d",
    "LayerNorm",
]
