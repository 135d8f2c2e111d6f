"""Deep & Cross Network block combining a cross network and a deep MLP.

The DCN block runs a :class:`~repro.nn.layers.cross.CrossNetwork` and a deep
MLP in parallel over the same input and concatenates their outputs, exactly
as in Wang et al. (ADKDD 2017) and as used by every encoder/generator tower
in the ATNN paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.layers.cross import CrossNetwork
from repro.nn.layers.mlp import MLP
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat

__all__ = ["DCN"]


class DCN(Module):
    """Parallel cross + deep block.

    Parameters
    ----------
    in_features:
        Input width (the concatenated embedding block).
    deep_dims:
        Widths of the deep MLP (the paper uses 512-256-128).
    num_cross_layers:
        Depth of the cross network; 0 reduces the block to a plain deep
        tower (the TNN-FC ablation uses that path via
        :class:`~repro.nn.layers.mlp.MLP` directly).
    dropout:
        Dropout inside the deep MLP.
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        deep_dims: Sequence[int],
        num_cross_layers: int = 2,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.cross = CrossNetwork(in_features, num_cross_layers, rng=rng)
        self.deep = MLP(in_features, deep_dims, dropout=dropout, rng=rng)
        self.out_features = in_features + self.deep.out_features

    def forward(self, x: Tensor) -> Tensor:
        cross_out = self.cross(x)
        deep_out = self.deep(x)
        return concat([cross_out, deep_out], axis=-1)
