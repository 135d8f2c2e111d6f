"""Fully connected (dense) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x W + b``.

    Parameters
    ----------
    in_features:
        Size of each input sample.
    out_features:
        Size of each output sample.
    bias:
        Whether to learn an additive bias.
    rng:
        Generator for weight initialisation; a fresh default generator is
        used if omitted (discouraged for reproducible experiments).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature sizes must be positive, got {in_features}x{out_features}"
            )
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform(rng, (in_features, out_features)), name="weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected input with {self.in_features} features, "
                f"got shape {x.shape}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, "
            f"out_features={self.out_features}, bias={self.bias is not None})"
        )
