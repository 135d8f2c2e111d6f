"""Cross network from Deep & Cross Network (Wang et al., ADKDD 2017).

Each cross layer computes::

    x_{l+1} = x_0 * (x_l · w_l) + b_l + x_l

which builds explicit bounded-degree feature interactions: after ``L`` layers
the network contains all cross terms of the input features up to degree
``L + 1``, at a parameter cost linear in the input width.  The ATNN paper
uses this block inside every tower to replace manual 2- and 3-level feature
engineering (item PV x seller PV x category PV style crosses).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor, fused_cross

__all__ = ["CrossLayer", "CrossNetwork"]


class CrossLayer(Module):
    """One explicit feature-crossing layer: ``x0 * (x · w) + b + x``.

    Runs as one fused tape node (:func:`repro.nn.tensor.fused_cross`)
    whose backward shares one row-sum projection across all four parent
    gradients.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if dim <= 0:
            raise ValueError(f"cross layer width must be positive, got {dim}")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        self.weight = Parameter(
            init.normal(rng, (dim, 1), std=1.0 / np.sqrt(dim)), name="cross_weight"
        )
        self.bias = Parameter(init.zeros((dim,)), name="cross_bias")

    def forward(self, x0: Tensor, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim or x0.shape[-1] != self.dim:
            raise ValueError(
                f"cross layer expected width {self.dim}, got x0={x0.shape}, x={x.shape}"
            )
        return fused_cross(x0, x, self.weight, self.bias)


class CrossNetwork(Module):
    """A stack of :class:`CrossLayer` sharing the original input ``x0``.

    Parameters
    ----------
    dim:
        Input (and output) width.
    num_layers:
        Number of cross layers; interactions up to degree ``num_layers + 1``.
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        dim: int,
        num_layers: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 0:
            raise ValueError(f"num_layers must be non-negative, got {num_layers}")
        self.dim = dim
        self.num_layers = num_layers
        self.layers = ModuleList(CrossLayer(dim, rng=rng) for _ in range(num_layers))

    def forward(self, x: Tensor) -> Tensor:
        x0 = x
        out = x
        for layer in self.layers:
            out = layer(x0, out)
        return out
