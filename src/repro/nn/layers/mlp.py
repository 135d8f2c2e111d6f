"""Multi-layer perceptron block."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.layers.activation import Identity, ReLU, get_activation
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.linear import Linear
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor, fused_mlp

__all__ = ["MLP"]


class MLP(Module):
    """A stack of fully connected layers with activations and dropout.

    This is the "deep" half of the DCN towers and the fully connected head
    the paper places after the cross network (256-256-256-128 in the ATNN
    configuration).

    A stack of ``Linear`` / (``ReLU`` | ``Identity``) pairs without dropout
    runs as one fused tape node (:func:`repro.nn.tensor.fused_mlp`), so an
    L-layer MLP records one graph node instead of ~3L.  Stacks the fused
    kernel cannot express (dropout, sigmoid/tanh/leaky-relu) run the
    layer chain.  Either way the parameters live on the ``layers``
    children, so ``state_dict`` paths do not depend on the path taken.

    Parameters
    ----------
    in_features:
        Input width.
    hidden_dims:
        Output width of every layer, in order.
    activation:
        Activation between layers (by name, see
        :func:`repro.nn.layers.activation.get_activation`).
    output_activation:
        Activation after the final layer; defaults to the same as
        ``activation``.  Pass ``"identity"`` for a linear output.
    dropout:
        Dropout probability applied after every activation (0 disables).
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        hidden_dims: Sequence[int],
        activation: str = "relu",
        output_activation: Optional[str] = None,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not hidden_dims:
            raise ValueError("hidden_dims must contain at least one layer width")
        self.in_features = in_features
        self.out_features = hidden_dims[-1]
        output_activation = output_activation or activation

        layers = ModuleList()
        widths = [in_features, *hidden_dims]
        fusable = dropout == 0.0
        triples = []
        for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            linear = Linear(fan_in, fan_out, rng=rng)
            layers.append(linear)
            is_last = index == len(hidden_dims) - 1
            act = get_activation(output_activation if is_last else activation)
            layers.append(act)
            if dropout > 0.0 and not is_last:
                layers.append(Dropout(dropout, rng=rng))
            fusable = fusable and isinstance(act, (ReLU, Identity))
            triples.append((linear.weight, linear.bias, isinstance(act, ReLU)))
        self.layers = layers
        # (weight, bias, relu) per layer for the fused kernel, or None for
        # the layer chain.  Parameters are updated in place (optimizers,
        # to_dtype, load_state_dict), so the triples never go stale.
        self._fused_layers = tuple(triples) if fusable else None

    def forward(self, x: Tensor) -> Tensor:
        if self._fused_layers is None:
            for layer in self.layers:
                x = layer(x)
            return x
        if x.ndim != 2 or x.shape[-1] != self.in_features:
            raise ValueError(
                f"MLP expected 2-D input with {self.in_features} features, "
                f"got shape {x.shape}"
            )
        return fused_mlp(x, self._fused_layers)
