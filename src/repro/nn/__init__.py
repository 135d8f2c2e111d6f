"""A from-scratch neural-network library over numpy.

Provides the tensors, layers, losses and optimizers needed to implement the
ATNN paper without an external deep-learning framework.
"""

from repro.nn import init, layers, losses, optim
from repro.nn.gradcheck import check_gradients, numerical_gradient
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.sparse import SparseGrad
from repro.nn.tensor import (
    Tensor,
    concat,
    default_dtype,
    embedding_lookup,
    fused_cross,
    fused_embedding_bag,
    fused_mlp,
    get_active_sanitizer,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_active_sanitizer,
    set_default_dtype,
    stack,
)

__all__ = [
    "init",
    "layers",
    "losses",
    "optim",
    "fused_cross",
    "fused_embedding_bag",
    "fused_mlp",
    "check_gradients",
    "numerical_gradient",
    "Module",
    "ModuleList",
    "Parameter",
    "SparseGrad",
    "Tensor",
    "concat",
    "default_dtype",
    "embedding_lookup",
    "get_active_sanitizer",
    "get_default_dtype",
    "is_grad_enabled",
    "no_grad",
    "set_active_sanitizer",
    "set_default_dtype",
    "stack",
]
