"""Dtype-preserving numeric helpers for the model/serving layers.

The data-generation layer (:mod:`repro.data.synthetic.common`) works in
float64 on purpose — it produces ground truth.  The model layers must
not: they run under the engine's configurable default dtype, and the
effects analyzer (``EFF005``) flags any call that crosses into a
float64-promoting helper.  These variants keep the input's floating
dtype (non-float input is converted to the engine default).  Both
layers' ``sigmoid`` wrap the one dtype-preserving
:func:`~repro.data.synthetic.common.logistic` kernel.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic.common import logistic
from repro.nn.tensor import get_default_dtype

__all__ = ["sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, dtype-preserving."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(get_default_dtype())
    return logistic(x)
