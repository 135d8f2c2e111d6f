"""Adam optimizer (Kingma & Ba, 2015) with bias correction."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.optim.optimizer import Optimizer
from repro.nn.sparse import SparseGrad

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adaptive moment estimation — the workhorse optimizer of the repo.

    Parameters with row-sparse gradients (embedding tables) receive *lazy*
    updates: first/second moments and weights are updated only on the rows
    the batch touched, with bias correction driven by the per-parameter
    step counter.  This matches the dense update exactly for rows whose
    gradient was zero in every step so far (their moments are zero), and
    for rows touched on every step.  A row touched at step ``s`` and then
    skipped diverges from dense Adam, which would keep decaying its
    momentum and applying residual updates; lazy Adam freezes it instead —
    the standard trade-off (cf. TensorFlow's ``LazyAdam``) that makes
    large-vocabulary training tractable.  With ``weight_decay > 0`` the
    decay is likewise applied only to touched rows.

    Parameters
    ----------
    parameters:
        Parameters to optimise.
    lr:
        Learning rate.
    betas:
        Exponential decay rates for the first and second moment estimates.
    eps:
        Denominator fuzz factor.
    weight_decay:
        L2 penalty coefficient added to the gradient.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t: Dict[int, int] = {}

    _STATE_BUFFERS = ("_m", "_v", "_t")

    def _init_state(self, param: Parameter) -> None:
        key = id(param)
        if key not in self._m:
            self._m[key] = np.zeros_like(param.data)
            self._v[key] = np.zeros_like(param.data)
            self._t[key] = 0

    def _update(self, param: Parameter) -> None:
        if isinstance(param.grad, SparseGrad):
            self._update_sparse(param, param.grad)
            return
        grad = self._decayed_grad(param, self.weight_decay)
        key = id(param)
        self._init_state(param)
        m = self._m[key]
        v = self._v[key]
        self._t[key] += 1
        t = self._t[key]
        # In-place moment updates over explicit scratch: the dense sweep
        # is bandwidth-bound, so every full-size temporary matters.  The
        # operation order matches the naive expressions exactly (scalar
        # multiplies commuted, which is bit-exact).
        scratch = np.empty(grad.shape, dtype=grad.dtype)
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.multiply(grad, grad, out=scratch)
        scratch *= 1 - self.beta2
        v += scratch
        m_hat = np.empty(m.shape, dtype=m.dtype)
        np.divide(m, 1 - self.beta1 ** t, out=m_hat)
        v_hat = np.empty(v.shape, dtype=v.dtype)
        np.divide(v, 1 - self.beta2 ** t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat *= self.lr
        m_hat /= v_hat
        param.data -= m_hat
        param.bump_version()

    def _update_sparse(self, param: Parameter, grad: SparseGrad) -> None:
        """Lazy Adam: moments and weights advance only on touched rows."""
        compacted = grad.compact()
        idx, rows = compacted.indices, compacted.rows
        if idx.size == 0:
            return
        if self.weight_decay:
            decayed = np.empty(rows.shape, dtype=rows.dtype)
            np.take(param.data, idx, axis=0, out=decayed)
            decayed *= self.weight_decay
            decayed += rows
            rows = decayed
        key = id(param)
        self._init_state(param)
        self._t[key] += 1
        t = self._t[key]
        m = self._m[key]
        v = self._v[key]
        # Gather/scatter over explicit scratch (np.take with out= instead
        # of fancy-index copies); operation order is bit-identical to the
        # naive version, see _update.
        scratch = np.empty(rows.shape, dtype=rows.dtype)
        m_rows = np.empty(rows.shape, dtype=rows.dtype)
        np.take(m, idx, axis=0, out=m_rows)
        m_rows *= self.beta1
        np.multiply(rows, 1 - self.beta1, out=scratch)
        m_rows += scratch
        m[idx] = m_rows
        v_rows = np.empty(rows.shape, dtype=rows.dtype)
        np.take(v, idx, axis=0, out=v_rows)
        v_rows *= self.beta2
        np.multiply(rows, rows, out=scratch)
        scratch *= 1 - self.beta2
        v_rows += scratch
        v[idx] = v_rows
        np.divide(m_rows, 1 - self.beta1 ** t, out=scratch)  # m_hat
        v_hat = np.empty(rows.shape, dtype=rows.dtype)
        np.divide(v_rows, 1 - self.beta2 ** t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        scratch *= self.lr
        scratch /= v_hat
        param.data[idx] -= scratch
        param.bump_version()
