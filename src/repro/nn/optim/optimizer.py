"""Optimizer base class."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter
from repro.nn.sparse import SparseGrad

__all__ = ["Optimizer"]


class Optimizer:
    """Base class for gradient-based optimizers.

    Parameters are deduplicated by identity at construction so a parameter
    shared between two towers (the ATNN shared-embedding trick) receives a
    single, correctly accumulated update per step.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        unique: Dict[int, Parameter] = {}
        for param in parameters:
            if not isinstance(param, Parameter):
                raise TypeError(
                    f"optimizer expects Parameter instances, got {type(param).__name__}"
                )
            unique.setdefault(id(param), param)
        self.parameters: List[Parameter] = list(unique.values())
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.step_count = 0
        # Reused scratch for weight decay (see _decayed_grad); deliberately
        # not part of the serialisable state.
        self._wd_buffers: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored."""
        self.step_count += 1
        for param in self.parameters:
            if param.grad is None:
                continue
            self._update(param)

    def _update(self, param: Parameter) -> None:
        raise NotImplementedError

    def _decayed_grad(self, param: Parameter, weight_decay: float) -> np.ndarray:
        """``param.grad + weight_decay * param.data`` without fresh allocations.

        Returns ``param.grad`` untouched when ``weight_decay`` is zero;
        otherwise writes into a per-parameter scratch buffer that is reused
        across steps (the naive expression allocates two full-size
        temporaries per parameter per step).
        """
        grad = param.grad
        if not weight_decay:
            return grad
        key = id(param)
        buffer = self._wd_buffers.get(key)
        if (
            buffer is None
            or buffer.shape != param.data.shape
            or buffer.dtype != param.data.dtype
        ):
            buffer = self._wd_buffers[key] = np.empty_like(param.data)
        np.multiply(param.data, weight_decay, out=buffer)
        buffer += grad
        return buffer

    # ------------------------------------------------------------------
    # State (de)serialization for resumable training
    # ------------------------------------------------------------------
    # Subclasses list their per-parameter buffer dicts here (each maps
    # id(param) -> ndarray or scalar).
    _STATE_BUFFERS: tuple = ()

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable optimizer state, keyed by parameter *position*.

        Positions refer to this optimizer's (deduplicated) parameter
        order, so the state can be restored into a freshly constructed
        optimizer over the same model.
        """
        buffers: Dict[str, Dict[int, Any]] = {}
        for name in self._STATE_BUFFERS:
            store = getattr(self, name)
            by_position = {}
            for position, param in enumerate(self.parameters):
                if id(param) in store:
                    value = store[id(param)]
                    by_position[position] = (
                        value.copy() if isinstance(value, np.ndarray) else value
                    )
            buffers[name] = by_position
        return {"lr": self.lr, "step_count": self.step_count, "buffers": buffers}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state produced by :meth:`state_dict`.

        Raises
        ------
        KeyError
            If a recorded buffer name does not exist on this optimizer.
        IndexError
            If a recorded position exceeds this optimizer's parameters.
        """
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])
        for name, by_position in state["buffers"].items():
            if name not in self._STATE_BUFFERS:
                raise KeyError(
                    f"optimizer has no state buffer {name!r}; "
                    f"expected one of {self._STATE_BUFFERS}"
                )
            store = getattr(self, name)
            store.clear()
            for position, value in by_position.items():
                position = int(position)
                if position >= len(self.parameters):
                    raise IndexError(
                        f"state refers to parameter #{position} but optimizer "
                        f"has {len(self.parameters)}"
                    )
                param = self.parameters[position]
                store[id(param)] = (
                    value.copy() if isinstance(value, np.ndarray) else value
                )

    # ------------------------------------------------------------------
    # Utilities shared by subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def clip_gradients(parameters: Iterable[Parameter], max_norm: float) -> float:
        """Scale gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm, useful for monitoring training
        stability of the adversarial game.  Row-sparse gradients contribute
        only their touched rows to the norm and are scaled in place without
        densifying.
        """
        params = [p for p in parameters if p.grad is not None]
        total = 0.0
        for p in params:
            grad = p.grad
            if isinstance(grad, SparseGrad):
                rows = grad.compact().rows
                total += float(np.einsum("ij,ij->", rows, rows))
            else:
                total += float((grad ** 2).sum())
        total = float(np.sqrt(total))
        if total > max_norm and total > 0:
            scale = max_norm / total
            for param in params:
                param.grad *= scale
        return total
