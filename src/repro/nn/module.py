"""Module and parameter abstractions for the autograd engine.

A :class:`Module` owns :class:`Parameter` tensors and child modules, mirrors
the familiar PyTorch/Keras layering discipline, and supports recursive
parameter collection, train/eval mode switching and state (de)serialization.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)

    def to_dtype(self, dtype) -> None:
        """Cast the data to ``dtype`` in place and clear the (stale) gradient."""
        if self.data.dtype != dtype:
            self.data = self.data.astype(dtype)
            self.bump_version()
        self.grad = None


class Module:
    """Base class for neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation, state
    saving and mode switching.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Attribute-based registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module (used for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively.

        A parameter object shared between two submodules (the paper's shared
        embedding trick) is yielded once per registration site; callers that
        need uniqueness should deduplicate by identity, as
        :meth:`parameters` does.
        """
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """Return the unique parameters of this module tree."""
        seen: Dict[int, Parameter] = {}
        for _, param in self.named_parameters():
            seen.setdefault(id(param), param)
        return list(seen.values())

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module tree."""
        return sum(p.size for p in self.parameters())

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, this module first.

        The root is yielded under ``prefix`` (empty by default), children
        under dotted paths — the naming used by the static graph checker
        to locate the module that recorded a faulty op.
        """
        yield prefix, self
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}.{child_name}" if prefix else child_name
            yield from child.named_modules(prefix=child_prefix)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place.

        Gradients are cleared (they would otherwise be stale in the old
        dtype).  Used by the trainers to enter their compute dtype;
        returns ``self`` for chaining.
        """
        dtype = np.dtype(dtype)
        for param in self.parameters():
            param.to_dtype(dtype)
        return self

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout etc.)."""
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of qualified names to weight arrays."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load weights produced by :meth:`state_dict`.

        Raises
        ------
        KeyError
            If a parameter is missing from ``state``.
        ValueError
            On any shape mismatch.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        if missing:
            raise KeyError(f"state dict is missing parameters: {missing}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.assign_(value)

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of submodules registered in order."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self.register_module(str(index), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


__all__.append("ModuleList")
