"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate of the ATNN reproduction.  The
paper's system was implemented in TensorFlow; since the reproduction must be
self-contained, we provide a small but complete tape-based autograd engine.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
produced it.  Calling :meth:`Tensor.backward` walks the recorded graph in
reverse topological order and accumulates gradients into every tensor that
has ``requires_grad=True``.

The engine supports full numpy broadcasting: gradients flowing back through a
broadcast operation are summed over the broadcast axes so that each parent
receives a gradient with exactly its own shape.

Example
-------
>>> import numpy as np
>>> from repro.nn.tensor import Tensor
>>> w = Tensor(np.ones((2, 2)), requires_grad=True)
>>> x = Tensor(np.array([[1.0, 2.0]]))
>>> y = (x @ w).sum()
>>> y.backward()
>>> w.grad
array([[1., 1.],
       [2., 2.]])
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.sparse import SparseGrad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
    "set_active_sanitizer",
    "get_active_sanitizer",
]

ArrayLike = Union[np.ndarray, float, int, list, tuple]

# Global autograd switch, toggled by the ``no_grad`` context manager.  When
# disabled, operations still compute values but record no graph, which makes
# inference-time scoring allocation-free apart from the numpy work itself.
_GRAD_ENABLED = True

# Active runtime sanitizer (``repro.analysis.sanitizer.GradSanitizer``) or
# None.  The engine consults it only at the in-place gradient-accumulation
# sites; a single ``is not None`` branch keeps the disabled cost at zero.
_SANITIZER = None


def set_active_sanitizer(sanitizer) -> None:
    """Install (or clear, with ``None``) the engine's runtime sanitizer."""
    global _SANITIZER
    _SANITIZER = sanitizer


def get_active_sanitizer():
    """The currently installed runtime sanitizer, or ``None``."""
    return _SANITIZER


class no_grad:
    """Context manager that disables graph recording.

    Used by the trainers for evaluation passes and by the popularity service
    for O(1) scoring where no gradients are ever needed.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


# Engine-wide compute dtype.  float64 is the historical default (exact
# gradchecks); float32 halves memory traffic on every hot path and is the
# production training mode — see ``docs/performance.md`` for the tolerance
# implications.
_DEFAULT_DTYPE = np.dtype(np.float64)

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype) -> np.dtype:
    """Set the dtype new tensors are created with; returns the previous one.

    Only ``float32`` and ``float64`` are supported.  Existing tensors keep
    their dtype — convert models with :meth:`repro.nn.Module.to_dtype`.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {dtype!r}"
        )
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with."""
    return _DEFAULT_DTYPE


class default_dtype:
    """Context manager scoping :func:`set_default_dtype`.

    >>> with default_dtype(np.float32):
    ...     assert Tensor([1.0]).dtype == np.float32
    """

    def __init__(self, dtype) -> None:
        self._dtype = dtype

    def __enter__(self) -> "default_dtype":
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        set_default_dtype(self._previous)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a float numpy array without copying when possible."""
    if dtype is None:
        dtype = _DEFAULT_DTYPE
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    numpy broadcasting may have expanded a parent tensor along leading axes
    or along axes of size one; the chain rule requires summing the incoming
    gradient over those expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    squeeze_axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array content; anything accepted by ``numpy.asarray``.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional human-readable label used in error messages and repr.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "_backward_fn",
        "_parents",
        "_version",
        "_taint",
        "_owns_grads",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        # Mutation counter for ``data``.  Every engine-sanctioned in-place
        # write (optimizer updates, ``assign_``, ``load_state_dict``,
        # ``to_dtype``) bumps it; the runtime sanitizer records the version
        # of every buffer saved for backward and raises if it changed by
        # the time the gradient function runs.  Counters are per-Tensor:
        # mutating shared storage through another Tensor (``detach`` shares
        # data) is only caught by the sanitizer's deep content checks.
        self._version: int = 0
        # Non-finite taint record (set by the sanitizer's opt-in NaN/Inf
        # tracking); names the op that first produced a non-finite value.
        self._taint = None
        # Set by ``_make`` for ops whose backward returns only freshly
        # allocated buffers (never views of the incoming gradient): those
        # parent gradients may be adopted and mutated without the
        # defensive copy in ``_accumulate``/``backward``.
        self._owns_grads = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    @property
    def version(self) -> int:
        """Number of sanctioned in-place mutations of :attr:`data` so far."""
        return self._version

    def bump_version(self) -> None:
        """Record that :attr:`data` was mutated (or rebound) in place.

        Every engine code path that writes to a tensor's storage outside
        the op tape must call this so the runtime sanitizer can detect
        stale saved-for-backward buffers.
        """
        self._version += 1

    @property
    def taint(self):
        """Non-finite taint record attached by the sanitizer, or ``None``."""
        return self._taint

    def assign_(self, value: ArrayLike) -> "Tensor":
        """Sanctioned in-place overwrite of :attr:`data` (version-tracked).

        The supported way for model code to rewrite a weight buffer
        (e.g. bias initialisation) without tripping the
        ``tensor-data-mutation`` lint rule or the runtime sanitizer's
        out-of-band-write detection.
        """
        self.data[...] = value
        self._version += 1
        return self

    def detach(self) -> "Tensor":
        """Return a tensor sharing the data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        owns_grads: bool = False,
    ) -> "Tensor":
        """Create an op output, recording the graph only when needed.

        ``owns_grads`` declares that ``backward_fn`` returns only freshly
        allocated dense buffers (no views of the incoming gradient, no two
        outputs aliasing each other), so the engine may adopt them as
        accumulation buffers and mutate them in place.
        """
        needs_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            out._owns_grads = owns_grads
        return out

    def _accumulate(self, grad, owned: bool = False) -> None:
        """Add ``grad`` (dense or :class:`SparseGrad`) into this tensor's buffer.

        ``owned`` marks a dense buffer freshly allocated by the backward
        pass with no other referents, which may be adopted without the
        defensive copy (backward functions are allowed to return views of
        their incoming gradient, so non-owned buffers must be copied).
        Sparse gradients are always freshly built by their producers and
        are adopted directly.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if isinstance(grad, SparseGrad) or owned:
                self.grad = grad
            else:
                buffer = np.empty(grad.shape, dtype=grad.dtype)
                np.copyto(buffer, grad)
                self.grad = buffer
        elif isinstance(self.grad, SparseGrad):
            if isinstance(grad, SparseGrad):
                self.grad = self.grad.merge(grad)
            else:
                self.grad = self.grad + grad  # densifies
        elif isinstance(grad, SparseGrad):
            if _SANITIZER is not None:
                _SANITIZER.check_inplace_accumulate(self.grad, grad, self)
            grad.add_into(self.grad)
        else:
            if _SANITIZER is not None:
                _SANITIZER.check_inplace_accumulate(self.grad, grad, self)
            self.grad += grad

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones, which is only appropriate for scalars.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor; got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order = self._topological_order()
        grads = {id(self): grad}
        # Keys whose buffer was allocated by this pass (merge results): those
        # may be mutated in place and handed to ``_accumulate`` without the
        # defensive copy.  Buffers returned by backward functions may alias
        # op internals and are never mutated.
        owned = set()
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            node_owned = id(node) in owned
            owned.discard(id(node))
            node._accumulate(node_grad, owned=node_owned)
            if node._backward_fn is None:
                continue
            if isinstance(node_grad, SparseGrad):
                # Only leaf parameters receive sparse grads in practice;
                # densify for the rare case of a non-leaf consumer.
                node_grad = node_grad.to_dense()
            parent_grads = node._backward_fn(node_grad)
            node_owns = node._owns_grads
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key not in grads:
                    grads[key] = parent_grad
                    if node_owns and not isinstance(parent_grad, SparseGrad):
                        owned.add(key)
                    continue
                current = grads[key]
                current_sparse = isinstance(current, SparseGrad)
                incoming_sparse = isinstance(parent_grad, SparseGrad)
                if key in owned and not current_sparse and not incoming_sparse:
                    if _SANITIZER is not None:
                        _SANITIZER.check_inplace_accumulate(current, parent_grad, parent)
                    current += parent_grad  # reuse the merge buffer
                elif key in owned and not current_sparse and incoming_sparse:
                    if _SANITIZER is not None:
                        _SANITIZER.check_inplace_accumulate(current, parent_grad, parent)
                    parent_grad.add_into(current)
                elif current_sparse and incoming_sparse:
                    grads[key] = current.merge(parent_grad)
                    owned.add(key)
                elif incoming_sparse:
                    # Unowned dense + sparse: copy the dense buffer once and
                    # scatter the rows in (never densify the sparse side).
                    buffer = np.empty(current.shape, dtype=current.dtype)
                    np.copyto(buffer, current)
                    parent_grad.add_into(buffer)
                    grads[key] = buffer
                    owned.add(key)
                else:
                    # sparse + dense, or unowned dense + dense: both allocate
                    # a fresh buffer we then own.
                    if (
                        not current_sparse
                        and current.shape == parent_grad.shape
                        and current.dtype == parent_grad.dtype
                    ):
                        merged = np.empty(current.shape, dtype=current.dtype)
                        np.add(current, parent_grad, out=merged)
                        grads[key] = merged
                    else:
                        grads[key] = current + parent_grad
                    owned.add(key)

    def _topological_order(self) -> List["Tensor"]:
        """Nodes reachable from ``self`` in reverse topological order.

        Nothing is cached on the output: a list holding the output would
        make each step's whole graph, activations and all, a reference
        cycle that only the cyclic collector frees.
        """
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape))

        return Tensor._make(a.data - b.data, (a, b), backward)

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * b.data, a.shape),
                _unbroadcast(grad * a.data, b.shape),
            )

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / b.data, a.shape),
                _unbroadcast(-grad * a.data / (b.data * b.data), b.shape),
            )

        return Tensor._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-a.data, (a,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self
        value = a.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * a.data ** (exponent - 1),)

        return Tensor._make(value, (a,), backward)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {a.shape} @ {b.shape}"
            )

        def backward(grad: np.ndarray):
            return (grad @ b.data.T, a.data.T @ grad)

        # Both parent grads are fresh matmul outputs: the engine may adopt
        # them as accumulation buffers without the defensive copy.
        return Tensor._make(a.data @ b.data, (a, b), backward, owns_grads=True)

    def transpose(self) -> "Tensor":
        """Transpose of a 2-D tensor."""
        a = self
        if a.ndim != 2:
            raise ValueError(f"transpose expects a 2-D tensor, got {a.shape}")

        def backward(grad: np.ndarray):
            return (grad.T,)

        return Tensor._make(a.data.T, (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    def __getitem__(self, index) -> "Tensor":
        a = self
        value = a.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros(a.data.shape, dtype=a.data.dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(value, (a,), backward, owns_grads=True)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        a = self
        value = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(ax % a.ndim for ax in axes):
                    g = np.expand_dims(g, ax)
            buffer = np.empty(a.shape, dtype=grad.dtype)
            np.copyto(buffer, g)  # copyto broadcasts g across a.shape
            return (buffer,)

        return Tensor._make(value, (a,), backward, owns_grads=True)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; gradient flows to the (first) argmax entries."""
        a = self
        value = a.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            g = grad
            expanded = value
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(value, axis)
            mask = a.data == expanded
            # Split the gradient across ties to keep the map well-defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (mask * g / counts,)

        return Tensor._make(value, (a,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([a.shape[ax % a.ndim] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        value = np.exp(a.data)

        def backward(grad: np.ndarray):
            return (grad * value,)

        return Tensor._make(value, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(grad: np.ndarray):
            return (grad / a.data,)

        return Tensor._make(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        a = self
        value = np.sqrt(a.data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / value,)

        return Tensor._make(value, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        value = np.tanh(a.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - value * value),)

        return Tensor._make(value, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        # Numerically stable split over sign.
        x = a.data
        value = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                         np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))

        def backward(grad: np.ndarray):
            return (grad * value * (1.0 - value),)

        return Tensor._make(value, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def backward(grad: np.ndarray):
            buffer = np.empty(grad.shape, dtype=grad.dtype)
            np.multiply(grad, mask, out=buffer)
            return (buffer,)

        return Tensor._make(a.data * mask, (a,), backward, owns_grads=True)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        a = self
        mask = a.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward(grad: np.ndarray):
            return (grad * scale,)

        return Tensor._make(a.data * scale, (a,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        a = self
        mask = (a.data > low) & (a.data < high)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._make(np.clip(a.data, low, high), (a,), backward)

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)

        def backward(grad: np.ndarray):
            return (grad * sign,)

        return Tensor._make(np.abs(a.data), (a,), backward)

    # ------------------------------------------------------------------
    # Multi-tensor ops
    # ------------------------------------------------------------------
    # These live on the class (the module-level functions below delegate)
    # so that all call sites dispatch through one patchable point — the
    # autograd profiler in ``repro.obs`` instruments ops by wrapping the
    # class attributes, which also reaches modules that imported the
    # functions by value.
    @staticmethod
    def _concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = list(tensors)
        if not tensors:
            raise ValueError("concat expects at least one tensor")
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad: np.ndarray):
            return tuple(np.split(grad, splits, axis=axis))

        return Tensor._make(data, tensors, backward)

    @staticmethod
    def _stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        if not tensors:
            raise ValueError("stack expects at least one tensor")
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray):
            parts = np.split(grad, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in parts)

        return Tensor._make(data, tensors, backward)

    @staticmethod
    def _embedding_lookup(weight: "Tensor", indices: np.ndarray) -> "Tensor":
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        if weight.ndim != 2:
            raise ValueError(f"embedding weight must be 2-D, got {weight.shape}")
        _check_embedding_bounds([weight], [indices])
        value = weight.data[indices]

        def backward(grad: np.ndarray):
            dim = weight.data.shape[1]
            rows = grad.reshape(-1, dim)
            return (SparseGrad.from_rows(indices, rows, weight.data.shape),)

        return Tensor._make(value, (weight,), backward)

    # ------------------------------------------------------------------
    # Fused ops
    # ------------------------------------------------------------------
    # Each fused op collapses a multi-node subgraph into a single tape
    # node: one forward kernel over preallocated storage and one backward
    # closure, eliminating the python-level dispatch, intermediate Tensor
    # wrappers and per-node gradient buffers of the equivalent op chain.
    # They are the implementation of ``MLP``, ``CrossLayer``,
    # ``FeatureEmbeddings`` and ``binary_cross_entropy_with_logits``.
    @staticmethod
    def _fused_cross(
        x0: "Tensor", x: "Tensor", weight: "Tensor", bias: "Tensor"
    ) -> "Tensor":
        """DCN cross layer ``x0 * (x @ w) + b + x`` as one node.

        The unfused chain records four nodes (matmul, mul, two adds) and
        five gradient buffers; the fused op records one node and reuses
        the row-sum projection for all four parent gradients.  ``x0`` and
        ``x`` may be the same tensor (first layer of a cross network) —
        the engine merges the two gradient contributions by identity.
        """
        if x.ndim != 2 or weight.ndim != 2 or weight.shape[1] != 1:
            raise ValueError(
                f"fused_cross expects x (batch, d) and weight (d, 1), got "
                f"{x.shape} and {weight.shape}"
            )
        proj = x.data @ weight.data  # (batch, 1)
        value = x0.data * proj
        value += bias.data
        value += x.data

        def backward(grad: np.ndarray):
            # s = rowsum(grad * x0): the only reduction the whole layer
            # needs; feeds grad_x, grad_w directly.
            scratch = np.empty(grad.shape, dtype=grad.dtype)
            np.multiply(grad, x0.data, out=scratch)
            s = scratch.sum(axis=1, keepdims=True)  # (batch, 1)
            grad_x0 = np.empty(grad.shape, dtype=grad.dtype)
            np.multiply(grad, proj, out=grad_x0)
            grad_x = np.empty(grad.shape, dtype=grad.dtype)
            np.multiply(s, weight.data.T, out=grad_x)
            grad_x += grad
            grad_w = x.data.T @ s
            grad_b = grad.sum(axis=0)
            return (grad_x0, grad_x, grad_w, grad_b)

        return Tensor._make(value, (x0, x, weight, bias), backward, owns_grads=True)

    @staticmethod
    def _fused_mlp(
        x: "Tensor",
        layers: Sequence[Tuple["Tensor", Optional["Tensor"], bool]],
    ) -> "Tensor":
        """A whole Linear/ReLU stack as one tape node.

        ``layers`` is a sequence of ``(weight, bias_or_None, relu)``
        triples.  Forward runs the stack over in-place bias/ReLU kernels,
        saving only the per-layer outputs; backward replays the chain in
        reverse inside a single closure, so an L-layer MLP costs one
        python-level graph node instead of ~3L.
        """
        layers = [tuple(spec) for spec in layers]
        if not layers:
            raise ValueError("fused_mlp expects at least one layer")
        hidden = x.data
        saved = [hidden]
        for weight, bias_t, activate in layers:
            out = hidden @ weight.data
            if bias_t is not None:
                out += bias_t.data
            if activate:
                np.maximum(out, 0.0, out=out)
            hidden = out
            saved.append(hidden)
        parents: List["Tensor"] = [x]
        for weight, bias_t, _ in layers:
            parents.append(weight)
            if bias_t is not None:
                parents.append(bias_t)

        def backward(grad: np.ndarray):
            per_layer: List[Tuple[np.ndarray, ...]] = []
            g = grad
            for i in range(len(layers) - 1, -1, -1):
                weight, bias_t, activate = layers[i]
                if activate:
                    mask = np.empty(saved[i + 1].shape, dtype=np.bool_)
                    np.greater(saved[i + 1], 0.0, out=mask)
                    masked = np.empty(g.shape, dtype=g.dtype)
                    np.multiply(g, mask, out=masked)
                    g = masked
                grad_w = saved[i].T @ g
                if bias_t is not None:
                    per_layer.append((grad_w, g.sum(axis=0)))
                else:
                    per_layer.append((grad_w,))
                g = g @ weight.data.T
            flat: List[np.ndarray] = [g]
            for grads in reversed(per_layer):
                flat.extend(grads)
            return tuple(flat)

        return Tensor._make(saved[-1], tuple(parents), backward, owns_grads=True)

    @staticmethod
    def _fused_bce_logits(logits: "Tensor", targets: np.ndarray) -> "Tensor":
        """Mean stable BCE ``mean(max(z,0) - z*y + log(1+exp(-|z|)))`` fused.

        The unfused loss records ~9 tape nodes over batch-sized
        intermediates (relu, mul, abs, neg, exp, add, log, sub, mean);
        fused it is one node whose forward applies the identical
        elementwise sequence (so the loss *value* is bit-identical to the
        composed chain) and whose backward evaluates the closed form
        ``(step(z) - y - sign(z)*e/(1+e)) / N`` in one pass —
        algebraically ``sigmoid(z) - y``, expressed through the same
        subgradient conventions (``relu'(0) = 0``, ``sign(0) = 0``) as
        the unfused graph.
        """
        z = logits.data
        if targets.shape != z.shape:
            raise ValueError(
                f"targets shape {targets.shape} does not match logits {z.shape}"
            )
        exp_neg_abs = np.exp(-np.abs(z))
        elementwise = np.maximum(z, 0.0)
        elementwise -= z * targets
        elementwise += np.log(1.0 + exp_neg_abs)
        value = elementwise.mean()
        inverse_n = 1.0 / max(z.size, 1)

        def backward(grad: np.ndarray):
            grad_z = np.empty(z.shape, dtype=z.dtype)
            np.greater(z, 0.0, out=grad_z)  # step(z) as 0/1 floats
            grad_z -= targets
            ratio = np.empty(z.shape, dtype=z.dtype)
            np.sign(z, out=ratio)
            ratio *= exp_neg_abs
            denominator = np.empty(z.shape, dtype=z.dtype)
            np.add(exp_neg_abs, 1.0, out=denominator)
            ratio /= denominator
            grad_z -= ratio
            grad_z *= grad * inverse_n
            return (grad_z,)

        return Tensor._make(value, (logits,), backward, owns_grads=True)

    @staticmethod
    def _fused_embedding_bag(
        weights: Sequence["Tensor"], indices_list: Sequence[np.ndarray]
    ) -> "Tensor":
        """Concatenated per-feature embedding lookups as one tape node.

        The unfused embedding block records one lookup node per table plus
        a concat node, and its backward splits the gradient into per-table
        copies before building each :class:`SparseGrad`.  Fused, the
        forward gathers every table directly into column slices of one
        output buffer and the backward hands each table a *view* of its
        gradient columns — ``SparseGrad`` compaction does the only copy.
        Tables may be shared between features (ATNN's generator/encoder
        share item-profile tables); the engine merges the duplicate
        parents' sparse gradients by identity.
        """
        weights = list(weights)
        indices_list = [np.asarray(ix) for ix in indices_list]
        if not weights or len(weights) != len(indices_list):
            raise ValueError(
                f"fused_embedding_bag expects matched non-empty weights and "
                f"indices, got {len(weights)} and {len(indices_list)}"
            )
        batch = indices_list[0].shape[0] if indices_list[0].ndim == 1 else -1
        for weight, indices in zip(weights, indices_list):
            if indices.dtype.kind not in "iu":
                raise TypeError(
                    f"embedding indices must be integers, got {indices.dtype}"
                )
            if indices.ndim != 1 or indices.shape[0] != batch:
                raise ValueError(
                    "fused_embedding_bag expects aligned 1-D index arrays, "
                    f"got shapes {[ix.shape for ix in indices_list]}"
                )
            if weight.ndim != 2:
                raise ValueError(
                    f"embedding weight must be 2-D, got {weight.shape}"
                )
        _check_embedding_bounds(weights, indices_list)
        dims = [weight.shape[1] for weight in weights]
        splits = []
        offset = 0
        for dim in dims:
            splits.append((offset, offset + dim))
            offset += dim
        value = np.empty((batch, offset), dtype=weights[0].data.dtype)
        for weight, indices, (lo, hi) in zip(weights, indices_list, splits):
            np.take(weight.data, indices, axis=0, out=value[:, lo:hi], mode="clip")

        def backward(grad: np.ndarray):
            return tuple(
                SparseGrad.from_rows(indices, grad[:, lo:hi], weight.data.shape)
                for weight, indices, (lo, hi) in zip(weights, indices_list, splits)
            )

        return Tensor._make(value, tuple(weights), backward, owns_grads=True)


def _check_embedding_bounds(
    weights: Sequence[Tensor], indices_list: Sequence[np.ndarray]
) -> None:
    """Raise ``IndexError`` unless every index is in ``[0, vocab)`` of its table.

    One vectorised pass over all tables: cast to ``uint64``, a negative
    index wraps past any vocabulary size, so a single ``>=`` against each
    table's size catches both ends.  The index arrays must share a shape.
    The min/max for the message are computed only when the check fails.
    """
    stacked = np.stack(indices_list, dtype=np.uint64, casting="unsafe")
    vocabs = np.array([weight.shape[0] for weight in weights], dtype=np.uint64)
    if not (stacked >= vocabs.reshape((-1,) + (1,) * (stacked.ndim - 1))).any():
        return
    for weight, indices in zip(weights, indices_list):
        vocab = weight.shape[0]
        if indices.min() < 0 or indices.max() >= vocab:
            raise IndexError(
                f"embedding index out of range [0, {vocab}): "
                f"min={indices.min()}, max={indices.max()}"
            )


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    return Tensor._concat(tensors, axis=axis)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    return Tensor._stack(tensors, axis=axis)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by integer ``indices``.

    The backward pass emits a row-sparse :class:`~repro.nn.sparse.SparseGrad`
    carrying only the touched rows (repeated indices are segment-summed), so
    neither the gradient nor the optimizer update ever materialises the full
    ``num_embeddings x dim`` table.
    """
    return Tensor._embedding_lookup(weight, indices)


def fused_cross(x0: Tensor, x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """DCN cross layer ``x0 * (x @ w) + b + x`` as a single fused tape node."""
    return Tensor._fused_cross(x0, x, weight, bias)


def fused_mlp(
    x: Tensor, layers: Sequence[Tuple[Tensor, Optional[Tensor], bool]]
) -> Tensor:
    """A Linear/ReLU stack as a single fused tape node.

    ``layers`` is a sequence of ``(weight, bias_or_None, relu)`` triples.
    """
    return Tensor._fused_mlp(x, layers)


def fused_embedding_bag(
    weights: Sequence[Tensor], indices_list: Sequence[np.ndarray]
) -> Tensor:
    """Concatenated embedding lookups over several tables as one fused node."""
    return Tensor._fused_embedding_bag(weights, indices_list)
