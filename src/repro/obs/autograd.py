"""Opt-in per-op profiling of the autograd engine.

The profiler instruments :class:`repro.nn.tensor.Tensor` by wrapping its
op methods *on the class*, so every call site in the codebase — including
modules that imported ``concat``/``stack``/``embedding_lookup`` by value
(they delegate to ``Tensor`` staticmethods) — reports without any change
to model code.  For each op it records:

* **forward**: call count and wall-clock seconds of the op call itself
  (inclusive: composite ops such as ``mean`` also tick their constituent
  ``sum``/``mul`` calls);
* **backward**: call count and seconds spent in the op's gradient
  function, captured by wrapping the ``_backward_fn`` recorded on the op
  output and therefore attributed to the op that created the node.

The hook is strictly opt-in: when no profiler is enabled the engine runs
the original unwrapped methods, so disabled telemetry costs nothing.
The patching is :class:`OpPatcher`, shared with the runtime sanitizer
and the graph checker's tracer, so any of them may be enabled together.

>>> from repro.obs import AutogradProfiler
>>> from repro.nn.tensor import Tensor
>>> with AutogradProfiler() as profiler:
...     loss = (Tensor([[1.0, 2.0]], requires_grad=True) * 3.0).sum()
...     loss.backward()
>>> profiler.report()["mul"].calls
1
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.nn.tensor import Tensor
from repro.obs.tracing import chrome_event, chrome_trace_json

__all__ = ["OpStats", "OpPatcher", "AutogradProfiler", "PROFILED_OPS"]

# Method name on Tensor -> human-readable op label.
PROFILED_OPS: Dict[str, str] = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__neg__": "neg",
    "__pow__": "pow",
    "__matmul__": "matmul",
    "transpose": "transpose",
    "reshape": "reshape",
    "__getitem__": "getitem",
    "sum": "sum",
    "max": "max",
    "mean": "mean",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "leaky_relu": "leaky_relu",
    "clip": "clip",
    "abs": "abs",
    "_concat": "concat",
    "_stack": "stack",
    "_embedding_lookup": "embedding_lookup",
    # Fused kernels: each subsumes a multi-node subgraph (the DCN towers'
    # MLP, cross and embedding blocks, and the BCE-with-logits loss).
    "_fused_cross": "fused_cross",
    "_fused_mlp": "fused_mlp",
    "_fused_embedding_bag": "fused_embedding_bag",
    "_fused_bce_logits": "fused_bce_logits",
}


@dataclass
class OpStats:
    """Accumulated forward/backward timing for one op."""

    op: str
    calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


# Tools whose wrappers are installed, in the order they were enabled, and
# the Tensor class entries they replaced (held while any tool is enabled).
_ENABLED_TOOLS: List["OpPatcher"] = []
_PRISTINE: Dict[str, object] = {}


def _reinstall() -> None:
    """Point every op at its pristine method wrapped by each enabled tool.

    The first tool enabled is innermost.  With no tool left the pristine
    entries go back by identity and are forgotten.
    """
    if not _PRISTINE:
        _PRISTINE.update((name, Tensor.__dict__[name]) for name in PROFILED_OPS)
    for name, original in _PRISTINE.items():
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        for tool in _ENABLED_TOOLS:
            fn = tool._wrap(PROFILED_OPS[name], fn)
        wrapped = staticmethod(fn) if static else fn
        setattr(Tensor, name, wrapped if _ENABLED_TOOLS else original)
    if not _ENABLED_TOOLS:
        _PRISTINE.clear()


def _tensor_args(args) -> List[Tensor]:
    """The tensors among an op's arguments, looking into nested lists and
    tuples (``_fused_mlp`` takes ``[(weight, bias, relu), ...]``)."""
    found: List[Tensor] = []
    for arg in args:
        if isinstance(arg, Tensor):
            found.append(arg)
        elif isinstance(arg, (list, tuple)):
            found.extend(_tensor_args(arg))
    return found


class OpPatcher:
    """A tool that wraps every ``PROFILED_OPS`` method while enabled.

    Subclasses supply ``_wrap(label, fn)``.  Tools stack, at most one
    instance of each class: every op runs through one wrapper per enabled
    tool, whatever order they are enabled and disabled in.
    """

    def _wrap(self, label: str, fn):
        raise NotImplementedError

    def enable(self):
        """Install this tool's wrappers; raises if another instance is on."""
        if self.enabled:
            return self
        if any(type(tool) is type(self) for tool in _ENABLED_TOOLS):
            raise RuntimeError(f"another {type(self).__name__} is already enabled")
        _ENABLED_TOOLS.append(self)
        _reinstall()
        return self

    def disable(self) -> None:
        """Remove this tool's wrappers (idempotent)."""
        if self.enabled:
            _ENABLED_TOOLS.remove(self)
            _reinstall()

    @property
    def enabled(self) -> bool:
        return self in _ENABLED_TOOLS

    def __enter__(self):
        return self.enable()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.disable()


class AutogradProfiler(OpPatcher):
    """Times every autograd op while enabled; context-manager friendly.

    With ``record_events=True`` the profiler additionally keeps a
    bounded list of individual op occurrences — ``(label, phase,
    absolute perf_counter start, duration)`` — exported by
    :meth:`to_chrome_trace` in the Chrome Trace Event Format.  Event
    recording is off by default because training loops produce millions
    of op calls; aggregated :class:`OpStats` are always collected.
    """

    def __init__(
        self, record_events: bool = False, max_events: int = 65536
    ) -> None:
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        self._stats: Dict[str, OpStats] = {}
        self.record_events = record_events
        self.max_events = max_events
        # (label, "forward"|"backward", absolute start, duration).
        self._events: List[Tuple[str, str, float, float]] = []
        self.dropped_events = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _op(self, label: str) -> OpStats:
        stats = self._stats.get(label)
        if stats is None:
            stats = self._stats[label] = OpStats(label)
        return stats

    def _record_event(self, label: str, phase: str, start: float, elapsed: float) -> None:
        if len(self._events) < self.max_events:
            self._events.append((label, phase, start, elapsed))
        else:
            self.dropped_events += 1

    def _record_forward(self, label: str, start: float, elapsed: float) -> None:
        stats = self._op(label)
        stats.calls += 1
        stats.forward_seconds += elapsed
        if self.record_events:
            self._record_event(label, "forward", start, elapsed)

    def _record_backward(self, label: str, start: float, elapsed: float) -> None:
        stats = self._op(label)
        stats.backward_calls += 1
        stats.backward_seconds += elapsed
        if self.record_events:
            self._record_event(label, "backward", start, elapsed)

    def reset(self) -> None:
        """Drop all accumulated statistics."""
        self._stats.clear()
        self._events.clear()
        self.dropped_events = 0

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrap(self, label: str, fn):
        profiler = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            profiler._record_forward(label, start, time.perf_counter() - start)
            if isinstance(out, Tensor) and out._backward_fn is not None:
                inner = out._backward_fn

                def timed_backward(grad):
                    backward_start = time.perf_counter()
                    result = inner(grad)
                    profiler._record_backward(
                        label, backward_start, time.perf_counter() - backward_start
                    )
                    return result

                out._backward_fn = timed_backward
            return out

        return wrapper

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, OpStats]:
        """Per-op statistics keyed by op label."""
        return dict(self._stats)

    def iter_records(self):
        """One JSON-friendly record per op, hottest (by total time) first."""
        ranked = sorted(
            self._stats.values(), key=lambda s: s.total_seconds, reverse=True
        )
        for stats in ranked:
            yield {
                "op": stats.op,
                "calls": stats.calls,
                "forward_seconds": stats.forward_seconds,
                "backward_calls": stats.backward_calls,
                "backward_seconds": stats.backward_seconds,
                "total_seconds": stats.total_seconds,
            }

    def chrome_trace_events(
        self, origin: Optional[float] = None, pid: int = 1, tid: int = 2
    ) -> List[Dict[str, object]]:
        """Recorded op occurrences as Trace Event Format ``"X"`` events.

        ``origin`` maps a perf_counter instant to ``ts=0`` (defaults to
        the earliest recorded start); pass a shared origin to align with
        a :class:`~repro.obs.tracing.Tracer`'s span events.
        """
        if not self._events:
            return []
        if origin is None:
            origin = self.earliest_event_start()
        return [
            chrome_event(
                f"{label}.{phase}", f"autograd.{phase}", start, elapsed,
                origin, tid, {"op": label, "phase": phase}, pid=pid,
            )
            for label, phase, start, elapsed in self._events
        ]

    def earliest_event_start(self) -> Optional[float]:
        """Earliest recorded perf_counter start (None without events)."""
        if not self._events:
            return None
        return min(start for _, _, start, _ in self._events)

    def to_chrome_trace(self) -> str:
        """The recorded events as a Chrome/Perfetto-loadable JSON string."""
        return chrome_trace_json(self.chrome_trace_events())

    def to_text(self) -> str:
        """Per-op breakdown table ordered by total time."""
        header = (
            f"{'op':<18}{'calls':>8}{'fwd_s':>12}{'bwd_calls':>11}{'bwd_s':>12}"
            f"{'total_s':>12}"
        )
        lines = [header, "-" * len(header)]
        for record in self.iter_records():
            lines.append(
                f"{record['op']:<18}{record['calls']:>8}"
                f"{record['forward_seconds']:>12.6f}{record['backward_calls']:>11}"
                f"{record['backward_seconds']:>12.6f}{record['total_seconds']:>12.6f}"
            )
        return "\n".join(lines)
