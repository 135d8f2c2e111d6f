"""Runtime autograd sanitizer: stale-buffer and non-finite detection.

The engine's performance work (sparse gradients, owned-buffer reuse, lazy
optimizer row updates) leans on a buffer discipline that is invisible at
the call site: arrays captured by backward closures must not change
between the forward op and its gradient function, and gradient
accumulation must never scatter a buffer into itself.  The
:class:`GradSanitizer` makes violations loud:

* **Saved-buffer versioning** — every ``Tensor`` carries a version
  counter bumped by each sanctioned in-place write (optimizer steps,
  ``assign_``, ``load_state_dict``, ``to_dtype``).  While the sanitizer
  is enabled, each recorded op remembers the versions of the tensors its
  backward closure captured; running ``backward`` after one of them was
  mutated raises a :class:`SanitizerError` naming the op and the tensor.
  ``check_content=True`` additionally fingerprints the saved arrays so
  *unsanctioned* writes (raw ``tensor.data[...] = ...`` that never bump
  the version) are caught too.
* **Aliased accumulation** — the engine consults the active sanitizer at
  its four in-place gradient-accumulation sites; a gradient that shares
  memory with its accumulation target raises immediately instead of
  silently double-counting.
* **Non-finite taint tracking** (``track_nonfinite=True``) — the first op
  whose output contains NaN/Inf from finite inputs is recorded on the
  output tensor's ``taint`` slot and propagated through downstream ops,
  so a NaN observed in the loss names the op (and shape/dtype) where it
  was born, not where it surfaced.

The sanitizer is strictly opt-in and patch-on-enable (it is an
:class:`repro.obs.autograd.OpPatcher`, like the autograd profiler, and
may be enabled together with it): when disabled the engine runs the
original methods and the only residual cost is the integer version bump
in the optimizers.  Enable it around a suspect training loop::

    from repro.analysis import GradSanitizer

    with GradSanitizer(track_nonfinite=True) as sanitizer:
        loss = model(batch)
        loss.backward()
    print(sanitizer.stats)
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic
from repro.nn.sparse import SparseGrad
from repro.nn.tensor import Tensor, get_active_sanitizer, set_active_sanitizer
from repro.obs.autograd import OpPatcher, _tensor_args
from repro.obs.logging import get_logger, kv
from repro.obs.context import current_telemetry

__all__ = ["GradSanitizer", "SanitizerError", "TaintRecord", "sanitizer_active"]

_logger = get_logger("analysis.sanitizer")


class SanitizerError(RuntimeError):
    """A buffer-discipline violation detected at runtime."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.format())
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class TaintRecord:
    """Provenance of the first non-finite value on a tensor's path."""

    op: str
    shape: Tuple[int, ...]
    dtype: str
    nonfinite_count: int

    def describe(self) -> str:
        return (
            f"non-finite values first produced by op {self.op!r} "
            f"(shape={self.shape}, dtype={self.dtype}, "
            f"count={self.nonfinite_count})"
        )


def sanitizer_active() -> bool:
    """Whether a :class:`GradSanitizer` is currently installed."""
    return get_active_sanitizer() is not None


def _fingerprint(array: np.ndarray) -> int:
    """Cheap content hash of an array (deep-check mode only)."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


class GradSanitizer(OpPatcher):
    """Opt-in runtime checks over the autograd engine.

    Parameters
    ----------
    track_nonfinite:
        Scan every op output for NaN/Inf and attach taint provenance.
    check_content:
        Fingerprint saved-for-backward arrays so mutations that bypass
        the version counter (raw ``.data`` writes) are detected.  This is
        the deep mode: it hashes every saved buffer once at op-record
        time and once at backward time.
    raise_on_nonfinite:
        Escalate the first non-finite detection from a recorded warning
        to a :class:`SanitizerError`.
    """

    def __init__(
        self,
        track_nonfinite: bool = False,
        check_content: bool = False,
        raise_on_nonfinite: bool = False,
    ) -> None:
        self.track_nonfinite = bool(track_nonfinite)
        self.check_content = bool(check_content)
        self.raise_on_nonfinite = bool(raise_on_nonfinite)
        self.diagnostics: List[Diagnostic] = []
        self.stats: Dict[str, int] = {
            "forward_ops": 0,
            "backward_checks": 0,
            "accumulate_checks": 0,
            "stale_buffers": 0,
            "unsanctioned_mutations": 0,
            "aliased_accumulations": 0,
            "nonfinite_ops": 0,
        }
        self._reported_nonfinite_ops: Set[str] = set()

    # ------------------------------------------------------------------
    # Reporting plumbing
    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        self.stats[key] += 1
        registry = current_telemetry().registry
        if registry is not None:
            registry.counter(
                f"analysis.sanitizer.{key}",
                help="GradSanitizer event total",
            ).inc()

    def _record(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)
        _logger.warning(
            kv(
                "sanitizer finding",
                code=diagnostic.code,
                location=diagnostic.location,
            )
        )

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def check_inplace_accumulate(self, dest, incoming, tensor: Tensor) -> None:
        """Called by the engine before each in-place gradient accumulation.

        ``dest`` is the dense buffer about to be mutated; ``incoming`` is
        the dense array or :class:`SparseGrad` about to be added into it.
        Overlapping storage means the scatter/add would read values it has
        already rewritten — silent corruption — so it raises.
        """
        self.stats["accumulate_checks"] += 1
        buffer = incoming.rows if isinstance(incoming, SparseGrad) else incoming
        if buffer is not None and np.may_share_memory(dest, buffer):
            self._count("aliased_accumulations")
            diagnostic = Diagnostic.make(
                "aliased-grad-accumulation",
                ERROR,
                "incoming gradient shares memory with its accumulation "
                "target; in-place add would corrupt both",
                location=tensor.name or f"tensor(shape={tensor.shape})",
                dest_shape=dest.shape,
                incoming_type=type(incoming).__name__,
            )
            self._record(diagnostic)
            raise SanitizerError(diagnostic)

    # ------------------------------------------------------------------
    # Saved-buffer verification
    # ------------------------------------------------------------------
    def _snapshot(self, out: Tensor) -> List[Tuple[Tensor, int, Optional[int]]]:
        """Record (tensor, version, fingerprint) per saved buffer.

        Backward closures capture their parents' ``data`` and, for ops
        like ``exp``/``sigmoid``, the output's own ``data`` — both sets
        must stay untouched until the gradient function runs.
        """
        tracked = list(out._parents) + [out]
        return [
            (
                tensor,
                tensor._version,
                _fingerprint(tensor.data) if self.check_content else None,
            )
            for tensor in tracked
        ]

    def _verify(self, label: str, snapshot) -> None:
        self.stats["backward_checks"] += 1
        for tensor, version, fp in snapshot:
            where = tensor.name or f"tensor(shape={tensor.shape})"
            if tensor._version != version:
                self._count("stale_buffers")
                diagnostic = Diagnostic.make(
                    "stale-saved-buffer",
                    ERROR,
                    f"buffer saved for backward of op {label!r} was mutated "
                    "in place before the gradient ran (run backward before "
                    "optimizer/assign_ updates, or detach first)",
                    location=where,
                    op=label,
                    saved_version=version,
                    current_version=tensor._version,
                )
                self._record(diagnostic)
                raise SanitizerError(diagnostic)
            if fp is not None and _fingerprint(tensor.data) != fp:
                self._count("unsanctioned_mutations")
                diagnostic = Diagnostic.make(
                    "unsanctioned-mutation",
                    ERROR,
                    f"buffer saved for backward of op {label!r} changed "
                    "content without a version bump — a raw .data write "
                    "bypassed the engine's sanctioned mutation channels",
                    location=where,
                    op=label,
                )
                self._record(diagnostic)
                raise SanitizerError(diagnostic)

    # ------------------------------------------------------------------
    # Non-finite taint tracking
    # ------------------------------------------------------------------
    def _check_nonfinite(self, label: str, args, out: Tensor) -> None:
        # Inherit taint from any input first: downstream ops report the
        # original source, not themselves.
        for tensor in _tensor_args(args):
            if tensor._taint is not None:
                out._taint = tensor._taint
                return
        data = out.data
        if data.dtype.kind != "f":
            return
        finite = np.isfinite(data)
        if finite.all():
            return
        taint = TaintRecord(
            op=label,
            shape=tuple(data.shape),
            dtype=str(data.dtype),
            nonfinite_count=int(data.size - np.count_nonzero(finite)),
        )
        out._taint = taint
        if label not in self._reported_nonfinite_ops:
            self._reported_nonfinite_ops.add(label)
            self._count("nonfinite_ops")
            diagnostic = Diagnostic.make(
                "nonfinite",
                ERROR if self.raise_on_nonfinite else WARNING,
                taint.describe(),
                location=label,
                shape=taint.shape,
                dtype=taint.dtype,
            )
            self._record(diagnostic)
            if self.raise_on_nonfinite:
                raise SanitizerError(diagnostic)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrap(self, label: str, fn):
        sanitizer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sanitizer.stats["forward_ops"] += 1
            if isinstance(out, Tensor):
                if sanitizer.track_nonfinite:
                    sanitizer._check_nonfinite(label, args, out)
                if out._backward_fn is not None:
                    snapshot = sanitizer._snapshot(out)
                    inner = out._backward_fn

                    def checked_backward(grad):
                        sanitizer._verify(label, snapshot)
                        return inner(grad)

                    out._backward_fn = checked_backward
            return out

        return wrapper

    def enable(self) -> "GradSanitizer":
        """Install the op wrappers and the engine's accumulation checks."""
        super().enable()
        set_active_sanitizer(self)
        return self

    def disable(self) -> None:
        """Remove both (idempotent)."""
        if self.enabled:
            super().disable()
            set_active_sanitizer(None)
