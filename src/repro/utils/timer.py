"""Wall-clock timing helpers for the complexity benchmarks."""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.obs.context import current_telemetry

__all__ = ["Timer", "time_callable"]


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    The timer is safely re-enterable — each ``with`` block overwrites
    :attr:`elapsed` — and exiting a timer that was never entered is a
    no-op rather than an error.  A *named* timer additionally reports
    each measurement into the ambient telemetry's metrics registry (when
    it has one) as the histogram ``timer.<name>``.

    Example
    -------
    >>> with Timer() as t:
    ...     sum(range(1000))
    500500
    >>> t.elapsed >= 0
    True
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name
        self.elapsed: float = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self._start is None:  # exited without (or after) entering
            return
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        if self.name:
            registry = current_telemetry().registry
            if registry is not None:
                registry.histogram(f"timer.{self.name}").observe(self.elapsed)


def time_callable(fn: Callable[[], object], repeats: int = 3) -> float:
    """Return the minimum elapsed time of ``fn()`` over ``repeats`` runs."""
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
