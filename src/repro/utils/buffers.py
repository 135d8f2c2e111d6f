"""Capacity-doubling storage for append-only arrays.

The serving path only ever appends rows — catalogue profiles, item
vectors, store counters, index partitions — so every growing array keeps
spare capacity and doubles it when full: appending a batch costs
amortised O(batch), not a copy of everything stored so far.  Owners keep
the buffer and expose its live prefix (``buf[:size]``) as a view.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grow_rows"]

# Freshly allocated storage starts at this capacity and doubles.
_MIN_CAPACITY = 64


def grow_rows(
    buf: np.ndarray, size: int, needed: int, axis: int = 0
) -> np.ndarray:
    """Storage for ``needed`` rows along ``axis``, starting with ``buf``'s.

    Returns ``buf`` itself while it has room; otherwise a zero-initialised
    buffer of doubled capacity holding a copy of its first ``size`` rows.
    Rows past ``size`` are zero in a grown buffer, so owners that only
    append may rely on fresh rows starting at zero.
    """
    capacity = buf.shape[axis]
    if needed <= capacity:
        return buf
    capacity = max(capacity, _MIN_CAPACITY)
    while capacity < needed:
        capacity *= 2
    shape = list(buf.shape)
    shape[axis] = capacity
    grown = np.zeros(shape, dtype=buf.dtype)
    live = (slice(None),) * axis + (slice(0, size),)
    grown[live] = buf[live]
    return grown
