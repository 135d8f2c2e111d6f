"""Block-rotated sliding windows over fixed-size count arrays.

The streaming quality estimators (:mod:`repro.obs.quality`) and the drift
detectors (:mod:`repro.obs.drift`) all reduce an observation stream to a
small set of per-bin accumulator arrays (positive counts, label sums,
score sums, ...).  Exact sliding windows would need per-observation
memory; instead :class:`SlidingBlocks` seals accumulators into *blocks*
of roughly ``block_size`` observations and evicts whole blocks from the
tail, so the retained span stays within ``[window, window + block_size)``
observations at O(window / block_size) memory, with every update still a
vectorised array addition.

With ``window=None`` the blocks degenerate to a single cumulative
accumulator (nothing is ever evicted).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SlidingBlocks"]


class SlidingBlocks:
    """Sliding-window totals over parallel accumulator arrays.

    Parameters
    ----------
    array_sizes:
        Length of each parallel accumulator vector (e.g. ``(n_bins,
        n_bins)`` for positive/negative histograms).
    window:
        Approximate number of most-recent observations to retain; ``None``
        keeps everything (cumulative mode).
    block_size:
        Observations per sealed block; defaults to ``window // 8``
        (minimum 1).  Smaller blocks track the window more tightly at the
        cost of more retained arrays.
    """

    def __init__(
        self,
        array_sizes: Sequence[int],
        window: Optional[int] = None,
        block_size: Optional[int] = None,
    ) -> None:
        if not array_sizes:
            raise ValueError("array_sizes must name at least one accumulator")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if block_size is None and window is not None:
            block_size = max(1, window // 8)
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self._sizes = tuple(int(size) for size in array_sizes)
        self.window = window
        self.block_size = block_size
        self._live = [np.zeros(size) for size in self._sizes]
        self._live_count = 0
        # Sealed blocks, oldest first: (observation_count, arrays).
        self._sealed: "Deque[Tuple[int, List[np.ndarray]]]" = deque()
        self._sealed_count = 0
        self.total_seen = 0

    # ------------------------------------------------------------------
    def add(self, n_observations: int, *deltas: np.ndarray) -> None:
        """Accumulate ``deltas`` representing ``n_observations`` samples."""
        if len(deltas) != len(self._live):
            raise ValueError(
                f"expected {len(self._live)} delta arrays, got {len(deltas)}"
            )
        if n_observations < 0:
            raise ValueError(f"n_observations must be >= 0, got {n_observations}")
        for accumulator, delta in zip(self._live, deltas):
            accumulator += delta
        self._live_count += int(n_observations)
        self.total_seen += int(n_observations)
        if self.window is None:
            return
        if self._live_count >= self.block_size:
            self._sealed.append((self._live_count, self._live))
            self._sealed_count += self._live_count
            self._live = [np.zeros(size) for size in self._sizes]
            self._live_count = 0
            # Evict whole tail blocks while the remainder still covers
            # the window.
            while (
                self._sealed
                and self._sealed_count + self._live_count - self._sealed[0][0]
                >= self.window
            ):
                evicted_count, _ = self._sealed.popleft()
                self._sealed_count -= evicted_count

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Observations currently inside the window."""
        return self._sealed_count + self._live_count

    def totals(self) -> Tuple[np.ndarray, ...]:
        """Windowed sum of each accumulator array (freshly allocated)."""
        totals = [accumulator.copy() for accumulator in self._live]
        for _, arrays in self._sealed:
            for total, sealed in zip(totals, arrays):
                total += sealed
        return tuple(totals)

    def reset(self) -> None:
        """Drop every retained observation."""
        self._live = [np.zeros(size) for size in self._sizes]
        self._live_count = 0
        self._sealed.clear()
        self._sealed_count = 0
        self.total_seen = 0
