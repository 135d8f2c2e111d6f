"""Distribution-drift detection between a frozen reference and a live window.

Production CTR systems watch the *distribution* of model scores and key
features, not just their averages: an embedding refresh that shifts every
score by a few percent is invisible to a mean but obvious to a
population-stability index.  This module provides the two standard
divergences over binned distributions —

* **PSI** (population stability index), the symmetric
  ``sum((q - p) * ln(q / p))`` that credit-risk and CTR serving stacks
  alarm on (conventional thresholds: 0.1 "watch", 0.25 "act"); and
* **KL divergence** ``KL(live || reference)``;

plus :class:`DriftDetector`, which accumulates a *frozen* reference
window first (warm-up), then maintains a sliding live window and exposes
both divergences against the reference.  All inputs are binned into
fixed equal-width bins, so updates are O(batch) and memory is O(bins).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs.window import SlidingBlocks

__all__ = ["psi", "kl_divergence", "DriftDetector"]


def _smoothed_distributions(
    reference_counts, live_counts, alpha: float
) -> "tuple[np.ndarray, np.ndarray]":
    reference_counts = np.asarray(reference_counts, dtype=float)
    live_counts = np.asarray(live_counts, dtype=float)
    if reference_counts.shape != live_counts.shape:
        raise ValueError(
            "count vectors must have matching shapes, got "
            f"{reference_counts.shape} vs {live_counts.shape}"
        )
    if reference_counts.sum() <= 0 or live_counts.sum() <= 0:
        raise ValueError("both count vectors need at least one observation")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    p = reference_counts + alpha
    q = live_counts + alpha
    return p / p.sum(), q / q.sum()


def psi(reference_counts, live_counts, alpha: float = 0.5) -> float:
    """Population stability index between two binned distributions.

    ``alpha`` is a Laplace smoothing pseudo-count added to every bin so
    empty bins contribute a finite, smoothly-vanishing term.
    """
    p, q = _smoothed_distributions(reference_counts, live_counts, alpha)
    return float(np.sum((q - p) * np.log(q / p)))


def kl_divergence(reference_counts, live_counts, alpha: float = 0.5) -> float:
    """``KL(live || reference)`` between two binned distributions."""
    p, q = _smoothed_distributions(reference_counts, live_counts, alpha)
    return float(np.sum(q * np.log(q / p)))


class DriftDetector:
    """Frozen-reference vs sliding-live-window divergence over one signal.

    The first ``reference_size`` observations build the reference
    histogram, which then freezes; later observations roll through a
    sliding window (see :class:`~repro.obs.window.SlidingBlocks`).  Until
    the reference is frozen *and* the live window holds at least
    ``min_live`` observations, the detector reports itself not
    :attr:`ready` and its divergences are ``None`` — the warm-up
    handling that keeps early noisy windows from paging anyone.

    Parameters
    ----------
    n_bins, lo, hi:
        Equal-width binning of the signal; values outside ``[lo, hi]``
        clamp into the edge bins.
    reference_size:
        Observations accumulated before the reference freezes.
    window:
        Live sliding-window span (observations).
    min_live:
        Live observations required before divergences are reported.
    alpha:
        Laplace smoothing pseudo-count per bin.
    """

    def __init__(
        self,
        n_bins: int = 32,
        lo: float = 0.0,
        hi: float = 1.0,
        reference_size: int = 2000,
        window: int = 2000,
        min_live: Optional[int] = None,
        alpha: float = 0.5,
    ) -> None:
        if n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {n_bins}")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        if reference_size < 1:
            raise ValueError(f"reference_size must be >= 1, got {reference_size}")
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.n_bins = n_bins
        self.lo = float(lo)
        self.hi = float(hi)
        self.reference_size = reference_size
        self.min_live = min_live if min_live is not None else max(1, window // 4)
        self.alpha = alpha
        self._reference = np.zeros(n_bins)
        self._n_reference = 0
        # The smoothed reference distribution, computed once it freezes.
        self._reference_p: Optional[np.ndarray] = None
        self._live = SlidingBlocks((n_bins,), window=window)

    # ------------------------------------------------------------------
    def bin(self, values) -> np.ndarray:
        """Bin index of each value.

        Values outside ``[lo, hi]``, infinities included, clamp into the
        edge bins.  ``NaN`` maps to ``n_bins``, one past the last bin:
        it is no observation, and no histogram counts it.
        """
        values = np.asarray(values, dtype=float)
        scaled = (values - self.lo) / (self.hi - self.lo) * self.n_bins
        # Clip in float: a cast first would wrap +inf and values past
        # 2**63 to the bottom bin.
        np.clip(scaled, 0, self.n_bins - 1, out=scaled)
        scaled[np.isnan(scaled)] = self.n_bins
        return scaled.astype(np.int64)

    def update(self, values) -> None:
        """Fold a batch of observations into the detector (NaN skipped)."""
        bins = self.bin(np.asarray(values, dtype=float).ravel())
        remaining = self.reference_size - self._n_reference
        if remaining > 0:
            bins = bins[bins < self.n_bins]
            head, bins = bins[:remaining], bins[remaining:]
            self._reference += np.bincount(head, minlength=self.n_bins)
            self._n_reference += head.size
        if bins.size:
            counts = np.bincount(bins, minlength=self.n_bins + 1)
            self.update_counts(counts[: self.n_bins])

    def update_counts(self, counts) -> None:
        """Fold one binned batch, given as its per-bin counts, into the
        live window.

        The same as :meth:`update` with the batch's values once the
        reference has frozen; before that the reference needs the values
        in order, so this raises.
        """
        if not self.reference_frozen:
            raise ValueError("update_counts needs a frozen reference")
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.n_bins,):
            raise ValueError(
                f"counts must have shape ({self.n_bins},), got {counts.shape}"
            )
        n_observations = int(counts.sum())
        if n_observations:
            self._live.add(n_observations, counts)

    # ------------------------------------------------------------------
    @property
    def reference_frozen(self) -> bool:
        return self._n_reference >= self.reference_size

    @property
    def n_reference(self) -> int:
        return self._n_reference

    @property
    def n_live(self) -> int:
        return self._live.count

    @property
    def ready(self) -> bool:
        """Whether both windows hold enough data to compare."""
        return self.reference_frozen and self._live.count >= self.min_live

    def divergences(self) -> Tuple[Optional[float], Optional[float]]:
        """Windowed ``(PSI, KL(live || reference))`` from one pass over
        the live window (``(None, None)`` while warming up)."""
        if not self.ready:
            return None, None
        if self._reference_p is None:
            p = self._reference + self.alpha
            self._reference_p = p / p.sum()
        p = self._reference_p
        (q,) = self._live.totals()
        q += self.alpha
        q /= q.sum()
        log_ratio = np.log(q / p)
        return float(np.sum((q - p) * log_ratio)), float(np.sum(q * log_ratio))

    def psi(self) -> Optional[float]:
        """Windowed PSI against the reference (None while warming up)."""
        return self.divergences()[0]

    def kl(self) -> Optional[float]:
        """Windowed ``KL(live || reference)`` (None while warming up)."""
        return self.divergences()[1]

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state: divergences plus window occupancy."""
        psi_value, kl_value = self.divergences()
        return {
            "psi": psi_value,
            "kl": kl_value,
            "n_reference": self._n_reference,
            "n_live": self._live.count,
            "ready": self.ready,
        }

    def reset_reference(self) -> None:
        """Re-open the reference window (e.g. after a planned model swap)."""
        self._reference = np.zeros(self.n_bins)
        self._n_reference = 0
        self._reference_p = None
        self._live.reset()
