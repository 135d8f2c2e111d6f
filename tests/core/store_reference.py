"""Two-pass reference for the statistics store's feature columns.

``ItemStatisticsStore`` keeps running moments and standardises only the
requested slots.  This module rebuilds the whole raw statistic matrix
from per-slot :class:`~repro.serving.ItemCounters` and standardises it in
two passes over the trafficked slots, as the store did before it kept
running moments, so tests can check the incremental path against it.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.serving import ItemCounters, ItemStatisticsStore


def raw_matrix(counters: Sequence[ItemCounters]) -> np.ndarray:
    """Raw (pre-standardisation) statistic matrix, one row per slot."""
    views = np.array([c.views for c in counters], dtype=np.int64)
    clicks = np.array([c.clicks for c in counters], dtype=np.int64)
    carts = np.array([c.carts for c in counters], dtype=np.int64)
    favorites = np.array([c.favorites for c in counters], dtype=np.int64)
    purchases = np.array([c.purchases for c in counters], dtype=np.int64)
    users = np.array([len(c.unique_users) for c in counters], dtype=np.int64)
    safe_views = np.maximum(views, 1)
    ctr = clicks / safe_views
    trafficked = views > 0
    category_ctr = float(ctr[trafficked].mean()) if trafficked.any() else 0.0
    log_pv = np.log1p(views)
    return np.column_stack(
        (
            log_pv,
            np.log1p(users),
            ctr,
            carts / safe_views,
            favorites / safe_views,
            purchases / safe_views,
            log_pv,  # seller aggregate proxy
            np.full(len(counters), category_ctr),
        )
    )


def feature_columns(
    counters: Sequence[ItemCounters], slots: Sequence[int]
) -> Dict[str, np.ndarray]:
    """Standardised statistic columns for ``slots``, two-pass."""
    raw = raw_matrix(counters)
    trafficked = np.array([c.views > 0 for c in counters])
    if trafficked.any():
        mean = raw[trafficked].mean(axis=0)
        std = raw[trafficked].std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        standardised = (raw - mean) / std
        standardised[~trafficked] = 0.0
    else:
        standardised = np.zeros_like(raw)
    slots = np.asarray(slots)
    return {
        name: standardised[slots, column]
        for column, name in enumerate(ItemStatisticsStore.STAT_COLUMNS)
    }
