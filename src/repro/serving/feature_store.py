"""Streaming item-statistics store.

Accumulates behaviour counters per catalogue slot and materialises the
``item_stat`` feature columns of the Tmall schema on demand, so the item
encoder can score *warm* items with live statistics while brand-new items
fall back to the generator path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.obs.metrics import get_active_registry
from repro.obs.tracing import maybe_span
from repro.serving.events import (
    KIND_CODES,
    Event,
    EventKind,
    event_columns,
)
from repro.utils.buffers import grow_rows

__all__ = ["ItemCounters", "ItemStatisticsStore"]

# (slot, user) pairs are packed into one int64 key so unique-visitor
# bookkeeping stays vectorised; user -1 (None) never reaches the key.
_USER_SHIFT = np.int64(32)
_USER_MASK = np.int64((1 << 32) - 1)


@dataclass
class ItemCounters:
    """Raw behaviour counters for one catalogue slot."""

    views: int = 0
    clicks: int = 0
    carts: int = 0
    favorites: int = 0
    purchases: int = 0
    unique_users: set = field(default_factory=set)

    def update(self, event: Event) -> None:
        """Apply one event."""
        if event.kind == EventKind.VIEW:
            self.views += 1
        elif event.kind == EventKind.CLICK:
            self.clicks += 1
        elif event.kind == EventKind.CART:
            self.carts += 1
        elif event.kind == EventKind.FAVORITE:
            self.favorites += 1
        elif event.kind == EventKind.PURCHASE:
            self.purchases += 1
        if event.user_id is not None:
            self.unique_users.add(event.user_id)

    @property
    def ctr(self) -> float:
        """Empirical click-through rate (0 when unseen)."""
        return self.clicks / self.views if self.views else 0.0


class ItemStatisticsStore:
    """Per-slot counters plus schema-compatible statistic columns.

    The store mirrors the eight ``stat_*`` columns of the Tmall schema.
    Columns are standardised with a running mean/std over slots that have
    traffic, so warm-item features live on the same scale the encoder was
    trained on (standardised statistics).
    """

    STAT_COLUMNS = (
        "stat_log_pv",
        "stat_log_uv",
        "stat_hist_ctr",
        "stat_cart_rate",
        "stat_fav_rate",
        "stat_buy_rate",
        "stat_seller_log_pv",
        "stat_category_ctr",
    )

    def __init__(self, n_slots: int) -> None:
        if n_slots <= 0:
            raise ValueError(f"n_slots must be positive, got {n_slots}")
        self.n_slots = n_slots
        # One row per event kind (KIND_CODES order), one column per slot.
        # Both live in capacity-doubling buffers; ``_counts`` and
        # ``_unique_users`` are ``[:n_slots]`` views that ingest updates
        # in place.
        self._counts_buf = np.zeros((len(EventKind.ALL), n_slots), dtype=np.int64)
        self._users_buf = np.zeros(n_slots, dtype=np.int64)
        self._counts = self._counts_buf
        self._unique_users = self._users_buf
        self._seen_pairs = np.empty(0, dtype=np.int64)  # sorted packed keys

    def grow(self, n_new: int) -> int:
        """Extend the store with ``n_new`` zero-traffic slots.

        Supports the engine's new-arrival path: freshly added catalogue
        slots start cold (all counters zero) and warm up through normal
        ingestion.  Appends into spare buffer capacity, so the cost is
        amortised O(``n_new``).  Returns the new slot count.
        """
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        size = self.n_slots + n_new
        # Grown buffers are zero-initialised and slots past n_slots are
        # never written, so the new slots start with zero counters.
        self._counts_buf = grow_rows(self._counts_buf, self.n_slots, size, axis=1)
        self._users_buf = grow_rows(self._users_buf, self.n_slots, size)
        self._counts = self._counts_buf[:, :size]
        self._unique_users = self._users_buf[:size]
        self.n_slots = size
        return self.n_slots

    # ------------------------------------------------------------------
    def ingest(self, events: Sequence[Event], columns=None) -> int:
        """Apply a batch of events; returns how many were applied.

        ``columns`` optionally carries the precomputed
        :func:`~repro.serving.events.event_columns` decomposition so the
        engine's single pass over the python event objects is shared with
        every other columnar consumer (quality monitor, outcome joins).
        """
        with maybe_span("store.ingest"):
            start = time.perf_counter()
            if columns is None:
                columns = event_columns(events)
            kinds, items, users, _ = columns
            applied = int(items.size)
            if applied:
                top_slot = int(items.max())
                if top_slot >= self.n_slots:
                    raise IndexError(
                        f"event references slot {top_slot}, store has "
                        f"{self.n_slots} slots"
                    )
                flat = np.bincount(
                    kinds * self.n_slots + items, minlength=self._counts.size
                )
                self._counts += flat.reshape(self._counts.shape)
                acting = users >= 0
                if acting.any():
                    keys = (items[acting] << _USER_SHIFT) | (users[acting] + 1)
                    fresh = np.unique(keys)
                    if self._seen_pairs.size:
                        fresh = fresh[
                            ~np.isin(fresh, self._seen_pairs, assume_unique=True)
                        ]
                    if fresh.size:
                        self._unique_users += np.bincount(
                            fresh >> _USER_SHIFT, minlength=self.n_slots
                        )
                        self._seen_pairs = np.sort(
                            np.concatenate([self._seen_pairs, fresh])
                        )
            registry = get_active_registry()
            if registry is not None and applied:
                elapsed = time.perf_counter() - start
                registry.counter("store.events_ingested").inc(applied)
                registry.histogram("store.ingest_seconds").observe(elapsed)
                if elapsed > 0:
                    registry.gauge("store.events_per_second").set(
                        applied / elapsed
                    )
            return applied

    def counters(self, slot: int) -> ItemCounters:
        """Raw counters for one slot (materialised read view)."""
        column = self._counts[:, slot]  # IndexError on out-of-range slots
        slot = int(slot) % self.n_slots
        pairs = self._seen_pairs[(self._seen_pairs >> _USER_SHIFT) == slot]
        return ItemCounters(
            views=int(column[KIND_CODES[EventKind.VIEW]]),
            clicks=int(column[KIND_CODES[EventKind.CLICK]]),
            carts=int(column[KIND_CODES[EventKind.CART]]),
            favorites=int(column[KIND_CODES[EventKind.FAVORITE]]),
            purchases=int(column[KIND_CODES[EventKind.PURCHASE]]),
            unique_users={int(key & _USER_MASK) - 1 for key in pairs},
        )

    def views(self) -> np.ndarray:
        """View counts per slot."""
        return self._counts[KIND_CODES[EventKind.VIEW]].copy()

    def warm_slots(self, min_views: int = 20) -> np.ndarray:
        """Slots with enough traffic for statistics-based scoring."""
        if min_views < 1:
            raise ValueError(f"min_views must be >= 1, got {min_views}")
        return np.flatnonzero(self.views() >= min_views)

    # ------------------------------------------------------------------
    def _raw_matrix(self) -> np.ndarray:
        """Raw (pre-standardisation) statistic matrix, one row per slot."""
        views = self._counts[KIND_CODES[EventKind.VIEW]]
        safe_views = np.maximum(views, 1)
        ctr = self._counts[KIND_CODES[EventKind.CLICK]] / safe_views
        trafficked = views > 0
        category_ctr = float(ctr[trafficked].mean()) if trafficked.any() else 0.0
        log_pv = np.log1p(views)
        return np.column_stack(
            (
                log_pv,
                np.log1p(self._unique_users),
                ctr,
                self._counts[KIND_CODES[EventKind.CART]] / safe_views,
                self._counts[KIND_CODES[EventKind.FAVORITE]] / safe_views,
                self._counts[KIND_CODES[EventKind.PURCHASE]] / safe_views,
                log_pv,  # seller aggregate proxy
                np.full(self.n_slots, category_ctr),
            )
        )

    def feature_columns(self, slots: Sequence[int]) -> Dict[str, np.ndarray]:
        """Standardised statistic columns for the requested slots.

        Standardisation statistics come from the currently warm slots; a
        store with no traffic yields all-zero columns (the cold-start
        convention of :func:`repro.data.cold_start.zero_statistics`).
        """
        with maybe_span("store.features"):
            slots = np.asarray(slots)
            raw = self._raw_matrix()
            trafficked = self.views() > 0
            if trafficked.any():
                mean = raw[trafficked].mean(axis=0)
                std = raw[trafficked].std(axis=0)
                std = np.where(std < 1e-12, 1.0, std)
                standardised = (raw - mean) / std
                standardised[~trafficked] = 0.0
            else:
                standardised = np.zeros_like(raw)
            return {
                name: standardised[slots, column]
                for column, name in enumerate(self.STAT_COLUMNS)
            }
