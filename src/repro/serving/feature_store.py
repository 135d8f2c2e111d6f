"""Streaming item-statistics store.

Accumulates behaviour counters per catalogue slot and materialises the
``item_stat`` feature columns of the Tmall schema on demand, so the item
encoder can score *warm* items with live statistics while brand-new items
fall back to the generator path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs.context import current_telemetry
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
# ``user + 1`` fills the low 32 bits, so user ids stay below _USER_LIMIT.
_USER_SHIFT = np.int64(32)
_USER_MASK = np.int64((1 << 32) - 1)
_USER_LIMIT = (1 << 32) - 1
# A statistic whose variance over trafficked slots is at most this share
# of its mean square is constant up to the rounding the running sums
# carry; it gets std 1, as an exactly constant one does.
_CONSTANT_VARIANCE = 1e-10


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
    trained on (standardised statistics).  ``ingest`` keeps the sum and
    sum of squares of each distinct statistic over trafficked slots,
    updated from the touched slots alone, so both ``ingest`` and
    ``feature_columns`` cost O(batch), not O(catalogue).
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
    # The distinct raw statistics, in ``_raw_stats`` row order; the
    # seller column repeats log-pv and the category column is constant.
    _RAW_STATS = STAT_COLUMNS[:6]

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
        # Running moments of the _raw_stats statistics over slots with
        # views; the constant columns (seller proxy, category) need none.
        self._n_trafficked = 0
        self._raw_sum = np.zeros(len(self._RAW_STATS))
        self._raw_sumsq = np.zeros(len(self._RAW_STATS))

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

        The work is O(batch): only the (kind, slot) cells, (slot, user)
        pairs and statistic moments the batch touches are updated.  A
        batch referencing a slot past ``n_slots`` raises ``IndexError``,
        and one with a user id outside ``[0, 2**32 - 1)`` raises
        ``ValueError`` (``None`` users are fine); either way nothing is
        applied.
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
                low, high = int(users.min()), int(users.max())
                if low < -1 or high >= _USER_LIMIT:
                    raise ValueError(
                        f"user ids must be in [0, {_USER_LIMIT}), got "
                        f"{low if low < -1 else high}"
                    )
                self._apply(kinds, items, users)
            registry = current_telemetry().registry
            if registry is not None and applied:
                elapsed = time.perf_counter() - start
                registry.counter("store.events_ingested").inc(applied)
                registry.histogram("store.ingest_seconds").observe(elapsed)
                if elapsed > 0:
                    registry.gauge("store.events_per_second").set(
                        applied / elapsed
                    )
            return applied

    def _apply(
        self, kinds: np.ndarray, items: np.ndarray, users: np.ndarray
    ) -> None:
        """Fold validated event columns into counters and moments."""
        n_kinds = self._counts.shape[0]
        cells, counts = np.unique(items * n_kinds + kinds, return_counts=True)
        cell_slots = cells // n_kinds
        # ``cells`` is sorted, so each slot's cells are adjacent.
        touched = cell_slots[np.r_[True, cell_slots[1:] != cell_slots[:-1]]]
        before, was_trafficked = self._raw_stats(touched)
        self._counts[cells % n_kinds, cell_slots] += counts
        acting = users >= 0
        if acting.any():
            # Sort and drop repeats: several times faster than a plain
            # ``np.unique`` at batch sizes.
            keys = np.sort((items[acting] << _USER_SHIFT) | (users[acting] + 1))
            keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
            seen = self._seen_pairs
            at = np.searchsorted(seen, keys)
            known = at < seen.size
            known[known] = seen[at[known]] == keys[known]
            fresh = keys[~known]
            if fresh.size:
                fresh_slots, fresh_counts = np.unique(
                    fresh >> _USER_SHIFT, return_counts=True
                )
                self._unique_users[fresh_slots] += fresh_counts
                # Inserting at the search positions keeps the keys sorted.
                self._seen_pairs = np.insert(seen, at[~known], fresh)
        after, trafficked = self._raw_stats(touched)
        self._n_trafficked += int(
            np.count_nonzero(trafficked) - np.count_nonzero(was_trafficked)
        )
        after, before = after[:, trafficked], before[:, was_trafficked]
        self._raw_sum += after.sum(axis=1) - before.sum(axis=1)
        self._raw_sumsq += (after**2).sum(axis=1) - (before**2).sum(axis=1)

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

    def views(self, slots: Optional[Sequence[int]] = None) -> np.ndarray:
        """View counts per slot, or for ``slots`` only when given."""
        views = self._counts[KIND_CODES[EventKind.VIEW]]
        return views.copy() if slots is None else views[np.asarray(slots)]

    def warm_slots(self, min_views: int = 20) -> np.ndarray:
        """Slots with enough traffic for statistics-based scoring."""
        if min_views < 1:
            raise ValueError(f"min_views must be >= 1, got {min_views}")
        return np.flatnonzero(self.views() >= min_views)

    # ------------------------------------------------------------------
    def _raw_stats(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Raw (pre-standardisation) statistics of ``slots``.

        Returns one row per name in ``_RAW_STATS``, one column per slot,
        and the mask of the slots that have views (the trafficked ones).
        """
        counts = self._counts[:, slots]
        views = counts[KIND_CODES[EventKind.VIEW]]
        safe_views = np.maximum(views, 1)
        return (
            np.stack(
                (
                    np.log1p(views),
                    np.log1p(self._unique_users[slots]),
                    counts[KIND_CODES[EventKind.CLICK]] / safe_views,
                    counts[KIND_CODES[EventKind.CART]] / safe_views,
                    counts[KIND_CODES[EventKind.FAVORITE]] / safe_views,
                    counts[KIND_CODES[EventKind.PURCHASE]] / safe_views,
                )
            ),
            views > 0,
        )

    def feature_columns(self, slots: Sequence[int]) -> Dict[str, np.ndarray]:
        """Standardised statistic columns for the requested slots.

        Standardisation statistics are the running mean/std over slots
        with traffic; untrafficked slots and a store with no traffic
        yield zeros (the cold-start convention of
        :func:`repro.data.cold_start.zero_statistics`).  The seller
        column repeats ``stat_log_pv`` (its aggregate proxy) and the
        category column, one value shared by every slot, standardises to
        zero.  The cost is O(``len(slots)``).
        """
        with maybe_span("store.features"):
            raw, trafficked = self._raw_stats(np.asarray(slots))
            standardised = np.zeros_like(raw)
            if self._n_trafficked:
                mean = self._raw_sum / self._n_trafficked
                mean_square = self._raw_sumsq / self._n_trafficked
                variance = mean_square - mean * mean
                std = np.where(
                    variance <= _CONSTANT_VARIANCE * mean_square,
                    1.0,
                    np.sqrt(np.maximum(variance, 0.0)),
                )
                standardised[:, trafficked] = (
                    raw[:, trafficked] - mean[:, None]
                ) / std[:, None]
            columns = dict(zip(self._RAW_STATS, standardised))
            columns["stat_seller_log_pv"] = columns["stat_log_pv"].copy()
            columns["stat_category_ctr"] = np.zeros(raw.shape[1])
            return {name: columns[name] for name in self.STAT_COLUMNS}
