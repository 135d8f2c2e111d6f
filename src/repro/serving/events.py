"""User-behaviour event model for the real-time serving simulation.

The paper's deployment (Section IV-D) runs ATNN on a real-time data
engine that "can obtain user behaviors, including clicking, adding to
favorite, purchasing, etc.".  This module defines the event vocabulary and
a generator that replays plausible event streams from a synthetic world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.synthetic.tmall import TmallWorld

__all__ = [
    "EventKind",
    "Event",
    "KIND_CODES",
    "generate_event_stream",
    "event_columns",
    "join_click_outcomes",
    "join_outcome_columns",
]


class EventKind:
    """String constants for the supported behaviour events."""

    VIEW = "view"
    CLICK = "click"
    CART = "cart"
    FAVORITE = "favorite"
    PURCHASE = "purchase"
    RELEASE = "release"

    ALL = (VIEW, CLICK, CART, FAVORITE, PURCHASE, RELEASE)


# Stable integer codes for vectorised event processing (quality monitor,
# outcome joining); order matches EventKind.ALL.
KIND_CODES = {kind: code for code, kind in enumerate(EventKind.ALL)}


@dataclass(frozen=True)
class Event:
    """One behaviour event.

    Attributes
    ----------
    kind:
        One of :class:`EventKind`.
    item_id:
        Index of the item in the serving catalogue.
    user_id:
        Index of the acting user (None for RELEASE events).
    timestamp:
        Seconds since stream start (monotone within a stream).
    """

    kind: str
    item_id: int
    user_id: Optional[int]
    timestamp: float

    def __post_init__(self) -> None:
        if self.kind not in EventKind.ALL:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of {EventKind.ALL}"
            )
        if self.item_id < 0:
            raise ValueError(f"item_id must be >= 0, got {self.item_id}")


def generate_event_stream(
    world: TmallWorld,
    item_indices: Sequence[int],
    n_events: int,
    rng: np.random.Generator,
    funnel_rates: Optional[dict] = None,
) -> List[Event]:
    """Replay a plausible behaviour stream over ``item_indices``.

    Views arrive item-proportionally to ground-truth popularity; each view
    spawns downstream funnel events (click → cart/favourite → purchase)
    with popularity-scaled probabilities.

    Parameters
    ----------
    world:
        The synthetic world providing popularity ground truth.
    item_indices:
        Which new-arrival indices take part (events reference positions in
        this sequence, i.e. catalogue slots).
    n_events:
        Number of *view* events to draw (funnel events come on top).
    rng:
        Generator controlling all draws.
    funnel_rates:
        Optional overrides for ``{"click", "cart", "favorite", "purchase"}``
        base rates.
    """
    item_indices = np.asarray(item_indices)
    if item_indices.ndim != 1 or item_indices.size == 0:
        raise ValueError("item_indices must be a non-empty 1-D sequence")
    if n_events <= 0:
        raise ValueError(f"n_events must be positive, got {n_events}")

    rates = {"click": 0.5, "cart": 0.25, "favorite": 0.2, "purchase": 0.12}
    if funnel_rates:
        rates.update(funnel_rates)

    popularity = world.new_item_popularity[item_indices]
    weights = (popularity + 0.02) / (popularity + 0.02).sum()

    slots = rng.choice(item_indices.size, size=n_events, p=weights)
    users = rng.choice(
        world.config.n_users, size=n_events, p=world.user_activity
    )
    timestamps = np.sort(rng.uniform(0.0, 3600.0, size=n_events))

    events: List[Event] = []
    for position, user, timestamp in zip(slots, users, timestamps):
        position = int(position)
        catalogue_slot = int(item_indices[position])
        user = int(user)
        timestamp = float(timestamp)
        events.append(Event(EventKind.VIEW, catalogue_slot, user, timestamp))
        engagement = popularity[position]
        if rng.random() < rates["click"] * (0.5 + engagement):
            events.append(
                Event(EventKind.CLICK, catalogue_slot, user, timestamp + 1.0)
            )
            if rng.random() < rates["cart"] * (0.5 + engagement):
                events.append(
                    Event(EventKind.CART, catalogue_slot, user, timestamp + 2.0)
                )
            if rng.random() < rates["favorite"] * (0.5 + engagement):
                events.append(
                    Event(EventKind.FAVORITE, catalogue_slot, user, timestamp + 2.0)
                )
            if rng.random() < rates["purchase"] * (0.5 + engagement):
                events.append(
                    Event(EventKind.PURCHASE, catalogue_slot, user, timestamp + 5.0)
                )
    return events


# ----------------------------------------------------------------------
# Columnar views for vectorised consumers (the model-quality monitor)
# ----------------------------------------------------------------------
def event_columns(
    events: Sequence[Event],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decompose a batch of events into parallel numpy columns.

    Returns ``(kind_codes, item_ids, user_ids, timestamps)`` where kinds
    follow :data:`KIND_CODES` and a ``None`` user (RELEASE events) maps
    to ``-1``.  This is the single pass over the python event objects;
    everything downstream (cohort splitting, outcome joining, binning)
    works on the arrays.
    """
    n = len(events)
    kinds = np.fromiter(
        (KIND_CODES[event.kind] for event in events), dtype=np.int64, count=n
    )
    items = np.fromiter(
        (event.item_id for event in events), dtype=np.int64, count=n
    )
    users = np.fromiter(
        (
            -1 if event.user_id is None else event.user_id
            for event in events
        ),
        dtype=np.int64,
        count=n,
    )
    timestamps = np.fromiter(
        (event.timestamp for event in events), dtype=np.float64, count=n
    )
    return kinds, items, users, timestamps


def join_outcome_columns(
    kinds: np.ndarray,
    items: np.ndarray,
    users: np.ndarray,
    timestamps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Join VIEW impressions with CLICKs by ``(user, item)`` within a batch.

    Returns ``(item_ids, user_ids, timestamps, clicked)`` with one row
    per impression (VIEW event).  An impression counts as clicked when
    the same ``(user, item)`` pair also emitted a CLICK in the batch —
    :func:`generate_event_stream` appends funnel events directly after
    their view, so batch-local joining loses only pairs split across an
    ingest boundary (and a repeat view by the same user shares the
    click label, a deliberate simplification).
    """
    view_mask = kinds == KIND_CODES[EventKind.VIEW]
    items_v = items[view_mask]
    users_v = users[view_mask]
    ts_v = timestamps[view_mask]
    click_mask = kinds == KIND_CODES[EventKind.CLICK]
    if items_v.size == 0 or not click_mask.any():
        return items_v, users_v, ts_v, np.zeros(items_v.size, dtype=bool)
    # Composite (item, user) keys; users are >= -1 so the shift keeps
    # them non-negative inside the key.
    stride = int(users.max()) + 2
    view_keys = items_v * stride + (users_v + 1)
    click_keys = np.sort(items[click_mask] * stride + (users[click_mask] + 1))
    # Membership by binary search: on batch-sized arrays a sort plus
    # searchsorted is several times faster than np.isin.
    found = click_keys.searchsorted(view_keys)
    np.minimum(found, click_keys.size - 1, out=found)
    return items_v, users_v, ts_v, click_keys[found] == view_keys


def join_click_outcomes(
    events: Sequence[Event],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Convenience wrapper: :func:`join_outcome_columns` over raw events."""
    return join_outcome_columns(*event_columns(events))
