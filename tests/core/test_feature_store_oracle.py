"""The statistics store against per-event counters and a two-pass reference.

``ItemStatisticsStore.ingest`` updates only the cells, (slot, user) pairs
and running moments a batch touches.  Through any sequence of batches
and catalogue growth, its counters must equal ``ItemCounters.update``
applied event by event, and its feature columns must match the two-pass
standardisation of ``tests/core/store_reference.py`` within 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import Event, EventKind, ItemCounters, ItemStatisticsStore
from tests.core import store_reference

TOLERANCE = 1e-9
# A small pool makes users repeat within and across batches; the largest
# id the packed (slot, user) key admits is in it.
USERS = st.one_of(
    st.none(), st.integers(0, 5), st.just(2**32 - 2)
)
KINDS = st.sampled_from(
    [EventKind.VIEW] * 4
    + [EventKind.CLICK, EventKind.CART, EventKind.FAVORITE, EventKind.PURCHASE,
       EventKind.RELEASE]
)
BATCH = st.lists(
    st.tuples(KINDS, st.integers(0, 10_000), USERS), min_size=0, max_size=30
)
STEP = st.one_of(BATCH, st.integers(1, 4))  # an int grows the store


def _check(store, oracle):
    assert store.n_slots == len(oracle)
    for slot, expected in enumerate(oracle):
        assert store.counters(slot) == expected
    slots = np.arange(len(oracle))
    actual = store.feature_columns(slots)
    expected = store_reference.feature_columns(oracle, slots)
    assert list(actual) == list(ItemStatisticsStore.STAT_COLUMNS)
    for name in ItemStatisticsStore.STAT_COLUMNS:
        np.testing.assert_allclose(
            actual[name], expected[name], rtol=0, atol=TOLERANCE, err_msg=name
        )
    # A subset with repeats reads the same rows.
    subset = slots[::-1][: max(1, len(slots) // 2)].repeat(2)
    partial = store.feature_columns(subset)
    for name in ItemStatisticsStore.STAT_COLUMNS:
        np.testing.assert_array_equal(partial[name], actual[name][subset])


@settings(max_examples=60, deadline=None)
@given(n_slots=st.integers(1, 6), steps=st.lists(STEP, min_size=1, max_size=12))
def test_store_matches_per_event_counters_and_two_pass_reference(
    n_slots, steps
):
    store = ItemStatisticsStore(n_slots)
    oracle = [ItemCounters() for _ in range(n_slots)]
    clock = 0.0
    for step in steps:
        if isinstance(step, int):
            assert store.grow(step) == len(oracle) + step
            oracle.extend(ItemCounters() for _ in range(step))
        else:
            events = []
            for kind, slot, user in step:
                clock += 1.0
                events.append(Event(kind, slot % len(oracle), user, clock))
            assert store.ingest(events) == len(events)
            for event in events:
                oracle[event.item_id].update(event)
        _check(store, oracle)


@pytest.mark.parametrize("n_slots", [1, 2, 7])
def test_identical_slots_standardise_to_zero(n_slots):
    """Every statistic is constant across slots: zero variance, std 1."""
    store = ItemStatisticsStore(n_slots + 1)  # the last slot stays cold
    oracle = [ItemCounters() for _ in range(n_slots + 1)]
    for round_ in range(5):
        events = []
        for slot in range(n_slots):
            events += [
                Event(EventKind.VIEW, slot, round_, 0.0),
                Event(EventKind.VIEW, slot, None, 0.0),
                Event(EventKind.CLICK, slot, round_, 0.0),
                Event(EventKind.CART, slot, 7, 0.0),
            ]
        store.ingest(events)
        for event in events:
            oracle[event.item_id].update(event)
        _check(store, oracle)
        for values in store.feature_columns(np.arange(n_slots + 1)).values():
            np.testing.assert_allclose(values, 0.0, atol=TOLERANCE)


def test_large_user_id_rejected_without_corrupting_counts():
    """User ids at or past 2**32 - 1 would spill into the slot bits."""
    store = ItemStatisticsStore(2)
    with pytest.raises(ValueError, match="user ids"):
        store.ingest([Event(EventKind.VIEW, 0, 2**32, 0.0)])
    with pytest.raises(ValueError, match="user ids"):
        store.ingest([Event(EventKind.VIEW, 0, 2**32 - 1, 0.0)])
    with pytest.raises(ValueError, match="user ids"):
        store.ingest([Event(EventKind.VIEW, 0, -2, 0.0)])
    # Nothing of a rejected batch is applied.
    for slot in range(2):
        assert store.counters(slot) == ItemCounters()
    store.ingest([Event(EventKind.VIEW, 0, 2**32 - 2, 0.0)])
    assert store.counters(0).unique_users == {2**32 - 2}
    assert store.counters(1) == ItemCounters()
