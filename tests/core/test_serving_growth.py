"""Serving work proportional to what changed.

Catalogue growth appends into capacity-doubling buffers, so an engine fed
arrivals in batches must serve exactly what an engine built on the whole
catalogue serves, without touching the caller's arrays or tables handed
out earlier.  A full refresh reuses the generator vectors while the model
is unchanged and recomputes them after any weight write.  The last tests
guard against O(catalogue) work creeping back onto the serving path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import ATNN, TowerConfig
from repro.data.dataset import FeatureTable
from repro.nn.optim import SGD
from repro.serving import EngineConfig, Event, EventKind, RealTimeEngine

N_BASE = 90
BATCHES = ((90, 97), (97, 110), (110, 150))
IVF_FULL_PROBE = {"index_kind": "ivf", "ivf_nlist": 4, "ivf_nprobe": 4}


def _model(world, seed=5, vector_dim=8):
    return ATNN(
        world.schema,
        TowerConfig(vector_dim=vector_dim, deep_dims=(16, 8), head_dims=(16,),
                    num_cross_layers=1),
        rng=np.random.default_rng(seed),
    )


@pytest.fixture(scope="module")
def serving_model(tiny_tmall_world):
    return _model(tiny_tmall_world)


def _engine(world, model, catalogue, **index):
    return RealTimeEngine(
        model,
        catalogue,
        world.active_user_group(0.2),
        EngineConfig(warm_view_threshold=5, **index),
    )


def _rows(world, start, stop):
    return world.new_items.subset(np.arange(start, stop))


def _events(slots, clock):
    """Views (enough to warm some slots) plus a click per slot."""
    events = []
    for user, slot in enumerate(slots):
        events.append(Event(EventKind.VIEW, int(slot), user, clock + user))
        events.append(Event(EventKind.CLICK, int(slot), user, clock + user))
    return events


def _user_row(world, row):
    names = world.schema.all_column_names("user")
    return {name: world.users[name][row : row + 1] for name in names}


@pytest.mark.parametrize(
    "index", [{}, IVF_FULL_PROBE], ids=["bruteforce", "ivf_full_probe"]
)
def test_batched_growth_serves_like_the_concatenated_catalogue(
    tiny_tmall_world, serving_model, index
):
    world = tiny_tmall_world
    grown = _engine(world, serving_model, _rows(world, 0, N_BASE), **index)
    whole = _engine(world, serving_model, _rows(world, 0, BATCHES[-1][1]), **index)
    grown.refresh()
    whole.refresh()
    rng = np.random.default_rng(0)
    for step, (start, stop) in enumerate(BATCHES):
        grown.add_arrivals(_rows(world, start, stop))
        # Traffic over old and new slots, some of it enough to warm them.
        events = _events(np.repeat(rng.integers(0, stop, size=12), 6), step * 100.0)
        for engine in (grown, whole):
            engine.ingest(events)
        np.testing.assert_allclose(grown.scores(), whole.scores()[:stop], rtol=1e-12)
    for full in (False, True):
        np.testing.assert_allclose(
            grown.refresh(full=full), whole.refresh(full=full), rtol=1e-12
        )
        np.testing.assert_array_equal(grown.top_k(20), whole.top_k(20))
        for user in (0, 7, 42):
            row = _user_row(world, user)
            np.testing.assert_array_equal(
                grown.recommend_for_user(row, k=10),
                whole.recommend_for_user(row, k=10),
            )
    np.testing.assert_array_equal(grown.store._counts, whole.store._counts)
    np.testing.assert_array_equal(
        grown.store._unique_users, whole.store._unique_users
    )
    for name in whole.catalogue.columns:
        np.testing.assert_array_equal(grown.catalogue[name], whole.catalogue[name])


def test_growth_never_writes_caller_arrays_or_earlier_tables(
    tiny_tmall_world, serving_model
):
    world = tiny_tmall_world
    catalogue = _rows(world, 0, N_BASE)
    caller = {name: column.copy() for name, column in catalogue.columns.items()}
    engine = _engine(world, serving_model, catalogue)
    engine.refresh()
    earlier = engine.catalogue
    earlier_copy = {name: column.copy() for name, column in earlier.columns.items()}
    # Enough rows to outgrow the first buffers twice over.
    for start, stop in ((0, 50), (50, 150), (0, 150)):
        engine.add_arrivals(_rows(world, start, stop))
        engine.ingest(_events(np.arange(0, len(engine.catalogue), 7), 0.0))
        engine.refresh(full=True)
    assert len(engine.catalogue) == N_BASE + 300
    assert len(earlier) == N_BASE
    for name, column in catalogue.columns.items():
        np.testing.assert_array_equal(column, caller[name])
        np.testing.assert_array_equal(earlier[name], earlier_copy[name])


def test_arrival_without_a_column_zero_fills_it(tiny_tmall_world, serving_model):
    world = tiny_tmall_world
    engine = _engine(world, serving_model, _rows(world, 0, N_BASE))
    names = world.schema.all_column_names("item_profile")
    extra = [name for name in engine.catalogue.columns if name not in names]
    assert extra  # the catalogue carries statistic columns too
    engine.add_arrivals(
        FeatureTable({name: world.new_items[name][:5] for name in names})
    )
    for name in extra:
        np.testing.assert_array_equal(engine.catalogue[name][N_BASE:], 0)


class TestFullRefreshCache:
    """A full refresh recomputes generator vectors iff the weights moved."""

    def _assert_matches_fresh_engine(self, world, model, engine):
        fresh = _engine(world, model, engine.catalogue)
        fresh.refresh()
        np.testing.assert_array_equal(
            engine._generator_vectors, fresh._generator_vectors
        )
        np.testing.assert_array_equal(engine._item_vectors, fresh._item_vectors)
        np.testing.assert_array_equal(engine.index.vectors, engine._item_vectors)

    def test_recomputes_after_an_optimizer_step(self, tiny_tmall_world):
        world = tiny_tmall_world
        model = _model(world)
        model.eval()
        engine = _engine(world, model, _rows(world, 0, N_BASE))
        engine.refresh()
        engine.add_arrivals(_rows(world, N_BASE, 150))
        before = engine._generator_vectors.copy()
        rng = np.random.default_rng(1)
        params = model.parameters()
        for param in params:
            param.grad = rng.normal(size=param.data.shape)
        SGD(params, lr=0.05).step()
        engine.refresh(full=True)
        assert not np.allclose(engine._generator_vectors, before)
        self._assert_matches_fresh_engine(world, model, engine)

    def test_recomputes_after_load_state_dict(self, tiny_tmall_world):
        world = tiny_tmall_world
        model = _model(world)
        model.eval()
        engine = _engine(world, model, _rows(world, 0, N_BASE))
        engine.refresh()
        before = engine._generator_vectors.copy()
        model.load_state_dict(_model(world, seed=11).state_dict())
        engine.refresh(full=True)
        assert not np.allclose(engine._generator_vectors, before)
        self._assert_matches_fresh_engine(world, model, engine)


class TestInferenceMode:
    def _drive(self, world, engine):
        engine.refresh()
        engine.add_arrivals(_rows(world, 0, 10))
        engine.recommend_for_user(_user_row(world, 0), k=5)
        engine.refresh(full=True)

    def test_train_mode_model_comes_back_in_train_mode(self, tiny_tmall_world):
        world = tiny_tmall_world
        model = _model(world)
        model.train(True)
        self._drive(world, _engine(world, model, _rows(world, 0, N_BASE)))
        assert all(module.training for _, module in model.named_modules())

    def test_eval_mode_model_never_switches_mode(
        self, tiny_tmall_world, monkeypatch
    ):
        world = tiny_tmall_world
        model = _model(world)
        model.eval()
        engine = _engine(world, model, _rows(world, 0, N_BASE))
        switches = []
        monkeypatch.setattr(model, "train", lambda mode=True: switches.append(mode))
        self._drive(world, engine)
        assert switches == []


# ----------------------------------------------------------------------
# Guards: no O(catalogue) work on arrivals or unchanged-model refreshes
# ----------------------------------------------------------------------
def test_small_arrival_allocates_far_less_than_the_catalogue(tiny_tmall_world):
    world = tiny_tmall_world
    model = _model(world, vector_dim=32)
    model.eval()
    rows = np.arange(20_000) % len(world.new_items)
    engine = _engine(world, model, world.new_items.subset(rows))
    engine.refresh()
    batch = _rows(world, 0, 10)
    engine.add_arrivals(batch)  # the first arrival grows every buffer
    catalogue_bytes = (
        sum(column.nbytes for column in engine.catalogue.columns.values())
        + engine._generator_vectors.nbytes
        + engine._item_vectors.nbytes
        + engine.store._counts.nbytes
    )
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine.add_arrivals(batch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # Only the copy-on-write score vector is O(catalogue): n float64s,
    # about 1/150 of the catalogue's bytes.
    assert peak < catalogue_bytes / 10, (peak, catalogue_bytes)


def test_unchanged_model_full_refresh_never_runs_the_generator_over_the_catalogue(
    tiny_tmall_world, serving_model, monkeypatch
):
    world = tiny_tmall_world
    engine = _engine(world, serving_model, _rows(world, 0, N_BASE))
    engine.refresh()
    rows_encoded = []
    original = ATNN.generated_item_vectors

    def counting(self, features):
        rows_encoded.append(len(next(iter(features.values()))))
        return original(self, features)

    monkeypatch.setattr(ATNN, "generated_item_vectors", counting)
    for start, stop in BATCHES:
        engine.add_arrivals(_rows(world, start, stop))
        engine.ingest(_events(np.repeat(np.arange(0, stop, 9), 6), 0.0))
        engine.refresh(full=True)
    assert rows_encoded == [stop - start for start, stop in BATCHES]
