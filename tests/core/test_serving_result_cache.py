"""The engine's cached top-k: a repeat query costs a merge, never a change.

``top_k`` and ``recommend_for_user`` keep each query's last brute-force
answer and serve a repeat by merging in only the rows appended since.
Whatever happens in between -- arrivals, warm ingests and stale
refreshes, full refreshes, weight writes on the scoring head or the user
tower -- every answer must equal the lexsort oracle over
``exact_scores``, the order the index itself defines.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core import ATNN, TowerConfig
from repro.nn import default_dtype
from repro.nn.tensor import no_grad
from repro.obs import MetricsRegistry, Telemetry, use_telemetry
from repro.retrieval import exact_scores
from repro.serving import EngineConfig, Event, EventKind, RealTimeEngine

USERS = 6
WARM = 5


def _model(world):
    return ATNN(
        world.schema,
        TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                    num_cross_layers=1),
        rng=np.random.default_rng(5),
    )


def _engine(world, model, **config):
    return RealTimeEngine(
        model,
        world.new_items,
        world.active_user_group(0.2),
        EngineConfig(warm_view_threshold=WARM, **config),
    )


def _arrivals(world, rows):
    names = world.schema.all_column_names("item_profile")
    return type(world.new_items)(
        {name: world.items[name][np.asarray(rows)] for name in names}
    )


def _user_row(world, user):
    names = world.schema.all_column_names("user")
    return {name: world.users[name][user : user + 1] for name in names}


def _user_query(engine, row):
    """The recommend query, with the user tower run from scratch."""
    model = engine.model
    model.eval()
    with no_grad():
        vector = model.user_vectors(row).data[0]
    return model.scoring_head.weight.data * vector


def _oracle(engine, query, k):
    """The top-k by ``exact_scores`` against every index row, ties to the
    lower id: the order CI checks brute-force search against."""
    index = engine.index
    scores = exact_scores(index.vectors, np.asarray(query, dtype=index.dtype))
    return np.lexsort((np.arange(scores.size), -scores))[:k]


def test_interleaved_serving_matches_the_lexsort_oracle(
    tiny_tmall_world, example_scale
):
    """Stateful: every recommend and top_k answer is the oracle's."""
    world = tiny_tmall_world
    registry = MetricsRegistry()

    class CacheMachine(RuleBasedStateMachine):
        @initialize()
        def build(self):
            # Function-owned model: the rules write its weights.
            self.engine = _engine(world, _model(world))
            self.engine.refresh()
            self.clock = 0.0

        @rule(
            rows=st.lists(
                st.integers(0, len(world.items) - 1), min_size=1, max_size=8
            ),
            flood=st.booleans(),
        )
        def add_arrivals(self, rows, flood):
            # A flood appends more than an eighth of the catalogue.
            self.engine.add_arrivals(_arrivals(world, rows * (5 if flood else 1)))

        @rule(slots=st.lists(st.integers(0, 10_000), min_size=1, max_size=6))
        def warm_ingest(self, slots):
            # Enough views to warm each slot: the next (stale) refresh
            # rewrites their index rows.
            n = len(self.engine.catalogue)
            events = []
            for slot in slots:
                for user in range(WARM + 1):
                    self.clock += 1.0
                    events.append(Event(EventKind.VIEW, slot % n, user, self.clock))
            self.engine.ingest(events)
            self.engine.refresh()

        @rule()
        def full_refresh(self):
            self.engine.refresh(full=True)

        @rule(scale=st.sampled_from([0.5, -1.0, 2.0]))
        def assign_head(self, scale):
            weight = self.engine.model.scoring_head.weight
            weight.assign_(weight.data * scale)

        @rule(scale=st.sampled_from([0.5, 3.0]))
        def assign_user_tower(self, scale):
            weight = self.engine.model.user_tower.head.parameters()[0]
            weight.assign_(weight.data * scale)

        @rule(user=st.integers(0, USERS - 1), k=st.integers(1, 12))
        def recommend(self, user, k):
            row = _user_row(world, user)
            with use_telemetry(Telemetry(registry=registry)):
                top = self.engine.recommend_for_user(row, k)
            query = _user_query(self.engine, row)
            np.testing.assert_array_equal(top, _oracle(self.engine, query, k))

        @rule(k=st.integers(1, 12))
        def top_k(self, k):
            top = self.engine.top_k(k)
            query = self.engine._popularity_query()
            np.testing.assert_array_equal(top, _oracle(self.engine, query, k))

        @invariant()
        def index_covers_catalogue(self):
            assert len(self.engine.index) == len(self.engine.catalogue)

    run_state_machine_as_test(
        CacheMachine,
        settings=settings(
            max_examples=30 * example_scale, stateful_step_count=40, deadline=None
        ),
    )
    assert registry.counter("engine.recommend_result_hits").value > 0


def _copies(engine, slots):
    """Arrivals whose profiles copy catalogue ``slots``: cold, they get the
    same generator vectors and tie with the originals."""
    names = engine.model.schema.all_column_names("item_profile")
    return type(engine.catalogue)(
        {name: engine.catalogue[name][slots] for name in names}
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_repeat_requests_merge_arrivals_exactly(tiny_tmall_world, dtype):
    """Repeat users and the popularity query take arrivals in by a merge:
    no search, and the oracle's answer, in either index dtype.  The
    arrivals copy cached rows, so they tie with them and the lower id
    must win; a float32 index hands back rounded scores, which the merge
    must not rank by."""
    world = tiny_tmall_world
    with default_dtype(dtype):
        engine = _engine(world, _model(world))
        engine.refresh()
        assert engine.index.dtype == dtype
        rows = [_user_row(world, user) for user in range(USERS)]
        for row in rows:
            engine.recommend_for_user(row, 10)
        engine.top_k(10)
        searches = []
        search = engine.index.search
        engine.index.search = lambda query, k: searches.append(k) or search(query, k)
        for round_ in range(3):
            # Within an eighth of the catalogue: the cached lists merge.
            query = _user_query(engine, rows[round_])
            engine.add_arrivals(_copies(engine, _oracle(engine, query, 10)))
            popular = engine._popularity_query()
            engine.add_arrivals(_copies(engine, _oracle(engine, popular, 10)))
            for row in rows:
                query = _user_query(engine, row)
                top = engine.recommend_for_user(row, 10)
                np.testing.assert_array_equal(top, _oracle(engine, query, 10))
            np.testing.assert_array_equal(
                engine.top_k(10), _oracle(engine, popular, 10)
            )
    assert searches == []


def test_a_large_append_falls_back_to_a_search(tiny_tmall_world):
    world = tiny_tmall_world
    engine = _engine(world, _model(world))
    row = _user_row(world, 0)
    engine.recommend_for_user(row, 5)
    searches = []
    search = engine.index.search
    engine.index.search = lambda query, k: searches.append(k) or search(query, k)
    # More than an eighth of the grown catalogue is new.
    n = len(engine.catalogue)
    engine.add_arrivals(_arrivals(world, np.arange(n // 6)))
    top = engine.recommend_for_user(row, 5)
    assert searches == [5]
    np.testing.assert_array_equal(top, _oracle(engine, _user_query(engine, row), 5))
    engine.recommend_for_user(row, 5)
    assert searches == [5]


def test_ivf_engine_never_serves_a_recommend_from_the_cache(tiny_tmall_world):
    """IVF's answer is not the merge's, so every recommend searches; the
    promotion list alone keeps its cache, as it always has."""
    world = tiny_tmall_world
    engine = _engine(
        world, _model(world), index_kind="ivf", ivf_nlist=4, ivf_nprobe=2
    )
    engine.refresh()
    searches = []
    search = engine.index.search
    engine.index.search = lambda query, k: searches.append(k) or search(query, k)
    registry = MetricsRegistry()
    rows = [_user_row(world, user) for user in (0, 1, 0, 1, 0)]
    with use_telemetry(Telemetry(registry=registry)):
        for row in rows:
            top = engine.recommend_for_user(row, 5)
            np.testing.assert_array_equal(
                top, search(_user_query(engine, row), 5)[0]
            )
    assert len(searches) == len(rows)
    assert registry.counter("engine.recommend_result_hits").value == 0
    assert registry.counter("engine.user_vector_hits").value == 3
    first = engine.top_k(5)
    np.testing.assert_array_equal(first, search(engine._popularity_query(), 5)[0])
    np.testing.assert_array_equal(engine.top_k(5), first)
    assert len(searches) == len(rows) + 1


def test_smoke_replay_answers_equal_index_search(tiny_tmall_world, monkeypatch):
    """A small replay in the benchmark's shape -- ticks of views with
    warm bursts, arrivals on most ticks, a periodic full refresh, a promo
    list per tick and recommends from a skewed pool of repeat users --
    with every answer checked against ``index.search`` by a wrapper."""
    world = tiny_tmall_world
    engine = _engine(world, _model(world))
    checked = {"recommend": 0, "top_k": 0}
    recommend, top_k = RealTimeEngine.recommend_for_user, RealTimeEngine.top_k

    def checked_recommend(self, features, k):
        top = recommend(self, features, k)
        query = _user_query(self, features)
        np.testing.assert_array_equal(top, self.index.search(query, k)[0])
        checked["recommend"] += 1
        return top

    def checked_top_k(self, k):
        top = top_k(self, k)
        query = self._popularity_query()
        np.testing.assert_array_equal(top, self.index.search(query, k)[0])
        checked["top_k"] += 1
        return top

    monkeypatch.setattr(RealTimeEngine, "recommend_for_user", checked_recommend)
    monkeypatch.setattr(RealTimeEngine, "top_k", checked_top_k)
    rng = np.random.default_rng(1)
    registry = MetricsRegistry()
    activity = rng.pareto(1.5, size=40) + 1.0
    engine.refresh()
    with use_telemetry(Telemetry(registry=registry)):
        for tick in range(40):
            n = len(engine.catalogue)
            slots = rng.integers(0, n, size=30)
            if tick % 10 == 9:
                slots = np.concatenate([slots, np.full(WARM + 1, slots[0])])
            engine.ingest(
                [
                    Event(EventKind.VIEW, int(slot), int(user), float(tick))
                    for user, slot in enumerate(slots)
                ]
            )
            engine.refresh(full=tick % 15 == 14)
            engine.top_promotion_candidates(10)
            if rng.random() < 0.9:
                engine.add_arrivals(
                    _arrivals(world, rng.integers(0, len(world.items), 2))
                )
            for user in rng.choice(40, size=4, p=activity / activity.sum()):
                engine.recommend_for_user(_user_row(world, int(user)), 10)
    assert checked == {"recommend": 160, "top_k": 40}
    assert registry.counter("engine.recommend_result_hits").value > 0
