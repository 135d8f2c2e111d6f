"""Tests for the real-time serving simulation."""

import numpy as np
import pytest

from repro.core import ATNN, TowerConfig
from repro.nn import default_dtype
from repro.nn.optim import Adam
from repro.nn.tensor import no_grad
from repro.obs import MetricsRegistry, Telemetry, use_telemetry
from repro.serving import (
    EngineConfig,
    Event,
    EventKind,
    ItemStatisticsStore,
    RealTimeEngine,
    generate_event_stream,
)


@pytest.fixture(scope="module")
def serving_model(tiny_tmall_world):
    return ATNN(
        tiny_tmall_world.schema,
        TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                    num_cross_layers=1),
        rng=np.random.default_rng(5),
    )


@pytest.fixture
def engine(tiny_tmall_world, serving_model):
    return RealTimeEngine(
        serving_model,
        tiny_tmall_world.new_items,
        tiny_tmall_world.active_user_group(0.2),
        EngineConfig(warm_view_threshold=5),
    )


class TestEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event("swipe", 0, 0, 0.0)
        with pytest.raises(ValueError):
            Event(EventKind.VIEW, -1, 0, 0.0)

    def test_stream_generation(self, tiny_tmall_world, rng):
        events = generate_event_stream(
            tiny_tmall_world, np.arange(50), n_events=200, rng=rng
        )
        # Views plus funnel events.
        views = [e for e in events if e.kind == EventKind.VIEW]
        assert len(views) == 200
        assert len(events) > 200
        assert all(0 <= e.item_id < 50 for e in events)

    def test_popular_items_get_more_views(self, tiny_tmall_world, rng):
        world = tiny_tmall_world
        indices = np.arange(len(world.new_items))
        events = generate_event_stream(world, indices, n_events=5000, rng=rng)
        counts = np.zeros(indices.size)
        for event in events:
            if event.kind == EventKind.VIEW:
                counts[event.item_id] += 1
        corr = np.corrcoef(counts, world.new_item_popularity)[0, 1]
        assert corr > 0.3

    def test_invalid_args_rejected(self, tiny_tmall_world, rng):
        with pytest.raises(ValueError):
            generate_event_stream(tiny_tmall_world, [], 10, rng)
        with pytest.raises(ValueError):
            generate_event_stream(tiny_tmall_world, [0], 0, rng)


class TestStatisticsStore:
    def test_counters_update(self):
        store = ItemStatisticsStore(3)
        store.ingest(
            [
                Event(EventKind.VIEW, 0, 1, 0.0),
                Event(EventKind.VIEW, 0, 2, 1.0),
                Event(EventKind.CLICK, 0, 1, 2.0),
                Event(EventKind.PURCHASE, 0, 1, 3.0),
            ]
        )
        counters = store.counters(0)
        assert counters.views == 2
        assert counters.clicks == 1
        assert counters.purchases == 1
        assert counters.ctr == 0.5
        assert len(counters.unique_users) == 2

    def test_out_of_range_slot_rejected(self):
        store = ItemStatisticsStore(2)
        with pytest.raises(IndexError):
            store.ingest([Event(EventKind.VIEW, 5, 0, 0.0)])

    def test_warm_slots_threshold(self):
        store = ItemStatisticsStore(3)
        store.ingest([Event(EventKind.VIEW, 1, 0, 0.0)] * 10)
        np.testing.assert_array_equal(store.warm_slots(5), [1])
        assert store.warm_slots(11).size == 0

    def test_feature_columns_schema_names(self):
        store = ItemStatisticsStore(4)
        store.ingest([Event(EventKind.VIEW, 0, 0, 0.0)] * 3)
        columns = store.feature_columns(np.arange(4))
        assert set(columns) == set(ItemStatisticsStore.STAT_COLUMNS)
        for values in columns.values():
            assert values.shape == (4,)

    def test_untrafficked_slots_zero(self):
        store = ItemStatisticsStore(3)
        store.ingest([Event(EventKind.VIEW, 0, 0, 0.0)] * 5)
        columns = store.feature_columns([1, 2])
        for values in columns.values():
            np.testing.assert_allclose(values, 0.0)

    def test_empty_store_all_zero(self):
        store = ItemStatisticsStore(2)
        columns = store.feature_columns([0, 1])
        for values in columns.values():
            np.testing.assert_allclose(values, 0.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ItemStatisticsStore(0)
        with pytest.raises(ValueError):
            ItemStatisticsStore(2).warm_slots(0)


class TestRealTimeEngine:
    def test_cold_scores_are_probabilities(self, engine, tiny_tmall_world):
        scores = engine.refresh()
        assert scores.shape == (len(tiny_tmall_world.new_items),)
        assert scores.min() > 0.0 and scores.max() < 1.0

    def test_lazy_refresh_on_ingest(self, engine, tiny_tmall_world, rng):
        first = engine.scores()
        events = generate_event_stream(
            tiny_tmall_world, np.arange(20), n_events=300, rng=rng
        )
        engine.ingest(events)
        second = engine.scores()  # triggers a refresh because stale
        assert engine.refreshes == 2
        assert not np.allclose(first, second)

    def test_warm_items_use_encoder_path(self, engine, tiny_tmall_world, rng):
        cold = engine.refresh().copy()
        events = generate_event_stream(
            tiny_tmall_world, np.array([3]), n_events=200, rng=rng
        )
        engine.ingest(events)
        warm = engine.refresh()
        # Slot 3 is warm and re-scored through the encoder; a slot with no
        # traffic keeps its generator score.
        assert warm[3] != cold[3]
        untouched = [s for s in range(len(cold)) if s != 3][0]
        assert warm[untouched] == pytest.approx(cold[untouched])

    def test_top_promotion_candidates_sorted(self, engine):
        top = engine.top_promotion_candidates(5)
        scores = engine.scores()
        assert len(top) == 5
        assert np.all(np.diff(scores[top]) <= 0)

    def test_top_k_validation(self, engine):
        with pytest.raises(ValueError):
            engine.top_promotion_candidates(0)

    def test_recommend_for_user(self, engine, tiny_tmall_world):
        user_row = {
            name: tiny_tmall_world.users[name][:1]
            for name in tiny_tmall_world.schema.all_column_names("user")
        }
        recommendations = engine.recommend_for_user(user_row, k=4)
        assert len(recommendations) == 4
        assert len(set(recommendations)) == 4

    def test_recommend_missing_features_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.recommend_for_user({"user_id": np.array([0])}, k=3)

    def test_recommend_rejects_multi_row_features(self, engine, tiny_tmall_world):
        two_rows = {
            name: tiny_tmall_world.users[name][:2]
            for name in tiny_tmall_world.schema.all_column_names("user")
        }
        with pytest.raises(ValueError, match="one row"):
            engine.recommend_for_user(two_rows, k=3)

    @pytest.mark.parametrize("k", [0, -1, 10_000])
    def test_recommend_checks_k_before_the_user_tower(
        self, engine, tiny_tmall_world, monkeypatch, k
    ):
        user_row = {
            name: tiny_tmall_world.users[name][:1]
            for name in tiny_tmall_world.schema.all_column_names("user")
        }
        engine.scores()
        calls = []
        original = engine.model.user_vectors
        monkeypatch.setattr(
            engine.model,
            "user_vectors",
            lambda features: calls.append(features) or original(features),
        )
        with pytest.raises(ValueError, match="k must be"):
            engine.recommend_for_user(user_row, k=k)
        assert calls == []

    def test_recommendations_personalised(self, engine, tiny_tmall_world):
        """Two users from different segments should not always agree."""
        world = tiny_tmall_world
        segments = world.user_segments
        user_a = int(np.flatnonzero(segments == segments[0])[0])
        user_b = int(np.flatnonzero(segments != segments[0])[0])
        rows = []
        for user in (user_a, user_b):
            rows.append(
                {
                    name: world.users[name][user : user + 1]
                    for name in world.schema.all_column_names("user")
                }
            )
        rec_a = engine.recommend_for_user(rows[0], k=10)
        rec_b = engine.recommend_for_user(rows[1], k=10)
        assert not np.array_equal(rec_a, rec_b)

    def test_invalid_engine_config_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(warm_view_threshold=0)


def _user_row(world, user, dtype=None):
    return {
        name: (
            world.users[name][user : user + 1]
            if dtype is None or world.users[name].dtype.kind == "f"
            else world.users[name][user : user + 1].astype(dtype)
        )
        for name in world.schema.all_column_names("user")
    }


def _uncached_vector(model, row):
    """The user tower run from scratch, as the engine runs it."""
    model.eval()
    with no_grad():
        return model.user_tower(row).data[0]


class TestUserVectorCache:
    """Repeat users skip the tower; every answer equals the uncached one."""

    @pytest.fixture
    def model(self, tiny_tmall_world):
        # Function-scoped: these tests write the weights.
        return ATNN(
            tiny_tmall_world.schema,
            TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                        num_cross_layers=1),
            rng=np.random.default_rng(5),
        )

    @pytest.fixture
    def cached_engine(self, tiny_tmall_world, model):
        return RealTimeEngine(
            model,
            tiny_tmall_world.new_items,
            tiny_tmall_world.active_user_group(0.2),
            EngineConfig(warm_view_threshold=5),
        )

    @pytest.fixture
    def served(self, cached_engine, monkeypatch):
        """Every query the engine searches its index with, how many times
        it runs the user tower, and the index's own (unspied) search."""
        log = {"queries": [], "tower_calls": 0}
        cached_engine.scores()
        index = cached_engine.index
        search = log["search"] = index.search

        def spy_search(query, k):
            log["queries"].append(np.array(query, copy=True))
            return search(query, k)

        monkeypatch.setattr(index, "search", spy_search)
        model = cached_engine.model
        user_vectors = model.user_vectors

        def spy_user_vectors(features):
            log["tower_calls"] += 1
            return user_vectors(features)

        monkeypatch.setattr(model, "user_vectors", spy_user_vectors)
        return log

    def _expect(self, engine, row, served, k=5):
        """Serve ``row``; assert it equals the answer of an engine with no
        cache -- the tower run from scratch, then one index search -- bit
        for bit."""
        model = engine.model
        vector = _uncached_vector(model, row)
        query = model.scoring_head.weight.data * vector
        top = engine.recommend_for_user(row, k=k)
        np.testing.assert_array_equal(top, served["search"](query, k)[0])

    def test_replay_with_repeat_users_matches_uncached_tower(
        self, cached_engine, served, tiny_tmall_world, rng
    ):
        users = rng.integers(0, 12, size=60)
        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            for user in users:
                self._expect(
                    cached_engine, _user_row(tiny_tmall_world, user), served
                )
        distinct = np.unique(users).size
        assert served["tower_calls"] == distinct
        # Nothing was written to the index: a repeat user sends no query.
        assert len(served["queries"]) == distinct
        hits = registry.counter("engine.user_vector_hits").value
        assert hits == users.size - distinct
        results = registry.counter("engine.recommend_result_hits").value
        assert results == users.size - distinct
        assert registry.counter("engine.recommend_requests").value == users.size

    @pytest.mark.parametrize(
        "change", ["adam_step", "assign_", "load_state_dict", "to_dtype"]
    )
    def test_weight_change_forces_a_miss(
        self, cached_engine, served, tiny_tmall_world, change
    ):
        engine = cached_engine
        model = engine.model
        row = _user_row(tiny_tmall_world, 3)
        engine.recommend_for_user(row, k=5)
        engine.recommend_for_user(row, k=5)
        assert served["tower_calls"] == 1
        before = served["queries"][-1]

        tower = model.user_tower
        if change == "adam_step":
            optimizer = Adam(tower.parameters(), lr=0.05)
            out = tower(row)
            (out * out).sum().backward()
            optimizer.step()
        elif change == "assign_":
            weight = tower.head.parameters()[0]
            weight.assign_(weight.data * 2.0)
        elif change == "load_state_dict":
            other = ATNN(
                tiny_tmall_world.schema,
                TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                            num_cross_layers=1),
                rng=np.random.default_rng(6),
            )
            tower.load_state_dict(other.user_tower.state_dict())
        else:
            tower.to_dtype(np.float32)

        engine.recommend_for_user(row, k=5)
        assert served["tower_calls"] == 2
        assert not np.array_equal(served["queries"][-1], before)
        self._expect(engine, row, served)

    def test_default_dtype_change_forces_a_miss(
        self, cached_engine, served, tiny_tmall_world
    ):
        # The tower assembles numeric columns in the default dtype.
        row = _user_row(tiny_tmall_world, 4)
        self._expect(cached_engine, row, served)
        with default_dtype(np.float32):
            self._expect(cached_engine, row, served)
        self._expect(cached_engine, row, served)

    def test_dtype_is_part_of_the_key(
        self, cached_engine, served, tiny_tmall_world
    ):
        engine = cached_engine
        rows = [
            _user_row(tiny_tmall_world, 7, dtype=np.int32),
            _user_row(tiny_tmall_world, 7, dtype=np.int64),
        ]
        # Same bytes, another dtype: a float column read as int64 is
        # another user row.
        reinterpreted = dict(rows[1])
        reinterpreted["user_activity"] = rows[1]["user_activity"].view(np.int64)
        rows.append(reinterpreted)
        for row in rows + rows:
            self._expect(engine, row, served)
        # One tower run and one search per key, even for the two rows
        # whose values (and so queries) are equal.
        assert served["tower_calls"] == 3
        assert len(served["queries"]) == 3
        # An object column's bytes are pointers, not values: never cached.
        boxed = dict(rows[1])
        boxed["user_activity"] = rows[1]["user_activity"].astype(object)
        for _ in range(2):
            self._expect(engine, boxed, served)
        assert served["tower_calls"] == 5
        assert len(served["queries"]) == 5

    def test_cache_is_cleared_at_the_bound(
        self, cached_engine, served, tiny_tmall_world, monkeypatch
    ):
        import repro.serving.engine as engine_module

        monkeypatch.setattr(engine_module, "_USER_VECTOR_CACHE_SIZE", 3)
        engine = cached_engine
        rows = [_user_row(tiny_tmall_world, user) for user in range(4)]
        for row in rows:
            engine.recommend_for_user(row, k=5)
            assert len(engine._users) <= 3
        assert served["tower_calls"] == 4
        engine.recommend_for_user(rows[3], k=5)  # kept after the clear
        assert served["tower_calls"] == 4
        for row in rows[:3]:  # dropped by the clear
            self._expect(engine, row, served)
        assert served["tower_calls"] == 4 + 3

    def test_rejected_requests_leave_the_cache_unchanged(
        self, cached_engine, served, tiny_tmall_world
    ):
        engine = cached_engine
        row = _user_row(tiny_tmall_world, 2)
        engine.recommend_for_user(row, k=5)
        cache = dict(engine._users)
        stamp = engine._user_stamp
        missing = dict(_user_row(tiny_tmall_world, 9))
        del missing["user_age_bucket"]
        two_rows = {
            name: tiny_tmall_world.users[name][:2]
            for name in tiny_tmall_world.schema.all_column_names("user")
        }
        with pytest.raises(KeyError, match="user_age_bucket"):
            engine.recommend_for_user(missing, k=5)
        with pytest.raises(ValueError, match="one row"):
            engine.recommend_for_user(two_rows, k=5)
        with pytest.raises(ValueError, match="k must be"):
            engine.recommend_for_user(_user_row(tiny_tmall_world, 9), k=0)
        assert served["tower_calls"] == 1
        assert engine._user_stamp is stamp
        assert engine._users.keys() == cache.keys()
        assert all(engine._users[key] is cache[key] for key in cache)


class TestIncrementalRefresh:
    def test_incremental_matches_full_for_touched_slots(
        self, engine, tiny_tmall_world, rng
    ):
        engine.refresh()
        events = generate_event_stream(
            tiny_tmall_world, np.array([3, 8]), n_events=250, rng=rng
        )
        engine.ingest(events)
        incremental = engine.refresh().copy()
        # A full pass from the same store state is the exact reference.
        full = engine.refresh(full=True)
        np.testing.assert_allclose(incremental[[3, 8]], full[[3, 8]])

    def test_incremental_rescored_only_dirty_warm_slots(
        self, engine, tiny_tmall_world, rng
    ):
        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            engine.refresh()
            events = generate_event_stream(
                tiny_tmall_world, np.array([3]), n_events=200, rng=rng
            )
            engine.ingest(events)
            engine.refresh()
        rescored = registry.counter("engine.slots_rescored").value
        # First refresh had no warm slots; second re-scored only slot 3.
        assert rescored == 1

    def test_cold_dirty_slots_keep_generator_scores(
        self, engine, tiny_tmall_world, rng
    ):
        """Events below the warm threshold don't perturb generator scores."""
        cold = engine.refresh().copy()
        events = [Event(EventKind.VIEW, item_id=6, user_id=0, timestamp=0.0)]
        engine.ingest(events)
        second = engine.scores()
        np.testing.assert_allclose(second, cold)

    def test_unchanged_model_full_refresh_skips_the_generator(
        self, engine, monkeypatch
    ):
        engine.refresh()
        first_generator = engine._generator_vectors
        expected = first_generator.copy()
        calls = []
        monkeypatch.setattr(
            engine, "_generator_vectors_for", lambda slots: calls.append(slots)
        )
        engine.refresh(full=True)
        # Same weights, same profiles: the cached vectors are reused as is.
        assert calls == []
        assert engine._generator_vectors is first_generator
        np.testing.assert_array_equal(engine._generator_vectors, expected)


class TestTopKCache:
    def test_top_k_full_size(self, engine):
        scores = engine.scores()
        order = engine.top_k(scores.size)
        assert len(order) == scores.size
        assert np.all(np.diff(scores[order]) <= 0)
        assert set(order.tolist()) == set(range(scores.size))

    def test_top_k_matches_promotion_candidates(self, engine):
        np.testing.assert_array_equal(
            engine.top_k(7), engine.top_promotion_candidates(7)
        )

    @pytest.fixture
    def searches(self, engine, monkeypatch):
        """The queries and ``k`` the engine searches its index with."""
        engine.scores()
        log = []
        search = engine.index.search
        monkeypatch.setattr(
            engine.index,
            "search",
            lambda query, k: log.append((query, k)) or search(query, k),
        )
        return log

    def test_smaller_k_served_from_cached_order(self, engine, searches):
        order_9 = engine.top_k(9)
        top_3 = engine.top_k(3)
        assert len(searches) == 1  # k <= cached k: a slice, no search
        np.testing.assert_array_equal(top_3, order_9[:3])

    def test_larger_k_recomputes(self, engine, searches):
        engine.top_k(3)
        engine.top_k(9)
        assert [k for _, k in searches] == [3, 9]
        engine.top_k(9)
        assert len(searches) == 2

    def test_order_invalidated_by_warm_dirty_refresh(
        self, engine, searches, tiny_tmall_world, rng
    ):
        engine.top_k(3)
        events = generate_event_stream(
            tiny_tmall_world, np.array([3]), n_events=200, rng=rng
        )
        engine.ingest(events)
        engine.scores()  # partial refresh rewrites slot 3's index row
        top = engine.top_k(3)
        assert len(searches) == 2  # the rewrite ended the cached order
        np.testing.assert_array_equal(
            top, engine.index.search(engine._popularity_query(), 3)[0]
        )

    def test_order_survives_cold_only_ingest(self, engine, searches):
        """Events below the warm threshold leave scores — and the cached
        top-k order — untouched."""
        first = engine.top_k(5)
        engine.ingest([Event(EventKind.VIEW, item_id=6, user_id=0, timestamp=0.0)])
        engine.scores()  # refresh runs, but no slot was re-scored
        np.testing.assert_array_equal(engine.top_k(5), first)
        assert len(searches) == 1

    def test_order_survives_arrivals_and_admits_a_better_item(
        self, engine, searches
    ):
        """New rows merge into the cached order, so a new item scoring
        above the k-th enters it without an index search."""
        top = engine.top_k(5)
        names = engine.model.schema.all_column_names("item_profile")
        # A copy of the best item scores with it, above the 5th.
        copy = type(engine.catalogue)(
            {name: engine.catalogue[name][top[:1]] for name in names}
        )
        (slot,) = engine.add_arrivals(copy)
        merged = engine.top_k(5)
        assert len(searches) == 1
        assert slot in merged
        scores = engine.scores()
        np.testing.assert_allclose(scores[merged], np.sort(scores)[::-1][:5])

    def test_top_k_validation_bounds(self, engine):
        scores = engine.scores()
        with pytest.raises(ValueError):
            engine.top_k(0)
        with pytest.raises(ValueError):
            engine.top_k(scores.size + 1)


class TestMIPSIndexServing:
    """The engine's retrieval queries route through the MIPS index."""

    def test_index_built_on_first_refresh(self, engine):
        assert engine.index is None
        engine.refresh()
        assert engine.index is not None
        assert len(engine.index) == len(engine.catalogue)

    def test_top_k_matches_score_order(self, engine):
        scores = engine.scores()
        top = engine.top_k(10)
        np.testing.assert_allclose(
            scores[top], np.sort(scores)[::-1][:10]
        )

    def test_recommend_matches_exact_personal_scores(
        self, engine, tiny_tmall_world
    ):
        """The index-served personalised top-k equals the dense ranking."""
        from repro.data.synthetic.common import sigmoid

        world = tiny_tmall_world
        user_row = {
            name: world.users[name][:1]
            for name in world.schema.all_column_names("user")
        }
        recommendations = engine.recommend_for_user(user_row, k=6)
        # Dense reference: sigmoid(iv @ (w ⊙ u) + b), ranked descending.
        model = engine.model
        from repro.nn.tensor import no_grad

        model.eval()
        with no_grad():
            user_vector = model.user_vectors(user_row).data[0]
        head = model.scoring_head
        personal = sigmoid(
            engine._item_vectors @ (head.weight.data * user_vector)
            + head.bias.data[0]
        )
        np.testing.assert_allclose(
            personal[recommendations], np.sort(personal)[::-1][:6]
        )

    def test_ivf_engine_with_full_probe_matches_bruteforce(
        self, tiny_tmall_world, serving_model, rng
    ):
        world = tiny_tmall_world
        exact = RealTimeEngine(
            serving_model,
            world.new_items,
            world.active_user_group(0.2),
            EngineConfig(warm_view_threshold=5),
        )
        approx = RealTimeEngine(
            serving_model,
            world.new_items,
            world.active_user_group(0.2),
            EngineConfig(
                warm_view_threshold=5,
                index_kind="ivf",
                ivf_nlist=8,
                ivf_nprobe=8,  # full probe: exact
            ),
        )
        events = generate_event_stream(
            world, np.arange(30), n_events=400, rng=rng
        )
        for eng in (exact, approx):
            eng.refresh()
            eng.ingest(events)
        assert set(exact.top_k(12).tolist()) == set(approx.top_k(12).tolist())

    def test_dirty_slot_refresh_updates_index_rows_in_place(
        self, engine, tiny_tmall_world, rng
    ):
        """After a partial refresh the index rows equal the live vectors —
        no rebuild, no stale entries."""
        engine.refresh()
        index_before = engine.index
        events = generate_event_stream(
            tiny_tmall_world, np.array([3, 8]), n_events=250, rng=rng
        )
        engine.ingest(events)
        engine.refresh()
        assert engine.index is index_before  # same object, updated in place
        np.testing.assert_allclose(
            np.asarray(engine.index.vectors, dtype=np.float64),
            engine._item_vectors,
        )

    def test_invalid_index_config_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(index_kind="faiss")
        with pytest.raises(ValueError):
            EngineConfig(index_kind="ivf", ivf_nprobe=0)


class TestAddArrivals:
    """Catalogue growth: new cold items are searchable immediately."""

    def _arrivals(self, world, rows):
        names = world.schema.all_column_names("item_profile")
        return type(world.new_items)(
            {name: world.items[name][rows] for name in names}
        )

    def test_new_items_searchable_without_refresh(
        self, engine, tiny_tmall_world
    ):
        engine.refresh()
        n_before = len(engine.catalogue)
        refreshes_before = engine.refreshes
        arrivals = self._arrivals(tiny_tmall_world, np.arange(4))
        slots = engine.add_arrivals(arrivals)
        np.testing.assert_array_equal(
            slots, np.arange(n_before, n_before + 4)
        )
        assert len(engine.catalogue) == n_before + 4
        assert len(engine.index) == n_before + 4
        assert engine.scores().shape == (n_before + 4,)
        assert engine.refreshes == refreshes_before  # no refresh happened
        # The full ranking now includes the new slots.
        order = engine.top_k(n_before + 4)
        assert set(slots.tolist()) <= set(order.tolist())

    def test_new_item_scores_match_generator_path(
        self, engine, tiny_tmall_world
    ):
        """add_arrivals scores equal what a full refresh would compute."""
        engine.refresh()
        arrivals = self._arrivals(tiny_tmall_world, np.arange(6))
        slots = engine.add_arrivals(arrivals)
        incremental = engine.scores()[slots].copy()
        full = engine.refresh(full=True)[slots]
        np.testing.assert_allclose(incremental, full)

    def test_store_grows_and_ingests_for_new_slots(
        self, engine, tiny_tmall_world
    ):
        engine.refresh()
        slots = engine.add_arrivals(self._arrivals(tiny_tmall_world, [0]))
        new_slot = int(slots[0])
        engine.ingest(
            [Event(EventKind.VIEW, item_id=new_slot, user_id=1, timestamp=0.0)]
        )
        assert engine.store.counters(new_slot).views == 1

    def test_arrivals_before_first_refresh(self, engine, tiny_tmall_world):
        slots = engine.add_arrivals(self._arrivals(tiny_tmall_world, [0, 1]))
        scores = engine.scores()  # first refresh covers everything
        assert scores.shape == (len(engine.catalogue),)
        assert len(engine.index) == len(engine.catalogue)
        assert slots[-1] == len(engine.catalogue) - 1

    def test_missing_profile_columns_rejected(self, engine, tiny_tmall_world):
        from repro.data.dataset import FeatureTable

        engine.refresh()
        with pytest.raises(KeyError):
            engine.add_arrivals(FeatureTable({"brand_id": np.array([0])}))

    def test_store_grow_validation(self):
        with pytest.raises(ValueError):
            ItemStatisticsStore(3).grow(0)
