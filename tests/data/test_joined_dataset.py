"""The joined InteractionDataset equals the materialised one it replaced.

Each world's dataset is a join of its entity tables at two row-index
arrays; :mod:`tests.data.reference_dataset` materialises the same join
column by column.  Features, subsets, splits, seeded batches, flat
matrices and saved archives must match it bit for bit, dtype included.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    GROUP_ITEM_PROFILE,
    GROUP_ITEM_STAT,
    GROUP_USER,
    CategoricalFeature,
    FeatureSchema,
    FeatureTable,
    InteractionDataset,
    NumericFeature,
    Side,
    load_interactions,
    save_interactions,
    train_test_split,
)
from repro.data.synthetic import MovieConfig, generate_movie_world, generate_tmall_world
from tests.data.reference_dataset import (
    reference_eleme,
    reference_movies,
    reference_split,
    reference_tmall,
)

ALL_GROUPS = (GROUP_USER, GROUP_ITEM_PROFILE, GROUP_ITEM_STAT)


@pytest.fixture(scope="module")
def tiny_movie_world():
    return generate_movie_world(
        MovieConfig(n_users=200, n_movies=250, n_new_movies=60, n_interactions=5_000)
    )


@pytest.fixture(params=["tmall", "movies", "eleme"])
def joined(request, tiny_tmall_world, tiny_movie_world, tiny_eleme_world):
    """``(joined dataset, its materialised reference)`` for each world."""
    if request.param == "tmall":
        return tiny_tmall_world.interactions, reference_tmall(tiny_tmall_world)
    if request.param == "movies":
        return tiny_movie_world.interactions, reference_movies(tiny_movie_world)
    return tiny_eleme_world.samples, reference_eleme(tiny_eleme_world)


def assert_columns_equal(actual, expected):
    assert list(actual) == list(expected)
    for name, column in expected.items():
        got = actual[name]
        assert got.dtype == column.dtype and got.shape == column.shape, name
        np.testing.assert_array_equal(got, column, err_msg=name)


def assert_same_dataset(actual, expected):
    assert len(actual) == len(expected)
    assert_columns_equal(actual.features, expected.features)
    assert_columns_equal(actual.labels, expected.labels)


class TestMatchesMaterialisedReference:
    def test_features(self, joined):
        assert_same_dataset(*joined)

    def test_subset_with_repeats_and_masks(self, joined):
        dataset, reference = joined
        rows = np.random.default_rng(4).integers(0, len(dataset), size=300)
        assert_same_dataset(dataset.subset(rows), reference.subset(rows))
        mask = np.random.default_rng(5).random(len(dataset)) < 0.3
        assert_same_dataset(dataset.subset(mask), reference.subset(mask))
        twice = np.random.default_rng(6).integers(0, rows.size, size=120)
        assert_same_dataset(
            dataset.subset(rows).subset(twice), reference.subset(rows).subset(twice)
        )

    def test_split(self, joined):
        dataset, reference = joined
        pairs = zip(
            train_test_split(dataset, 0.2, np.random.default_rng(11)),
            reference_split(reference, 0.2, np.random.default_rng(11)),
        )
        for actual, expected in pairs:
            assert_same_dataset(actual, expected)

    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("drop_last", [True, False])
    def test_seeded_batches(self, joined, shuffle, drop_last):
        dataset, reference = joined
        train, _ = train_test_split(dataset, 0.2, np.random.default_rng(3))
        train_ref, _ = reference_split(reference, 0.2, np.random.default_rng(3))
        for epoch in range(2):
            rng = np.random.default_rng(epoch) if shuffle else None
            rng_ref = np.random.default_rng(epoch) if shuffle else None
            actual = list(train.iter_batches(97, rng=rng, drop_last=drop_last))
            expected = list(train_ref.iter_batches(97, rng=rng_ref, drop_last=drop_last))
            assert len(actual) == len(expected)
            for got, want in zip(actual, expected):
                assert got.size == want.size
                assert_columns_equal(got.features, want.features)
                assert_columns_equal(got.labels, want.labels)

    @pytest.mark.parametrize("groups", [ALL_GROUPS, (GROUP_USER,), (GROUP_ITEM_STAT,)])
    def test_feature_matrix(self, joined, groups):
        dataset, reference = joined
        _, test = train_test_split(dataset, 0.2, np.random.default_rng(8))
        _, test_ref = reference_split(reference, 0.2, np.random.default_rng(8))
        matrix, expected = test.feature_matrix(groups), test_ref.feature_matrix(groups)
        assert matrix.dtype == expected.dtype and matrix.flags.c_contiguous
        np.testing.assert_array_equal(matrix, expected)

    def test_save_load_roundtrip(self, joined, tmp_path):
        dataset, reference = joined
        path = tmp_path / "joined.npz"
        save_interactions(dataset, path)
        loaded = load_interactions(path, dataset.schema)
        assert [side.rows for side in loaded.sides] == [None]
        assert_same_dataset(loaded, reference)


class TestSharedEntityTables:
    def test_world_indices_are_the_side_rows(self, tiny_tmall_world):
        users, items = tiny_tmall_world.interactions.sides
        assert users.rows is tiny_tmall_world.interaction_user_indices
        assert items.rows is tiny_tmall_world.interaction_item_indices
        assert users.table["user_id"] is tiny_tmall_world.users["user_id"]
        assert items.table["item_brand"] is tiny_tmall_world.items["item_brand"]

    def test_splits_share_the_entity_tables(self, tiny_tmall_world):
        dataset = tiny_tmall_world.interactions
        train, test = train_test_split(dataset, 0.2, np.random.default_rng(0))
        for split in (train, test):
            for side, parent in zip(split.sides, dataset.sides):
                assert side.table is parent.table

    def test_features_gather_only_what_is_read(self, tiny_tmall_world):
        features = tiny_tmall_world.interactions.features
        assert "user_id" in features and "nope" not in features
        assert features["user_id"] is features["user_id"]  # gathered once per view
        assert len(features._read) == 1

    def test_identity_batches_are_views(self):
        table = FeatureTable({"a": np.arange(6)})
        side = Side(table)
        np.testing.assert_array_equal(side.gather(2, 4)["a"], [2, 3])
        assert side.gather(2, 4)["a"].base is table["a"]


def _schema_and_tables():
    schema = FeatureSchema(
        [CategoricalFeature("uid", 4, 2, GROUP_USER)],
        [NumericFeature("pv", GROUP_ITEM_STAT)],
    )
    users = FeatureTable({"uid": np.arange(4)})
    items = FeatureTable({"pv": np.linspace(0.0, 1.0, 3)})
    return schema, users, items


class TestSideValidation:
    def test_rows_out_of_range_rejected(self):
        schema, users, items = _schema_and_tables()
        with pytest.raises(ValueError, match="must lie in"):
            InteractionDataset(
                schema,
                [Side(users, np.array([0, 4])), Side(items, np.array([0, 1]))],
                {"ctr": np.zeros(2)},
            )
        with pytest.raises(ValueError, match="must lie in"):
            InteractionDataset(
                schema,
                [Side(users, np.array([0, -1])), Side(items, np.array([0, 1]))],
                {"ctr": np.zeros(2)},
            )

    def test_row_counts_must_agree(self):
        schema, users, items = _schema_and_tables()
        with pytest.raises(ValueError, match="row count"):
            InteractionDataset(
                schema,
                [Side(users, np.array([0, 1, 2])), Side(items, np.array([0, 1]))],
                {"ctr": np.zeros(3)},
            )

    def test_column_in_two_sides_rejected(self):
        schema, users, items = _schema_and_tables()
        with pytest.raises(ValueError, match="two sides"):
            InteractionDataset(
                schema,
                [Side(users, np.array([0])), Side(items, np.array([0])),
                 Side(users, np.array([1]))],
                {"ctr": np.zeros(1)},
            )

    def test_float_rows_rejected(self):
        schema, users, items = _schema_and_tables()
        with pytest.raises(ValueError, match="integer"):
            InteractionDataset(
                schema,
                [Side(users, np.array([0.0])), Side(items, np.array([0]))],
                {"ctr": np.zeros(1)},
            )


def test_default_world_and_split_keep_under_15_mb():
    """The joined dataset holds index arrays, not copies of the features.

    A default Tmall world with its 80/20 split kept about 76 MB live when
    every split materialised all 33 feature columns.
    """
    tracemalloc.start()
    try:
        world = generate_tmall_world()
        splits = train_test_split(world.interactions, 0.2, np.random.default_rng(0))
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(splits[0]) + len(splits[1]) == len(world.interactions)
    assert live < 15 * 2**20, f"{live / 2**20:.1f} MB live"
