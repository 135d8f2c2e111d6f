"""The blocked popularity oracle shared by the synthetic worlds."""

import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import MovieConfig, TmallConfig, common
from repro.data.synthetic import movies as movies_module
from repro.data.synthetic import tmall as tmall_module
from repro.data.synthetic.common import mean_click_probability
from tests.data.test_synthetic_common import masked_sigmoid


def dense_popularity(latents, quality, users, bias, affinity, quality_weight):
    """The whole ``items x users`` matrix at once: the formula as written."""
    logits = (
        bias
        + affinity * latents @ users.T / np.sqrt(latents.shape[1])
        + quality_weight * quality[:, None]
    )
    return masked_sigmoid(logits).mean(axis=1)


def draw(rng, n_items, n_users, dim=6):
    return (
        rng.normal(size=(n_items, dim)),
        rng.normal(size=n_items),
        rng.normal(size=(n_users, dim)),
    )


@pytest.fixture
def recorded_blocks(monkeypatch):
    """Row counts of every block the oracle evaluates."""
    rows = []
    kernel = common.logistic

    def recording(x):
        rows.append(x.shape[0])
        return kernel(x)

    monkeypatch.setattr(common, "logistic", recording)
    return rows


class TestBlockedOracle:
    # 5-row blocks at 40 users; 16 = 3 x 5 + 1 would leave a 1-row tail
    # if the rows were cut into fixed-size blocks.
    @pytest.mark.parametrize("n_items", [0, 1, 2, 3, 4, 7, 11, 16, 21, 53, 101])
    def test_matches_dense_formula(self, n_items, rng, monkeypatch, recorded_blocks):
        n_users = 40
        monkeypatch.setattr(common, "_POPULARITY_BLOCK_BYTES", 5 * n_users * 8)
        latents, quality, users = draw(rng, n_items, n_users)
        got = mean_click_probability(latents, quality, users, -1.2, 1.4, 0.9)
        expected = dense_popularity(latents, quality, users, -1.2, 1.4, 0.9)
        assert got.shape == (n_items,) and got.dtype == np.float64
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
        assert sum(recorded_blocks) == n_items
        if n_items >= common._POPULARITY_MIN_BLOCK_ROWS:
            assert min(recorded_blocks) >= common._POPULARITY_MIN_BLOCK_ROWS
            assert max(recorded_blocks) - min(recorded_blocks) <= 1
        if n_items >= 10:
            assert len(recorded_blocks) > 1

    def test_user_subset(self, rng):
        latents, quality, users = draw(rng, 30, 25)
        subset = users[[0, 3, 7, 11]]
        np.testing.assert_allclose(
            mean_click_probability(latents, quality, subset, 0.3, 1.0, 1.0),
            dense_popularity(latents, quality, subset, 0.3, 1.0, 1.0),
            rtol=1e-13, atol=0,
        )

    def test_peak_memory_is_a_few_blocks(self, rng):
        latents, quality, users = draw(rng, 4_000, 3_000)
        dense_bytes = 4_000 * 3_000 * 8
        tracemalloc.start()
        try:
            mean_click_probability(latents, quality, users, -1.0, 1.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


class TestOneOraclePassPerItemSet:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(latents, *args):
            calls.append(len(latents))
            return mean_click_probability(latents, *args)

        monkeypatch.setattr(tmall_module, "mean_click_probability", counting)
        monkeypatch.setattr(movies_module, "mean_click_probability", counting)
        return calls

    def test_tmall_world(self, calls):
        config = TmallConfig(
            n_users=120, n_items=90, n_new_items=40, n_interactions=500,
            n_categories=4, n_subcategories=8, n_brands=10, n_sellers=12,
        )
        world = tmall_module.generate_tmall_world(config)
        assert sorted(calls) == [40, 90]
        assert world.item_popularity.shape == (90,)
        assert world.new_item_popularity.shape == (40,)

    def test_movie_world(self, calls):
        config = MovieConfig(
            n_users=120, n_movies=90, n_new_movies=40, n_interactions=500
        )
        world = movies_module.generate_movie_world(config)
        assert sorted(calls) == [40, 90]
        assert world.new_movie_popularity.shape == (40,)
