"""K-means and segmented-popularity tests."""

import numpy as np
import pytest

from repro.core import ATNN, SegmentedPopularityPredictor, TowerConfig, kmeans
from repro.core.clustering import _cluster_means, _kmeans_pp_init, _nearest


def _loop_lloyd_step(points, centroids):
    """Reference Lloyd step: explicit distances, one mask per cluster."""
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assignments = distances.argmin(axis=1)
    means = centroids.copy()
    for cluster in range(centroids.shape[0]):
        members = points[assignments == cluster]
        if members.size:
            means[cluster] = members.mean(axis=0)
    return assignments, means


def _loop_kmeans(points, k, rng, max_iterations=100, tolerance=1e-6):
    centroids = _kmeans_pp_init(points, k, rng)
    for _ in range(max_iterations):
        _, means = _loop_lloyd_step(points, centroids)
        movement = float(np.abs(means - centroids).sum())
        centroids = means
        if movement < tolerance:
            break
    return _loop_lloyd_step(points, centroids)[0], centroids


class TestKMeans:
    def test_recovers_separated_clusters(self, rng):
        centres = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        points = np.concatenate(
            [centre + rng.normal(0, 0.3, size=(50, 2)) for centre in centres]
        )
        result = kmeans(points, 3, rng=rng)
        # Each true cluster maps to exactly one fitted cluster.
        for block in range(3):
            block_assignments = result.assignments[block * 50 : (block + 1) * 50]
            assert len(set(block_assignments)) == 1
        assert len(set(result.assignments)) == 3

    def test_centroids_near_true_centres(self, rng):
        centres = np.array([[0.0, 0.0], [8.0, 8.0]])
        points = np.concatenate(
            [centre + rng.normal(0, 0.2, size=(100, 2)) for centre in centres]
        )
        result = kmeans(points, 2, rng=rng)
        fitted = result.centroids[np.argsort(result.centroids[:, 0])]
        np.testing.assert_allclose(fitted, centres, atol=0.2)

    def test_inertia_decreases_with_k(self, rng):
        points = rng.normal(size=(200, 3))
        inertia_2 = kmeans(points, 2, rng=np.random.default_rng(0)).inertia
        inertia_8 = kmeans(points, 8, rng=np.random.default_rng(0)).inertia
        assert inertia_8 < inertia_2

    def test_k_equals_one_gives_mean(self, rng):
        points = rng.normal(size=(50, 2))
        result = kmeans(points, 1, rng=rng)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0))

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(5, 2))
        result = kmeans(points, 5, rng=rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_identical_points_safe(self, rng):
        points = np.ones((20, 3))
        result = kmeans(points, 3, rng=rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_predict_assigns_nearest(self, rng):
        points = np.array([[0.0, 0.0], [10.0, 10.0]]).repeat(10, axis=0)
        result = kmeans(points, 2, rng=rng)
        assignments = result.predict(np.array([[0.5, 0.5], [9.0, 9.5]]))
        assert assignments[0] != assignments[1]

    def test_predict_shape_checked(self, rng):
        result = kmeans(rng.normal(size=(10, 2)), 2, rng=rng)
        with pytest.raises(ValueError):
            result.predict(np.zeros((3, 5)))

    def test_invalid_args_rejected(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            kmeans(points, 0, rng=rng)
        with pytest.raises(ValueError):
            kmeans(points, 11, rng=rng)
        with pytest.raises(ValueError):
            kmeans(points.reshape(-1), 2, rng=rng)

    def test_deterministic_under_seed(self, rng):
        points = rng.normal(size=(60, 2))
        a = kmeans(points, 3, rng=np.random.default_rng(7))
        b = kmeans(points, 3, rng=np.random.default_rng(7))
        np.testing.assert_allclose(a.centroids, b.centroids)


class TestVectorisedLloyd:
    """The affinity-form assignment and reduceat means match the loop."""

    @pytest.mark.parametrize("seed", range(5))
    def test_step_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(600, 7))
        centroids = points[rng.choice(600, size=12, replace=False)].copy()
        centroids[3] = 1e3  # far from every point: an empty cluster
        assignments, _ = _nearest(points, centroids)
        means = _cluster_means(points, assignments, centroids)
        ref_assignments, ref_means = _loop_lloyd_step(points, centroids)
        np.testing.assert_array_equal(assignments, ref_assignments)
        np.testing.assert_allclose(means, ref_means, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(means[3], centroids[3])

    @pytest.mark.parametrize("seed", range(3))
    def test_fit_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        centres = rng.normal(scale=4.0, size=(6, 5))
        points = centres[rng.integers(0, 6, size=900)] + rng.normal(
            size=(900, 5)
        )
        result = kmeans(points, 9, rng=np.random.default_rng(seed))
        ref_assignments, ref_centroids = _loop_kmeans(
            points, 9, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(result.assignments, ref_assignments)
        np.testing.assert_allclose(
            result.centroids, ref_centroids, rtol=0, atol=1e-10
        )
        ref_inertia = ((points - ref_centroids[ref_assignments]) ** 2).sum()
        assert result.inertia == pytest.approx(ref_inertia, rel=1e-9)


class TestSegmentedPredictor:
    @pytest.fixture(scope="class")
    def predictor(self, tiny_tmall_world):
        model = ATNN(
            tiny_tmall_world.schema,
            TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                        num_cross_layers=1),
            rng=np.random.default_rng(3),
        )
        predictor = SegmentedPopularityPredictor(model, n_segments=3)
        predictor.fit_user_group(
            tiny_tmall_world.active_user_group(0.3),
            rng=np.random.default_rng(0),
        )
        return predictor

    def test_scoring_before_fit_rejected(self, tiny_tmall_world):
        model = ATNN(
            tiny_tmall_world.schema,
            TowerConfig(vector_dim=8, deep_dims=(16,), head_dims=(8,)),
            rng=np.random.default_rng(3),
        )
        predictor = SegmentedPopularityPredictor(model, n_segments=2)
        with pytest.raises(RuntimeError):
            predictor.segment_scores(tiny_tmall_world.new_items)

    def test_segment_matrix_shape(self, predictor, tiny_tmall_world):
        matrix = predictor.segment_scores(tiny_tmall_world.new_items)
        assert matrix.shape == (len(tiny_tmall_world.new_items), 3)
        assert matrix.min() > 0 and matrix.max() < 1

    def test_mean_aggregation_is_weighted_average(self, predictor, tiny_tmall_world):
        matrix = predictor.segment_scores(tiny_tmall_world.new_items)
        expected = matrix @ predictor.segment_weights
        np.testing.assert_allclose(
            predictor.score_items(tiny_tmall_world.new_items, "mean"), expected
        )

    def test_max_aggregation_dominates_mean(self, predictor, tiny_tmall_world):
        mean_scores = predictor.score_items(tiny_tmall_world.new_items, "mean")
        max_scores = predictor.score_items(tiny_tmall_world.new_items, "max")
        assert np.all(max_scores >= mean_scores - 1e-12)

    def test_unknown_aggregation_rejected(self, predictor, tiny_tmall_world):
        with pytest.raises(ValueError):
            predictor.score_items(tiny_tmall_world.new_items, "median")

    def test_niche_items_have_large_gaps(self, predictor, tiny_tmall_world):
        matrix = predictor.segment_scores(tiny_tmall_world.new_items)
        gap = matrix.max(axis=1) - matrix @ predictor.segment_weights
        niche = predictor.niche_items(tiny_tmall_world.new_items, top_k=5)
        threshold = np.sort(gap)[::-1][4]
        assert np.all(gap[niche] >= threshold - 1e-12)

    def test_segment_weights_sum_to_one(self, predictor):
        assert predictor.segment_weights.sum() == pytest.approx(1.0)

    def test_invalid_segments_rejected(self, tiny_tmall_world):
        model = ATNN(
            tiny_tmall_world.schema,
            TowerConfig(vector_dim=8, deep_dims=(16,), head_dims=(8,)),
            rng=np.random.default_rng(3),
        )
        with pytest.raises(ValueError):
            SegmentedPopularityPredictor(model, n_segments=0)
