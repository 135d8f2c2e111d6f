"""Tests for the shared synthetic-world helpers."""

import numpy as np
import pytest

from repro.core import numeric
from repro.data.synthetic import noisy, sigmoid, standardize
from repro.data.synthetic.common import segment_latents
from repro.nn.tensor import default_dtype


def masked_sigmoid(x):
    """The masked two-branch form the shared kernel must match bit for bit."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def edge_inputs(dtype, rng):
    info = np.finfo(dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, info.tiny, -info.tiny,
             info.smallest_subnormal, -info.smallest_subnormal,
             info.tiny / 4, -info.tiny / 4, info.max, -info.max,
             1.0, -1.0, 36.7, -36.7, 88.7, -88.7, 103.9, -103.9,
             709.7, -709.7, 745.2, -745.2, 800.0, -800.0]
    return np.concatenate([
        edges,
        rng.uniform(-800.0, 800.0, size=2000),
        rng.normal(0.0, 5.0, size=2000),
        np.linspace(-1e-3, 1e-3, 201),
    ]).astype(dtype)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetry(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_extreme_stability(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_monotone(self, rng):
        x = np.sort(rng.normal(size=50))
        assert np.all(np.diff(sigmoid(x)) >= 0)


class TestSharedKernel:
    """``repro.core.numeric.sigmoid`` and the float64 ``sigmoid`` share one kernel."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_masked_form(self, dtype, rng):
        x = edge_inputs(dtype, rng)
        expected = masked_sigmoid(x)
        got = numeric.sigmoid(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(f"u{x.itemsize}"),
                                      expected.view(f"u{x.itemsize}"))
        if dtype is np.float64:
            np.testing.assert_array_equal(sigmoid(x).view(np.uint64),
                                          expected.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_stays_nan(self, dtype):
        x = np.array([np.nan, 1.0, -1.0], dtype=dtype)
        assert np.isnan(numeric.sigmoid(x)[0])
        assert np.isnan(sigmoid(x)[0])

    def test_dtypes(self):
        ints = np.arange(-3, 4)
        assert numeric.sigmoid(np.zeros(3, np.float32)).dtype == np.float32
        assert numeric.sigmoid(np.zeros(3)).dtype == np.float64
        assert sigmoid(np.zeros(3, np.float32)).dtype == np.float64
        assert sigmoid(ints).dtype == np.float64
        with default_dtype(np.float32):
            assert numeric.sigmoid(ints).dtype == np.float32
        with default_dtype(np.float64):
            assert numeric.sigmoid(ints).dtype == np.float64

    def test_scalar_and_2d_shapes(self):
        assert numeric.sigmoid(np.float64(0.0)).shape == ()
        assert sigmoid(np.zeros((3, 4))).shape == (3, 4)


class TestStandardize:
    def test_zero_mean_unit_std(self, rng):
        out = standardize(rng.normal(5.0, 3.0, size=1000))
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_centred(self):
        out = standardize(np.full(10, 7.0))
        np.testing.assert_allclose(out, 0.0)

    def test_preserves_ordering(self, rng):
        x = rng.normal(size=30)
        np.testing.assert_array_equal(np.argsort(x), np.argsort(standardize(x)))


class TestNoisy:
    def test_zero_noise_is_copy(self, rng):
        x = rng.normal(size=10)
        out = noisy(x, 0.0, rng)
        np.testing.assert_array_equal(out, x)
        assert out is not x  # defensive copy

    def test_noise_magnitude(self, rng):
        x = np.zeros(20_000)
        out = noisy(x, 0.5, rng)
        assert out.std() == pytest.approx(0.5, rel=0.05)

    def test_negative_noise_rejected(self, rng):
        with pytest.raises(ValueError):
            noisy(np.zeros(3), -0.1, rng)


class TestSegmentLatents:
    def test_shapes(self, rng):
        segments, latents = segment_latents(100, 4, 6, rng)
        assert segments.shape == (100,)
        assert latents.shape == (100, 6)
        assert segments.max() < 4

    def test_within_segment_tighter_than_across(self, rng):
        segments, latents = segment_latents(
            600, 3, 4, rng, segment_spread=3.0, within_spread=0.3
        )
        within = []
        across = []
        centroids = np.array(
            [latents[segments == s].mean(axis=0) for s in range(3)]
        )
        for s in range(3):
            members = latents[segments == s]
            within.append(
                np.linalg.norm(members - centroids[s], axis=1).mean()
            )
        for a in range(3):
            for b in range(a + 1, 3):
                across.append(np.linalg.norm(centroids[a] - centroids[b]))
        assert np.mean(within) < np.mean(across)

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            segment_latents(0, 3, 4, rng)
        with pytest.raises(ValueError):
            segment_latents(10, 0, 4, rng)
