"""Shared helpers for the synthetic data worlds."""

from __future__ import annotations

import numpy as np

__all__ = [
    "logistic",
    "sigmoid",
    "mean_click_probability",
    "standardize",
    "noisy",
    "segment_latents",
]

# Row blocks of the popularity oracle hold about this many bytes of
# float64 logits, so a pass never materialises the items x users matrix.
_POPULARITY_BLOCK_BYTES = 2 << 20
# No block is cut smaller than this: a 1-row product goes through BLAS
# GEMV, whose sums round differently from the GEMM a full pass uses.
_POPULARITY_MIN_BLOCK_ROWS = 4


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of a float array, in its dtype.

    ``exp(-|x|)`` never overflows, and each branch is the textbook form
    for its sign, so the result is bitwise that of evaluating
    ``1 / (1 + exp(-x))`` on ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    elsewhere (NaN stays NaN).
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, in float64."""
    return logistic(np.asarray(x, dtype=np.float64))


def mean_click_probability(
    item_latents: np.ndarray,
    item_quality: np.ndarray,
    user_latents: np.ndarray,
    bias: float,
    affinity_weight: float,
    quality_weight: float,
) -> np.ndarray:
    """Each item's click probability averaged over ``user_latents``' users.

    The logit of item ``i`` for user ``u`` is ``bias + affinity_weight *
    <L_i, L_u> / sqrt(latent_dim) + quality_weight * quality_i``.  Items
    are processed in near-equal row blocks of about
    :data:`_POPULARITY_BLOCK_BYTES`, so peak memory stays a few blocks
    whatever the item count; each row's arithmetic is the same as in
    one dense ``items x users`` pass, bit for bit.
    """
    n_items, latent_dim = item_latents.shape
    scaled = affinity_weight * item_latents
    quality_term = quality_weight * item_quality[:, None]
    scale = np.sqrt(latent_dim)
    out = np.empty(n_items)
    matrix_bytes = 8 * n_items * len(user_latents)
    n_blocks = max(
        1,
        min(
            -(-matrix_bytes // _POPULARITY_BLOCK_BYTES),
            n_items // _POPULARITY_MIN_BLOCK_ROWS,
        ),
    )
    bounds = np.arange(n_blocks + 1) * n_items // n_blocks
    for start, stop in zip(bounds[:-1], bounds[1:]):
        logits = scaled[start:stop] @ user_latents.T
        logits /= scale
        logits += bias
        logits += quality_term[start:stop]
        out[start:stop] = logistic(logits).mean(axis=1)
    return out


def standardize(values: np.ndarray) -> np.ndarray:
    """Zero-mean / unit-variance scaling with a variance floor."""
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    if std < 1e-12:
        return values - values.mean()
    return (values - values.mean()) / std


def noisy(values: np.ndarray, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Add Gaussian observation noise."""
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    if noise_std == 0:
        return np.array(values, copy=True)
    return values + rng.normal(0.0, noise_std, size=np.shape(values))


def segment_latents(
    n_entities: int,
    n_segments: int,
    latent_dim: int,
    rng: np.random.Generator,
    segment_spread: float = 1.0,
    within_spread: float = 0.5,
) -> tuple:
    """Draw entity latent vectors clustered around segment centroids.

    Returns ``(segments, latents)`` where ``segments`` is the integer
    segment id per entity and ``latents`` the ``(n_entities, latent_dim)``
    vectors.  Used for user populations (taste clusters) and restaurant
    themes.
    """
    if n_segments <= 0 or n_entities <= 0 or latent_dim <= 0:
        raise ValueError("entity/segment/latent sizes must be positive")
    centroids = rng.normal(0.0, segment_spread, size=(n_segments, latent_dim))
    segments = rng.integers(0, n_segments, size=n_entities)
    latents = centroids[segments] + rng.normal(
        0.0, within_spread, size=(n_entities, latent_dim)
    )
    return segments, latents
