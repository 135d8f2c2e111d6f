"""K-means clustering (k-means++ initialisation, Lloyd iterations).

Substrate for the paper's future-work direction of grouping users by
preference before making new-arrival predictions (Section VI).  Operates
on the user-tower vectors, so clusters are taste segments in the model's
own geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["KMeansResult", "kmeans"]


@dataclass
class KMeansResult:
    """Fitted clustering.

    Attributes
    ----------
    centroids:
        ``(k, dim)`` cluster centres.
    assignments:
        Cluster index per input row.
    inertia:
        Sum of squared distances to assigned centroids.
    n_iterations:
        Lloyd iterations executed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign new points to the nearest fitted centroid."""
        points = np.asarray(points, dtype=np.float64)  # repro-lint: disable=ATN002 -- centroid assignment must match fit(), which runs float64 for stable convergence
        if points.ndim != 2 or points.shape[1] != self.centroids.shape[1]:
            raise ValueError(
                f"points must be (n, {self.centroids.shape[1]}), got {points.shape}"
            )
        return _nearest(points, self.centroids)[0]


def _pairwise_sq_distances(
    a: np.ndarray, b: np.ndarray, a_sq: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and rows of ``b``.

    ``a_sq`` is ``(a ** 2).sum(axis=1)``, computed once by the caller
    that measures the same points repeatedly.  Clamped at zero: the
    expansion ``|a|^2 - 2ab + |b|^2`` can go slightly negative through
    floating-point cancellation for coincident points.
    """
    distances = a_sq[:, None] - 2.0 * a @ b.T + (b ** 2).sum(axis=1)[None, :]
    return np.maximum(distances, 0.0)


def _nearest(
    points: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row and that row's best affinity.

    ``argmin ||x - c||^2 == argmax (x·c - ||c||^2 / 2)``: the affinity
    form drops the per-point norm and the clamp, so one matmul plus a
    per-centroid bias assigns every row.
    """
    affinity = points @ centroids.T
    affinity -= 0.5 * (centroids ** 2).sum(axis=1)
    assignments = affinity.argmax(axis=1)
    return assignments, affinity[np.arange(points.shape[0]), assignments]


def _cluster_means(
    points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Lloyd's update: each centroid moves to the mean of its members.

    Members are gathered cluster-contiguous once and summed per cluster
    with ``np.add.reduceat``; an empty cluster keeps its old centroid.
    """
    k = centroids.shape[0]
    counts = np.bincount(assignments, minlength=k)
    occupied = counts > 0
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[occupied]
    order = np.argsort(assignments, kind="stable")
    sums = np.add.reduceat(points[order], starts, axis=0)
    means = centroids.copy()
    means[occupied] = sums / counts[occupied, None]
    return means


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to D^2."""
    n = points.shape[0]
    points_sq = (points ** 2).sum(axis=1)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(0, n)]
    closest = _pairwise_sq_distances(points, centroids[:1], points_sq).reshape(-1)
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All points coincide with chosen centroids; fill uniformly.
            centroids[index:] = points[rng.integers(0, n, size=k - index)]
            break
        probabilities = closest / total
        choice = rng.choice(n, p=probabilities)
        centroids[index] = points[choice]
        new_distance = _pairwise_sq_distances(
            points, centroids[index : index + 1], points_sq
        ).reshape(-1)
        closest = np.minimum(closest, new_distance)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups.

    Parameters
    ----------
    points:
        ``(n, dim)`` float matrix.
    k:
        Number of clusters (``1 <= k <= n``).
    rng:
        Generator for seeding; a fresh default generator when omitted.
    max_iterations:
        Lloyd iteration budget.
    tolerance:
        Stop when the total centroid movement falls below this value.
    """
    points = np.asarray(points, dtype=np.float64)  # repro-lint: disable=ATN002 -- Lloyd iterations accumulate tiny centroid movements; float64 keeps the tolerance test meaningful regardless of engine dtype
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    rng = rng if rng is not None else np.random.default_rng()

    centroids = _kmeans_pp_init(points, k, rng)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        assignments, _ = _nearest(points, centroids)
        new_centroids = _cluster_means(points, assignments, centroids)
        movement = float(np.abs(new_centroids - centroids).sum())
        centroids = new_centroids
        if movement < tolerance:
            break

    assignments, best = _nearest(points, centroids)
    # ||x - c||^2 = ||x||^2 - 2 (x·c - ||c||^2 / 2), clamped per row.
    inertia = float(
        np.maximum((points ** 2).sum(axis=1) - 2.0 * best, 0.0).sum()
    )
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        n_iterations=iteration,
    )
