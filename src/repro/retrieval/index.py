"""Maximum-inner-product search (MIPS) indexes.

The serving engine's two hot queries — catalogue-wide ``top_k`` and
per-user ``recommend_for_user`` — both reduce to a maximum-inner-product
search: the :class:`~repro.core.heads.WeightedDotHead` logit is
``item_vector · (weight ⊙ user_vector) + bias`` and the sigmoid is
monotone, so the top-k by popularity *is* the top-k by inner product
against one transformed query vector.  This module provides the common
:class:`MIPSIndex` interface plus the exactness oracle,
:class:`BruteForceIndex`; the approximate partitioned index lives in
:mod:`repro.retrieval.ivf`.

Identifiers are assigned densely in insertion order (``0..ntotal-1``),
which makes them interchangeable with the engine's catalogue slots: the
catalogue only ever appends, and so does the index.

All embedding storage honours :func:`repro.nn.tensor.get_default_dtype`
— an index built in float32 mode keeps float32 matrices end to end (see
``docs/performance.md`` for why silent float64 promotion matters).
Brute-force search re-scores a handful of candidate rows in float64,
which is what makes it exact in either dtype.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Tuple

import numpy as np

from repro.nn.tensor import get_default_dtype
from repro.obs.context import current_telemetry
from repro.obs.tracing import maybe_span
from repro.utils.buffers import grow_rows

__all__ = ["MIPSIndex", "BruteForceIndex", "exact_scores", "recall_at_k"]

# Brute-force scans run in float32 and re-score candidates in float64.
_SCAN = np.float32
_EXACT = np.float64  # repro-lint: disable=ATN002 -- exact re-scoring of the few certified candidates; storage and the scan keep the index dtype or float32
_SCAN_MAX = float(np.finfo(_SCAN).max)
# Unit roundoff of a float32 round-to-nearest, and half the smallest
# float32 subnormal: the absolute error of rounding into the subnormals.
_UNIT = 2.0 ** -24
_TINY = 2.0 ** -150


class MIPSIndex:
    """Interface shared by every maximum-inner-product index.

    Concrete indexes store item embeddings and answer *top-k by inner
    product* queries.  The contract:

    * ``add(vectors)`` appends rows and returns their assigned ids —
      consecutive integers continuing from ``ntotal`` (catalogue slots);
    * ``update(ids, vectors)`` overwrites existing rows in place, so a
      dirty-slot refresh never needs a rebuild;
    * ``rebuild(vectors)`` replaces the whole index contents (ids reset
      to ``0..n-1``);
    * ``search(queries, k)`` returns ``(ids, scores)`` sorted by
      descending inner product.  A single ``(dim,)`` query yields
      ``(k,)`` arrays; a ``(q, dim)`` batch yields ``(q, k)`` arrays.

    Ties in score go to the lower id, both for the last place in the
    top-k and for the order within it — the rule
    ``RealTimeEngine``'s cached top-k merge follows, where older slots
    win ties.  Vectors must be finite with every entry within float32
    range; anything else is a ``ValueError``.
    """

    def __init__(self, dim: int, dtype=None) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()

    # -- size ----------------------------------------------------------
    @property
    def ntotal(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.ntotal

    # -- mutation ------------------------------------------------------
    def add(self, vectors: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def update(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        raise NotImplementedError

    def rebuild(self, vectors: np.ndarray) -> None:
        raise NotImplementedError

    # -- queries -------------------------------------------------------
    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # -- shared validation helpers --------------------------------------
    def _coerce_vectors(self, vectors: np.ndarray) -> Tuple[np.ndarray, float]:
        """Validate shape and range and cast to the index dtype, contiguous.

        Also returns the largest entry magnitude.
        """
        vectors = np.ascontiguousarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors must be (n, {self.dim}), got {vectors.shape}"
            )
        if not vectors.size:
            return vectors, 0.0
        high, low = float(vectors.max()), float(vectors.min())
        # NaN fails both comparisons, so this also rejects NaN.
        if not (high <= _SCAN_MAX and low >= -_SCAN_MAX):
            raise ValueError(
                "vectors must be finite with entries within float32 range "
                f"(|x| <= {_SCAN_MAX:.4g})"
            )
        return vectors, max(high, -low)

    def _coerce_queries(self, queries: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Normalise queries to 2-D; flag whether the input was a single row."""
        queries = np.asarray(queries, dtype=self.dtype)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries must be ({self.dim},) or (q, {self.dim}), "
                f"got {np.asarray(queries).shape}"
            )
        return queries, single

    def _check_k(self, k: int) -> int:
        if not 1 <= k <= self.ntotal:
            raise ValueError(f"k must be in [1, {self.ntotal}], got {k}")
        return int(k)

    def _coerce_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= self.ntotal):
            raise IndexError(
                f"ids must be in [0, {self.ntotal}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        return ids


def _top_k_desc(
    scores: np.ndarray, k: int, ids: Optional[np.ndarray] = None
) -> np.ndarray:
    """Positions of the ``k`` best entries of a 1-D array, best first.

    Best means the higher score, then the lower id; ``ids`` defaults to
    the positions themselves.
    """
    positions = None
    if 4 * k < scores.size:
        # A partition pays for itself only well below the full size.
        # Every entry tied with the k-th best stays in, so the tie rule
        # also decides who takes the last place.
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        positions = np.flatnonzero(scores >= kth)
        scores = scores[positions]
        if ids is not None:
            ids = ids[positions]
    if ids is None:
        order = np.argsort(-scores, kind="stable")[:k]
    else:
        order = np.lexsort((ids, -scores))[:k]
    return order if positions is None else positions[order]


def exact_scores(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Float64 inner products of ``rows`` with one ``query``.

    Each score is a function of its row and the query alone — unlike a
    BLAS matrix-vector product, whose rounding depends on where a row
    sits in the matrix — so identical rows always tie exactly.  This is
    the brute-force index's ranking score and its oracle.
    """
    # einsum reduces each contiguous row on its own, in a fixed order.
    rows = np.ascontiguousarray(rows, dtype=_EXACT)
    return np.einsum("ij,j->i", rows, np.asarray(query, dtype=_EXACT))


class BruteForceIndex(MIPSIndex):
    """Exact MIPS over one contiguous embedding matrix.

    The baseline every approximate index is measured against.  A search
    takes two passes:

    1. scan every row in float32: one float32 matrix-vector product
       per query;
    2. re-score in float64 only the rows whose float32 score is within
       ``2E`` of the ``k``-th best float32 score, and rank those.

    ``E`` bounds the float32 error of one score (see
    :meth:`_scan_error`), so a row left out scores below at least ``k``
    re-scored rows in exact arithmetic: the result is the float64
    oracle's top-k, ties to the lower id.  A float64 index keeps a
    float32 mirror of its rows for the scan (4 bytes per entry more); a
    float32 index scans its own matrix.  ``_norm_bound`` is an upper
    bound on the row norms, ``sqrt(dim)`` times the largest entry
    magnitude written, which the range check finds anyway:
    :meth:`rebuild` recomputes it, and :meth:`add` and :meth:`update`
    only raise it — still a bound when a row shrinks.  Storage grows by
    doubling so repeated :meth:`add` calls stay amortised O(1) per row,
    and rows are updated in place by id.
    """

    def __init__(self, dim: int, dtype=None) -> None:
        super().__init__(dim, dtype)
        self._matrix = np.empty((0, self.dim), dtype=self.dtype)
        self._mirror = None
        if self.dtype != _SCAN:
            self._mirror = np.empty((0, self.dim), dtype=_SCAN)
        self._size = 0
        self._norm_bound = 0.0

    @property
    def ntotal(self) -> int:
        return self._size

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the live rows (no copy)."""
        view = self._matrix[: self._size]
        view.flags.writeable = False
        return view

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        self._matrix = grow_rows(self._matrix, self._size, needed)
        if self._mirror is not None:
            self._mirror = grow_rows(self._mirror, self._size, needed)

    def add(self, vectors: np.ndarray) -> np.ndarray:
        vectors, peak = self._coerce_vectors(vectors)
        with maybe_span("index.insert"):
            self._reserve(vectors.shape[0])
            start = self._size
            stop = start + vectors.shape[0]
            self._matrix[start:stop] = vectors
            if self._mirror is not None:
                self._mirror[start:stop] = vectors
            self._size = stop
            self._raise_norm_bound(peak)
        registry = current_telemetry().registry
        if registry is not None:
            registry.counter("index.inserts").inc(vectors.shape[0])
        return np.arange(start, self._size, dtype=np.int64)

    def update(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        ids = self._coerce_ids(ids)
        vectors, peak = self._coerce_vectors(vectors)
        if vectors.shape[0] != ids.size:
            raise ValueError(
                f"ids/vectors length mismatch: {ids.size} vs {vectors.shape[0]}"
            )
        self._matrix[ids] = vectors
        if self._mirror is not None:
            self._mirror[ids] = vectors
        self._raise_norm_bound(peak)

    def rebuild(self, vectors: np.ndarray) -> None:
        vectors, peak = self._coerce_vectors(vectors)
        self._matrix = vectors.copy()
        if self._mirror is not None:
            self._mirror = vectors.astype(_SCAN)
        self._size = vectors.shape[0]
        self._norm_bound = 0.0
        self._raise_norm_bound(peak)

    def _raise_norm_bound(self, peak: float) -> None:
        """Cover rows whose entries are at most ``peak`` in magnitude."""
        self._norm_bound = max(self._norm_bound, math.sqrt(self.dim) * peak)

    def _scan_error(self, query_norm: float) -> float:
        """Bound on ``|float32 scan score - exact score|`` for one query.

        ``(dim + 2) · u · R · ‖q‖`` (``u = 2⁻²⁴``) bounds the float32
        error to first order: rounding the row and the query to float32
        (``u`` each) and the float32 dot product (``dim · u``, any
        summation order).  The ``(dim + 4)`` used here leaves ``4u · R ·
        ‖q‖`` spare in the ``2E`` window, which covers the second-order
        terms, the float64 re-scoring, rounding the threshold to float32
        and the float64 arithmetic of the bound.  The absolute term
        covers rounding into float32's subnormals (``2⁻¹⁵⁰`` per
        rounding).  Derivation: ``docs/retrieval.md``.
        """
        relative = (self.dim + 4) * _UNIT * self._norm_bound * query_norm
        absolute = 2 * _TINY * (
            self.dim + math.sqrt(self.dim) * (1.0 + self._norm_bound)
        )
        return relative + absolute

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        queries, single = self._coerce_queries(queries)
        k = self._check_k(k)
        start = time.perf_counter()
        with maybe_span("index.search"):
            found = [
                self._search_one(query, k)
                for query in np.asarray(queries, dtype=_EXACT)
            ]
        registry = current_telemetry().registry
        if registry is not None:
            registry.counter("index.searches").inc(queries.shape[0])
            registry.counter("index.rescored").inc(
                sum(rescored for _, _, rescored in found)
            )
            registry.histogram("index.search_seconds").observe(
                time.perf_counter() - start
            )
        if single:
            ids, scores, _ = found[0]
            return ids, scores
        # reshape keeps an empty batch (0, k).
        ids = np.array([ids for ids, _, _ in found], np.int64)
        scores = np.array([scores for _, scores, _ in found], self.dtype)
        return ids.reshape(-1, k), scores.reshape(-1, k)

    def _search_one(
        self, query: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Top-k ids and scores for one float64 query, and the number of
        rows re-scored."""
        norm = math.sqrt(query @ query)
        if not math.isfinite(norm):
            raise ValueError("queries must be finite, with a finite norm")
        # Scaling by a power of two is exact and keeps the ranking.  With
        # ‖q‖ · max(R, 1) in [1/2, 1), |x · q| <= R ‖q‖ < 1: no float32
        # product or partial sum overflows.
        reach = norm * max(self._norm_bound, 1.0)
        scale = math.ldexp(1.0, -math.frexp(reach)[1])
        scan = self._matrix if self._mirror is None else self._mirror
        approx = scan[: self._size] @ (query * scale).astype(_SCAN)
        cut = self._size - k
        kth = float(np.partition(approx, cut)[cut])
        # Rounding the threshold to float32 is within the bound's slack,
        # so the float32 comparison loses no candidate.
        threshold = _SCAN(kth - 2.0 * self._scan_error(norm * scale))
        candidates = (approx >= threshold).nonzero()[0]
        scores = exact_scores(self._matrix[candidates], query)
        top = _top_k_desc(scores, k)
        return (
            candidates[top],
            scores[top].astype(self.dtype, copy=False),
            candidates.size,
        )


def recall_at_k(reference_ids: np.ndarray, candidate_ids: np.ndarray) -> float:
    """Fraction of reference ids recovered by the candidate lists.

    Both arguments are ``(q, k)`` id matrices (or ``(k,)`` for a single
    query): the exact oracle's top-k and an approximate index's top-k.
    This is the recall@k an IVF sweep reports against the brute-force
    baseline.
    """
    reference_ids = np.atleast_2d(np.asarray(reference_ids))
    candidate_ids = np.atleast_2d(np.asarray(candidate_ids))
    if reference_ids.shape != candidate_ids.shape:
        raise ValueError(
            f"shape mismatch: {reference_ids.shape} vs {candidate_ids.shape}"
        )
    hits = 0
    for row in range(reference_ids.shape[0]):
        hits += np.isin(
            reference_ids[row], candidate_ids[row], assume_unique=True
        ).sum()
    return float(hits / reference_ids.size)
