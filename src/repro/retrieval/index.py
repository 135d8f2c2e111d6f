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
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.nn.tensor import get_default_dtype
from repro.obs.metrics import get_active_registry
from repro.obs.tracing import maybe_span
from repro.utils.buffers import grow_rows

__all__ = ["MIPSIndex", "BruteForceIndex", "recall_at_k"]


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
    def _coerce_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Validate shape and cast to the index dtype, contiguous."""
        vectors = np.ascontiguousarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors must be (n, {self.dim}), got {vectors.shape}"
            )
        return vectors

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


def _top_k_desc(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D array, best first."""
    if k >= scores.size:
        return np.argsort(scores)[::-1]
    top = np.argpartition(scores, -k)[-k:]
    return top[np.argsort(scores[top])[::-1]]


class BruteForceIndex(MIPSIndex):
    """Exact MIPS over one contiguous embedding matrix.

    The baseline every approximate index is measured against: a dense
    ``queries @ matrix.T`` followed by ``np.argpartition`` top-k.  The
    matrix grows by doubling so repeated :meth:`add` calls stay amortised
    O(1) per row, and rows are updated in place by id.
    """

    def __init__(self, dim: int, dtype=None) -> None:
        super().__init__(dim, dtype)
        self._matrix = np.empty((0, self.dim), dtype=self.dtype)
        self._size = 0

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
        self._matrix = grow_rows(self._matrix, self._size, self._size + extra)

    def add(self, vectors: np.ndarray) -> np.ndarray:
        vectors = self._coerce_vectors(vectors)
        with maybe_span("index.insert"):
            self._reserve(vectors.shape[0])
            start = self._size
            self._matrix[start : start + vectors.shape[0]] = vectors
            self._size += vectors.shape[0]
        registry = get_active_registry()
        if registry is not None:
            registry.counter("index.inserts").inc(vectors.shape[0])
        return np.arange(start, self._size, dtype=np.int64)

    def update(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        ids = self._coerce_ids(ids)
        vectors = self._coerce_vectors(vectors)
        if vectors.shape[0] != ids.size:
            raise ValueError(
                f"ids/vectors length mismatch: {ids.size} vs {vectors.shape[0]}"
            )
        self._matrix[ids] = vectors

    def rebuild(self, vectors: np.ndarray) -> None:
        vectors = self._coerce_vectors(vectors)
        self._matrix = vectors.copy()
        self._size = vectors.shape[0]

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        queries, single = self._coerce_queries(queries)
        k = self._check_k(k)
        start = time.perf_counter()
        with maybe_span("index.search"):
            live = self._matrix[: self._size]
            scores = queries @ live.T
            ids = np.empty((queries.shape[0], k), dtype=np.int64)
            out = np.empty((queries.shape[0], k), dtype=scores.dtype)
            for row in range(queries.shape[0]):
                top = _top_k_desc(scores[row], k)
                ids[row] = top
                out[row] = scores[row, top]
        registry = get_active_registry()
        if registry is not None:
            registry.counter("index.searches").inc(queries.shape[0])
            registry.histogram("index.search_seconds").observe(
                time.perf_counter() - start
            )
        if single:
            return ids[0], out[0]
        return ids, out


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
