"""Partitioned (IVF-style) approximate MIPS index.

An inverted-file index over the two-tower item embeddings: a k-means
coarse quantizer (:func:`repro.core.clustering.kmeans`) splits the
corpus into ``nlist`` partitions stored as contiguous per-partition
matrices, and a query only scores the ``nprobe`` partitions whose
centroids have the largest inner product with it.  CBNS
(arXiv 2110.15154) observed that two-tower item encoders drift slowly,
which is exactly why a partitioning computed at refresh time stays
valid between refreshes.

Design points that matter for the serving engine:

* **Incremental inserts** — :meth:`add` assigns new vectors to their
  nearest partition and appends into preallocated (doubling) arrays, so
  cold-start vectors emitted by the ATNN generator are searchable
  immediately, with no rebuild.
* **In-place updates** — :meth:`update` rewrites rows by id; a vector
  whose nearest centroid changed migrates partitions (swap-with-last
  removal + append), so dirty-slot refreshes keep the index honest.
* **Local splits** — inserts skew partition sizes over time; when the
  largest partition exceeds ``imbalance_factor`` times the mean
  occupancy, :meth:`add` runs 2-means on that one partition, appends one
  centroid and moves the rows nearer to it.  The cost is bounded by the
  partition's size, not by the corpus, so inserts never retrain the
  quantizer.  Each split emits ``index.repartitions`` and an
  ``index.repartition`` span so flight-recorder postmortems can name it.
  Splits raise the live partition count above ``nlist``; the probe count
  scales with it (see :meth:`probe_count`), so ``nprobe >= nlist``
  stays exact.
* **Explicit retrain** — :meth:`repartition` retrains the quantizer on
  the live corpus and reassigns everything, back to ``nlist``
  partitions.  Nothing calls it implicitly: it is for callers whose
  embedding geometry moved wholesale, e.g. after swapping the model.
* **Cold behaviour** — below ``train_floor`` points the index keeps a
  single partition and is exactly brute force; the first build that
  crosses the floor trains the quantizer.

Scoring inside a probed partition is exact, so ``nprobe == nlist``
recovers the brute-force result bit-for-bit; recall@k degrades
gracefully as ``nprobe`` shrinks (see ``BENCH_retrieval.json`` for the
measured curve).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.clustering import kmeans
from repro.obs.context import current_telemetry
from repro.obs.tracing import maybe_span
from repro.retrieval.index import MIPSIndex, _top_k_desc
from repro.utils.buffers import grow_rows

__all__ = ["IVFIndex"]


class IVFIndex(MIPSIndex):
    """Approximate MIPS via a k-means inverted file.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    nlist:
        Number of partitions the trained quantizer maintains.
    nprobe:
        Partitions scored per query out of ``nlist``; scaled up as
        splits add partitions (:meth:`probe_count`) and clamped to the
        live count, so ``nprobe >= nlist`` makes the search exact.
    dtype:
        Storage dtype; defaults to the engine's configurable default.
    imbalance_factor:
        Split the largest partition when ``max(partition size) > factor
        * mean size``.  ``None`` disables automatic maintenance (call
        :meth:`repartition` yourself).
    train_floor:
        Train the quantizer once at least this many vectors exist
        (default ``2 * nlist``); below it the index runs single-partition
        exact search.
    train_sample:
        k-means trains on at most this many sampled rows — quantizer
        quality saturates long before the full corpus size.
    kmeans_iterations:
        Lloyd iteration budget for quantizer training.
    seed:
        Seeds sampling and k-means initialisation (deterministic builds).
    """

    def __init__(
        self,
        dim: int,
        nlist: int = 64,
        nprobe: int = 8,
        dtype=None,
        imbalance_factor: Optional[float] = 4.0,
        train_floor: Optional[int] = None,
        train_sample: int = 65536,
        kmeans_iterations: int = 15,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, dtype)
        if nlist < 1:
            raise ValueError(f"nlist must be >= 1, got {nlist}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        if imbalance_factor is not None and imbalance_factor <= 1.0:
            raise ValueError(
                f"imbalance_factor must be > 1, got {imbalance_factor}"
            )
        if train_sample < nlist:
            raise ValueError(
                f"train_sample must be >= nlist, got {train_sample} < {nlist}"
            )
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.imbalance_factor = imbalance_factor
        self.train_floor = (
            int(train_floor) if train_floor is not None else 2 * self.nlist
        )
        self.train_sample = int(train_sample)
        self.kmeans_iterations = int(kmeans_iterations)
        self._rng = np.random.default_rng(seed)
        # Maintenance passes run so far: splits plus explicit retrains.
        self.repartitions = 0
        self._reset_storage(n_parts=1)
        # Untrained: one catch-all partition, exact search.
        self._centroids: Optional[np.ndarray] = None
        self._neg_half_sq: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Storage plumbing
    # ------------------------------------------------------------------
    def _reset_storage(self, n_parts: int) -> None:
        self._part_vectors: List[np.ndarray] = [
            np.empty((0, self.dim), dtype=self.dtype) for _ in range(n_parts)
        ]
        self._part_ids: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(n_parts)
        ]
        self._part_sizes = np.zeros(n_parts, dtype=np.int64)
        # id -> (partition, position) maps, grown alongside the corpus.
        self._id_part = np.empty(0, dtype=np.int64)
        self._id_pos = np.empty(0, dtype=np.int64)
        self._ntotal = 0

    @property
    def ntotal(self) -> int:
        return self._ntotal

    @property
    def trained(self) -> bool:
        """Whether a quantizer is live (False = single-partition exact)."""
        return self._centroids is not None

    @property
    def partition_sizes(self) -> np.ndarray:
        """Current per-partition occupancy (copy)."""
        return self._part_sizes.copy()

    def _reserve_ids(self, extra: int) -> None:
        needed = self._ntotal + extra
        self._id_part = grow_rows(self._id_part, self._ntotal, needed)
        self._id_pos = grow_rows(self._id_pos, self._ntotal, needed)

    def _append_to_partition(self, part: int, ids, vectors) -> None:
        size = int(self._part_sizes[part])
        stop = size + vectors.shape[0]
        self._part_vectors[part] = grow_rows(self._part_vectors[part], size, stop)
        self._part_ids[part] = grow_rows(self._part_ids[part], size, stop)
        self._part_vectors[part][size:stop] = vectors
        self._part_ids[part][size:stop] = ids
        self._id_part[ids] = part
        self._id_pos[ids] = np.arange(size, stop)
        self._part_sizes[part] = stop

    def _remove_from_partition(self, row_id: int) -> None:
        """Swap-with-last removal keeping per-partition arrays packed."""
        part = int(self._id_part[row_id])
        pos = int(self._id_pos[row_id])
        last = int(self._part_sizes[part]) - 1
        if pos != last:
            moved_id = int(self._part_ids[part][last])
            self._part_vectors[part][pos] = self._part_vectors[part][last]
            self._part_ids[part][pos] = moved_id
            self._id_pos[moved_id] = pos
        self._part_sizes[part] = last

    # ------------------------------------------------------------------
    # Quantizer
    # ------------------------------------------------------------------
    def _set_centroids(self, centroids: np.ndarray) -> None:
        self._centroids = np.ascontiguousarray(centroids, dtype=self.dtype)
        # argmin ||x - c||² == argmax (x·c - ||c||²/2); precompute the bias
        # so assignment is one matmul per batch.
        self._neg_half_sq = -0.5 * (self._centroids ** 2).sum(axis=1)

    def _train_quantizer(self, vectors: np.ndarray, k: int) -> np.ndarray:
        sample = vectors
        if vectors.shape[0] > self.train_sample:
            rows = self._rng.choice(
                vectors.shape[0], size=self.train_sample, replace=False
            )
            sample = vectors[rows]
        result = kmeans(
            sample,
            k=min(k, sample.shape[0]),
            rng=self._rng,
            max_iterations=self.kmeans_iterations,
        )
        return result.centroids

    def _assign(self, vectors: np.ndarray, batch: int = 65536) -> np.ndarray:
        """Nearest-centroid partition per row (batched, index dtype)."""
        out = np.empty(vectors.shape[0], dtype=np.int64)
        for start in range(0, vectors.shape[0], batch):
            chunk = vectors[start : start + batch]
            affinity = chunk @ self._centroids.T + self._neg_half_sq
            out[start : start + batch] = affinity.argmax(axis=1)
        return out

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def rebuild(self, vectors: np.ndarray) -> None:
        """Replace the index contents; ids reset to ``0..n-1``."""
        vectors, _ = self._coerce_vectors(vectors)
        with maybe_span("index.build"):
            if vectors.shape[0] >= max(self.train_floor, self.nlist):
                self._set_centroids(self._train_quantizer(vectors, self.nlist))
            else:
                self._centroids = None
                self._neg_half_sq = None
            self._partition_all(
                vectors, np.arange(vectors.shape[0], dtype=np.int64)
            )

    def _partition_all(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Lay out ``vectors`` (keyed by ``ids``) under the current quantizer."""
        n_parts = self._centroids.shape[0] if self.trained else 1
        self._reset_storage(n_parts)
        n = vectors.shape[0]
        if n:
            self._reserve_ids(int(ids.max()) + 1)
            if not self.trained:
                self._append_to_partition(0, ids, vectors)
            else:
                assignments = self._assign(vectors)
                order = np.argsort(assignments, kind="stable")
                sorted_parts = assignments[order]
                boundaries = np.searchsorted(
                    sorted_parts, np.arange(n_parts + 1), side="left"
                )
                for part in range(n_parts):
                    rows = order[boundaries[part] : boundaries[part + 1]]
                    if not rows.size:
                        continue
                    self._part_vectors[part] = np.ascontiguousarray(vectors[rows])
                    self._part_ids[part] = ids[rows].astype(np.int64)
                    self._part_sizes[part] = rows.size
                    self._id_part[ids[rows]] = part
                    self._id_pos[ids[rows]] = np.arange(rows.size)
        self._ntotal = n

    def add(self, vectors: np.ndarray) -> np.ndarray:
        vectors, _ = self._coerce_vectors(vectors)
        with maybe_span("index.insert"):
            start_id = self._ntotal
            ids = np.arange(
                start_id, start_id + vectors.shape[0], dtype=np.int64
            )
            self._reserve_ids(vectors.shape[0])
            self._ntotal += vectors.shape[0]
            if self.trained:
                assignments = self._assign(vectors)
                for part in np.unique(assignments):
                    rows = assignments == part
                    self._append_to_partition(
                        int(part), ids[rows], vectors[rows]
                    )
            else:
                self._append_to_partition(0, ids, vectors)
        registry = current_telemetry().registry
        if registry is not None:
            registry.counter("index.inserts").inc(vectors.shape[0])
        self._maybe_train()
        self._maybe_split()
        return ids

    def update(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        ids = self._coerce_ids(ids)
        vectors, _ = self._coerce_vectors(vectors)
        if vectors.shape[0] != ids.size:
            raise ValueError(
                f"ids/vectors length mismatch: {ids.size} vs {vectors.shape[0]}"
            )
        with maybe_span("index.update"):
            targets = (
                self._assign(vectors)
                if self.trained
                else np.zeros(ids.size, dtype=np.int64)
            )
            current = self._id_part[ids]
            stay_rows = np.flatnonzero(targets == current)
            # In-place overwrite for rows that keep their partition,
            # grouped (one sort) so each partition gets one fancy-indexed
            # write.
            stay_rows = stay_rows[np.argsort(current[stay_rows], kind="stable")]
            groups = np.flatnonzero(np.diff(current[stay_rows])) + 1
            for rows in np.split(stay_rows, groups):
                if rows.size:
                    part = int(current[rows[0]])
                    self._part_vectors[part][self._id_pos[ids[rows]]] = (
                        vectors[rows]
                    )
            # Migrate rows whose nearest centroid changed.
            for row in np.flatnonzero(targets != current):
                self._remove_from_partition(int(ids[row]))
                self._append_to_partition(
                    int(targets[row]), ids[row : row + 1], vectors[row : row + 1]
                )
        registry = current_telemetry().registry
        if registry is not None:
            registry.counter("index.updates").inc(ids.size)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _gather_all(self) -> Tuple[np.ndarray, np.ndarray]:
        ids = np.concatenate(
            [p[: int(s)] for p, s in zip(self._part_ids, self._part_sizes)]
        ) if self._ntotal else np.empty(0, dtype=np.int64)
        vectors = np.concatenate(
            [p[: int(s)] for p, s in zip(self._part_vectors, self._part_sizes)]
        ) if self._ntotal else np.empty((0, self.dim), dtype=self.dtype)
        return ids, vectors

    def _retrain(self) -> None:
        """Retrain the quantizer on the live corpus and relayout everything."""
        ids, vectors = self._gather_all()
        self._set_centroids(self._train_quantizer(vectors, self.nlist))
        self._partition_all(vectors, ids)

    def _maybe_train(self) -> None:
        # First crossing of the training floor: single-partition exact
        # mode graduates to a real inverted file (not a "repartition").
        if not self.trained and self._ntotal >= max(self.train_floor, self.nlist):
            with maybe_span("index.build"):
                self._retrain()

    def imbalance(self) -> float:
        """``max(partition size) / mean(partition size)`` (0 when empty)."""
        if not self._ntotal:
            return 0.0
        mean = self._ntotal / self._part_sizes.size
        return float(self._part_sizes.max() / mean)

    def _maybe_split(self) -> None:
        """Split the largest partition while occupancy is out of bounds.

        Every successful split leaves one more non-empty partition, so
        the loop ends; a partition 2-means cannot separate (identical
        vectors) ends it early.
        """
        if self.imbalance_factor is None or not self.trained:
            return
        while self.imbalance() > self.imbalance_factor:
            if not self._split(int(self._part_sizes.argmax())):
                return

    def _split(self, part: int) -> bool:
        """2-means on one partition; a new partition takes one half.

        Only that partition's rows are read, so the cost is bounded by
        its size rather than by the corpus.  Returns whether any rows
        moved.
        """
        with maybe_span("index.repartition"):
            start = time.perf_counter()
            size = int(self._part_sizes[part])
            if size < 2:
                return False
            vectors = self._part_vectors[part][:size].copy()
            ids = self._part_ids[part][:size].copy()
            halves = self._train_quantizer(vectors, 2).astype(self.dtype)
            bias = -0.5 * (halves ** 2).sum(axis=1)
            moved = (vectors @ halves.T + bias).argmax(axis=1) == 1
            if moved.all() or not moved.any():
                return False
            new = self._part_sizes.size
            centroids = np.concatenate([self._centroids, halves[1:]])
            centroids[part] = halves[0]
            self._set_centroids(centroids)
            self._part_vectors.append(np.empty((0, self.dim), dtype=self.dtype))
            self._part_ids.append(np.empty(0, dtype=np.int64))
            self._part_sizes = np.append(self._part_sizes, 0)
            self._part_sizes[part] = 0
            self._append_to_partition(part, ids[~moved], vectors[~moved])
            self._append_to_partition(new, ids[moved], vectors[moved])
            self.repartitions += 1
        self._record_repartition(start)
        return True

    def repartition(self) -> None:
        """Retrain the quantizer and reassign every stored vector.

        Ids are preserved; only the physical partitioning changes, back
        to ``nlist`` partitions.  Inserts never call this (they split
        locally); it is the explicit full retrain for callers whose
        embeddings moved wholesale, e.g. after swapping the model.
        """
        with maybe_span("index.repartition"):
            start = time.perf_counter()
            self._retrain()
            self.repartitions += 1
        self._record_repartition(start)

    @staticmethod
    def _record_repartition(start: float) -> None:
        registry = current_telemetry().registry
        if registry is not None:
            registry.counter("index.repartitions").inc()
            registry.histogram("index.repartition_seconds").observe(
                time.perf_counter() - start
            )

    def probe_count(self) -> int:
        """Partitions scored per query: ``nprobe`` scaled by splits.

        A split turns one partition into two that hold its rows between
        them, so probing ``ceil(nprobe * live / nlist)`` of the ``live``
        partitions scans about the share ``nprobe`` asked for, and
        ``nprobe >= nlist`` still probes every partition (exact search).
        """
        return -(-self.nprobe * self._part_sizes.size // self.nlist)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        queries, single = self._coerce_queries(queries)
        k = self._check_k(k)
        start = time.perf_counter()
        probed_total = 0
        with maybe_span("index.search"):
            ids = np.empty((queries.shape[0], k), dtype=np.int64)
            scores = np.empty((queries.shape[0], k), dtype=self.dtype)
            if not self.trained:
                live = self._part_vectors[0][: int(self._part_sizes[0])]
                part_ids = self._part_ids[0][: int(self._part_sizes[0])]
                affinity = queries @ live.T
                for row in range(queries.shape[0]):
                    top = _top_k_desc(affinity[row], k)
                    ids[row] = part_ids[top]
                    scores[row] = affinity[row, top]
                probed_total = queries.shape[0]
            else:
                nonempty = np.flatnonzero(self._part_sizes > 0)
                centroid_affinity = queries @ self._centroids[nonempty].T
                nprobe = self.probe_count()
                for row in range(queries.shape[0]):
                    probed = self._search_one(
                        queries[row], k, nprobe, nonempty,
                        centroid_affinity[row], ids[row], scores[row],
                    )
                    probed_total += probed
        registry = current_telemetry().registry
        if registry is not None:
            registry.counter("index.searches").inc(queries.shape[0])
            registry.counter("index.probe_partitions").inc(probed_total)
            registry.histogram("index.search_seconds").observe(
                time.perf_counter() - start
            )
        if single:
            return ids[0], scores[0]
        return ids, scores

    def _search_one(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        nonempty: np.ndarray,
        centroid_affinity: np.ndarray,
        out_ids: np.ndarray,
        out_scores: np.ndarray,
    ) -> int:
        """Probe partitions for one query; returns how many were probed.

        Probes the ``nprobe`` (:meth:`probe_count`) partitions with the
        largest centroid inner product, then widens until at least ``k``
        candidates exist (so a valid ``k`` always yields ``k`` results).
        """
        order = np.argsort(centroid_affinity)[::-1]
        probe = min(nprobe, order.size)
        while True:
            chosen = nonempty[order[:probe]]
            if self._part_sizes[chosen].sum() >= k or probe >= order.size:
                break
            probe = min(probe * 2, order.size)
        candidate_scores = []
        candidate_ids = []
        for part in chosen:
            size = int(self._part_sizes[part])
            candidate_scores.append(self._part_vectors[part][:size] @ query)
            candidate_ids.append(self._part_ids[part][:size])
        flat_scores = np.concatenate(candidate_scores)
        flat_ids = np.concatenate(candidate_ids)
        top = _top_k_desc(flat_scores, k, flat_ids)
        out_ids[:] = flat_ids[top]
        out_scores[:] = flat_scores[top]
        return int(probe)
