"""Row-sparse gradients for embedding tables.

A training batch of a few hundred rows touches a tiny fraction of an
industrial id vocabulary, yet a dense backward pass materialises (and the
optimizers then sweep) the full ``num_embeddings x dim`` table on every
step.  :class:`SparseGrad` is the engine's answer: a ``(indices, rows)``
pair standing in for a mostly-zero dense gradient.  The embedding lookup
backward emits one, :meth:`Tensor.backward` knows how to merge them with
each other and with dense gradients, and the optimizers apply row-wise
lazy updates when they see one (see ``docs/performance.md``).

Deduplication of repeated ids in a large vocabulary uses an argsort and
gathers run leaders, scatter-adding only the few duplicate rows.  A table
with no more rows than the lookups (a category or brand table hit by a
whole batch) is instead summed densely with one flat ``np.add.at``, which
needs no sort.

The representation intentionally behaves like an ndarray where the rest of
the codebase (gradient clipping, norm telemetry, tests) expects one:

* ``numpy`` conversion via ``__array__`` (densify),
* scalar ``*``, ``*=``, ``**``, ``abs`` and ``sum()`` stay sparse,
* ``sparse + dense`` densifies, ``sparse + sparse`` stays sparse.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["SparseGrad"]


class SparseGrad:
    """A row-sparse gradient of a 2-D parameter.

    Parameters
    ----------
    shape:
        Shape of the dense parameter the gradient belongs to.
    indices:
        1-D integer array of row ids; may contain repeats until
        :meth:`compact` is called.
    rows:
        ``(len(indices), shape[1])`` float array of per-row gradients.
    compacted:
        True when ``indices`` is already sorted and duplicate-free.
    """

    __slots__ = ("shape", "indices", "rows", "compacted")

    def __init__(
        self,
        shape: Tuple[int, ...],
        indices: np.ndarray,
        rows: np.ndarray,
        compacted: bool = False,
    ) -> None:
        if len(shape) != 2:
            raise ValueError(f"SparseGrad targets 2-D parameters, got shape {shape}")
        indices = np.asarray(indices)
        rows = np.asarray(rows)
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        if rows.shape != (indices.size, shape[1]):
            raise ValueError(
                f"rows must have shape ({indices.size}, {shape[1]}), got {rows.shape}"
            )
        self.shape = tuple(shape)
        self.indices = indices
        self.rows = rows
        self.compacted = bool(compacted)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        indices: np.ndarray,
        rows: np.ndarray,
        shape: Tuple[int, ...],
        dedup: bool = True,
    ) -> "SparseGrad":
        """Build a gradient from (possibly repeated) row updates.

        With ``dedup`` (the default) repeated ids are summed immediately via
        the sort/segment-sum kernel, so consumers see unique rows.
        """
        grad = cls(shape, np.asarray(indices).reshape(-1), rows, compacted=False)
        return grad.compact() if dedup else grad

    def compact(self) -> "SparseGrad":
        """Sum duplicate row ids in place; idempotent and returns ``self``.

        A table with no more rows than the gradient has lookups is summed
        densely (:meth:`_compact_into_table`).  Otherwise it sorts the ids,
        then handles the two regimes separately.  Large id
        vocabularies sampled by a small batch are *mostly collision-free*
        (512 draws from 200k ids repeat ~1 row), so the common case is a
        pure permutation: one gather, no summation.  When duplicates do
        exist, the run *leaders* are gathered and only the few duplicate
        rows are folded in with ``np.add.at`` — per-segment
        ``np.add.reduceat`` costs ~150us for 500 near-singleton segments
        because each segment is a separate ufunc reduction, while the
        scatter-add over the handful of actual duplicates is near-free.
        Both paths add rows in first-appearance order (stable sort +
        in-order scatter), matching the legacy dense accumulation bit for
        bit.
        """
        if self.compacted:
            return self
        if self.indices.size == 0:
            self.compacted = True
            return self
        if self.shape[0] <= self.indices.size:
            return self._compact_into_table()
        order = np.argsort(self.indices, kind="stable")
        sorted_indices = self.indices[order]
        is_run_start = np.empty(sorted_indices.size, dtype=bool)
        is_run_start[0] = True
        np.not_equal(sorted_indices[1:], sorted_indices[:-1], out=is_run_start[1:])
        boundaries = np.flatnonzero(is_run_start)
        self.indices = sorted_indices[boundaries]
        if boundaries.size == sorted_indices.size:
            # No duplicates: the "dedup" is a permutation.
            self.rows = self.rows[order]
        else:
            sorted_rows = self.rows[order]
            leaders = np.ascontiguousarray(sorted_rows[boundaries])
            duplicate_mask = ~is_run_start
            segment_ids = np.cumsum(is_run_start) - 1
            np.add.at(  # repro-lint: disable=ATN003 -- segment-sum tail: scatter-adds only the duplicate rows (a handful per batch), not a dense table
                leaders, segment_ids[duplicate_mask], sorted_rows[duplicate_mask]
            )
            self.rows = leaders
        self.compacted = True
        return self

    def _compact_into_table(self) -> "SparseGrad":
        """:meth:`compact` for a table no longer than the lookup list.

        Sums every row into a flat ``-0.0`` table with one in-order
        scatter-add, then keeps the rows some id touched.  Starting from
        ``-0.0`` and adding in input order gives each row exactly the
        sort path's sum (``-0.0 + x == x`` for every ``x``, ``-0.0``
        included), with no sort.
        """
        dim = self.shape[1]
        flat = np.full(self.shape[0] * dim, -0.0, dtype=self.rows.dtype)
        np.add.at(  # repro-lint: disable=ATN003 -- the table has no more rows than the lookups scatter into it
            flat,
            (self.indices[:, None] * dim + np.arange(dim)).ravel(),
            self.rows.ravel(),
        )
        present = np.flatnonzero(np.bincount(self.indices, minlength=self.shape[0]))
        self.rows = flat.reshape(self.shape)[present]
        self.indices = present.astype(self.indices.dtype, copy=False)
        self.compacted = True
        return self

    def copy(self) -> "SparseGrad":
        """Deep copy (own buffers)."""
        return SparseGrad(
            self.shape, self.indices.copy(), self.rows.copy(), self.compacted
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dtype(self):
        return self.rows.dtype

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def nnz_rows(self) -> int:
        """Number of distinct rows carrying gradient."""
        return int(self.compact().indices.size)

    def __repr__(self) -> str:
        return (
            f"SparseGrad(shape={self.shape}, rows={self.indices.size}, "
            f"compacted={self.compacted})"
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the dense gradient table."""
        compacted = self.compact()
        dense = np.zeros(self.shape, dtype=dtype or self.rows.dtype)
        if compacted.indices.size:
            dense[compacted.indices] = compacted.rows
        return dense

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # Lets numpy consumers (``np.asarray``, ``assert_allclose``, ufuncs
        # on mixed operands) transparently densify.
        return self.to_dense(dtype=dtype)

    def add_into(self, dense: np.ndarray) -> np.ndarray:
        """Scatter-add this gradient into ``dense`` in place.

        Raises
        ------
        ValueError
            On a shape mismatch, or when ``dense`` overlaps this
            gradient's row storage — an indexed read-modify-write into a
            buffer that aliases its own source silently corrupts both.
        """
        if dense.shape != self.shape:
            raise ValueError(f"shape mismatch: {dense.shape} vs {self.shape}")
        compacted = self.compact()
        if compacted.indices.size:
            # Bounds-only check: O(1), and a bounds overlap between a
            # gradient's rows and its accumulation target is already a
            # buffer-discipline violation in this engine.
            if np.may_share_memory(dense, compacted.rows):
                raise ValueError(
                    "SparseGrad.add_into target aliases the gradient's own "
                    "row storage; copy one side before accumulating"
                )
            dense[compacted.indices] += compacted.rows
        return dense

    # ------------------------------------------------------------------
    # Arithmetic (sparse-preserving where possible)
    # ------------------------------------------------------------------
    def merge(self, other: "SparseGrad") -> "SparseGrad":
        """Sum of two sparse gradients; stays sparse, defers dedup."""
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {other.shape} vs {self.shape}")
        if self.indices.size == 0:
            return other.copy()
        if other.indices.size == 0:
            return self.copy()
        return SparseGrad(
            self.shape,
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.rows, other.rows]),
            compacted=False,
        )

    def __add__(self, other):
        if isinstance(other, SparseGrad):
            return self.merge(other)
        other = np.asarray(other)
        result = np.array(other, dtype=np.result_type(other, self.rows), copy=True)
        return self.add_into(result)

    __radd__ = __add__

    def __mul__(self, scalar):
        scalar = self._require_scalar(scalar, "*")
        return SparseGrad(self.shape, self.indices, self.rows * scalar, self.compacted)

    __rmul__ = __mul__

    def __imul__(self, scalar):
        scalar = self._require_scalar(scalar, "*=")
        self.rows *= scalar
        return self

    def __neg__(self):
        return SparseGrad(self.shape, self.indices, -self.rows, self.compacted)

    def __pow__(self, exponent):
        exponent = self._require_scalar(exponent, "**")
        compacted = self.compact()
        return SparseGrad(
            self.shape, compacted.indices, compacted.rows ** exponent, compacted=True
        )

    def __abs__(self):
        compacted = self.compact()
        return SparseGrad(
            self.shape, compacted.indices, np.abs(compacted.rows), compacted=True
        )

    def sum(self) -> float:
        """Sum over the (implicit) dense table — zeros contribute nothing."""
        return float(self.rows.sum())

    def __getitem__(self, index):
        # Convenience for inspection/tests; materialises the dense table.
        return self.to_dense()[index]

    @staticmethod
    def _require_scalar(value, op: str):
        if isinstance(value, (int, float, np.floating, np.integer)):
            return value
        raise TypeError(f"SparseGrad only supports scalar {op}, got {type(value)!r}")
