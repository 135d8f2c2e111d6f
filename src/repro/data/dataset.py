"""Dataset containers and batching.

Two containers cover the reproduction's needs:

* :class:`FeatureTable` — a column store of per-entity features (one row per
  user, item or restaurant), used for entity catalogues such as the
  new-arrival pool or the active-user group.
* :class:`InteractionDataset` — one row per (user, item) interaction plus
  one or more label columns, used for training and evaluation.  It is the
  join the paper's samples are: each :class:`Side` is an entity table and
  the row of it that every interaction reads, and feature columns are
  gathered from those small tables only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.data.schema import FeatureSchema

__all__ = ["FeatureTable", "Batch", "Side", "InteractionDataset"]


class FeatureTable:
    """A column-oriented table of features keyed by name.

    All columns must share the same number of rows.  Columns holding
    categorical ids are integer arrays; numeric columns are float arrays.
    """

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        if not columns:
            raise ValueError("a FeatureTable needs at least one column")
        lengths = {name: len(np.asarray(col)) for name, col in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"inconsistent column lengths: {lengths}")
        self.columns: Dict[str, np.ndarray] = {
            name: np.asarray(col) for name, col in columns.items()
        }
        self.n_rows = next(iter(lengths.values()))

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {sorted(self.columns)}"
            ) from None

    def subset(self, indices: np.ndarray) -> "FeatureTable":
        """Row-subset view (copying) of the table."""
        indices = np.asarray(indices)
        return FeatureTable({name: col[indices] for name, col in self.columns.items()})

    def select(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Return the requested columns as a dict (missing names raise)."""
        return {name: self[name] for name in names}

    def to_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Stack the requested columns into a dense float matrix.

        Categorical id columns are cast to float codes — exactly the flat
        representation the GBDT baseline consumes.
        """
        if not names:
            raise ValueError("to_matrix needs at least one column name")
        return np.column_stack([self[name].astype(np.float64) for name in names])


class Batch:
    """A mini-batch of interaction rows.

    Attributes
    ----------
    features:
        Column dict restricted to the batch rows.
    labels:
        Label dict restricted to the batch rows.
    size:
        Number of rows.
    """

    def __init__(
        self,
        features: Dict[str, np.ndarray],
        labels: Dict[str, np.ndarray],
    ) -> None:
        self.features = features
        self.labels = labels
        self.size = len(next(iter(features.values())))

    def label(self, name: str = "ctr") -> np.ndarray:
        """Return one label column."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(
                f"no label {name!r}; available: {sorted(self.labels)}"
            ) from None


@dataclass(frozen=True, eq=False)
class Side:
    """One entity table joined into an :class:`InteractionDataset`.

    Dataset row ``i`` reads row ``rows[i]`` of ``table``, for every column
    of the table; ``rows=None`` is the identity (row ``i`` of the table).
    """

    table: FeatureTable
    rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.table) if self.rows is None else len(self.rows)

    def take(self, positions: np.ndarray) -> "Side":
        """The side read at ``positions`` of its rows (one index composition)."""
        return Side(self.table, positions if self.rows is None else self.rows[positions])

    def column(self, name: str) -> np.ndarray:
        """One column at the side's rows (the table's own array for the identity)."""
        column = self.table[name]
        return column if self.rows is None else column[self.rows]

    def gather(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        """Every column at rows ``start:stop`` (views for the identity)."""
        columns = self.table.columns
        if self.rows is None:
            return {name: col[start:stop] for name, col in columns.items()}
        rows = self.rows[start:stop]
        return {name: col[rows] for name, col in columns.items()}


class _Gathered(Mapping):
    """A dataset's feature columns, each gathered on its first read."""

    def __init__(self, side_of: Dict[str, Side]) -> None:
        self._side_of = side_of
        self._read: Dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        column = self._read.get(name)
        if column is None:
            column = self._read[name] = self._side_of[name].column(name)
        return column

    def __contains__(self, name: object) -> bool:
        return name in self._side_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._side_of)

    def __len__(self) -> int:
        return len(self._side_of)


class InteractionDataset:
    """User-item interaction samples: labels plus the joined tower features.

    Parameters
    ----------
    schema:
        The feature schema describing every feature column.
    features:
        Either mapping name → per-row array (held as one :class:`Side` with
        the identity index), or the :class:`Side` s whose columns together
        cover every schema feature.
    labels:
        Mapping label name → per-row float array (e.g. ``{"ctr": y}`` or
        ``{"vppv": ..., "gmv": ...}``).

    Entity columns are shared, not copied: subsets and batches read the
    same arrays, so they must not be written in place once a dataset is
    built on them.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        features: Union[Mapping[str, np.ndarray], Sequence[Side]],
        labels: Dict[str, np.ndarray],
    ) -> None:
        self.schema = schema
        if isinstance(features, Mapping):
            features = [Side(FeatureTable(dict(features)))]
        self.sides = tuple(features)
        if not self.sides:
            raise ValueError("an InteractionDataset needs at least one side")
        lengths = {len(side) for side in self.sides}
        if len(lengths) != 1:
            raise ValueError(f"sides disagree on the row count: {sorted(lengths)}")
        self._n_rows = lengths.pop()
        self._side_of: Dict[str, Side] = {}
        for side in self.sides:
            self._check_rows(side)
            for name in side.table.columns:
                if name in self._side_of:
                    raise ValueError(f"column {name!r} appears in two sides")
                self._side_of[name] = side
        expected = set(schema.all_column_names("user", "item_profile", "item_stat"))
        missing = sorted(expected - set(self._side_of))
        if missing:
            raise ValueError(f"features missing schema columns: {missing}")
        if not labels:
            raise ValueError("at least one label column is required")
        self.labels: Dict[str, np.ndarray] = {}
        for name, values in labels.items():
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self._n_rows,):
                raise ValueError(
                    f"label {name!r} must have shape ({self._n_rows},), "
                    f"got {values.shape}"
                )
            self.labels[name] = values

    @staticmethod
    def _check_rows(side: Side) -> None:
        rows = side.rows
        if rows is None:
            return
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(
                f"side rows must be a 1-D integer array, got {rows.dtype} {rows.shape}"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= len(side.table)):
            raise ValueError(
                f"side rows must lie in [0, {len(side.table)}), "
                f"got [{rows.min()}, {rows.max()}]"
            )

    def __len__(self) -> int:
        return self._n_rows

    @property
    def features(self) -> Mapping[str, np.ndarray]:
        """The feature columns; each is gathered on its first read here."""
        return _Gathered(self._side_of)

    @property
    def table(self) -> FeatureTable:
        """Every feature column gathered into one table."""
        return FeatureTable(dict(self.features))

    def label(self, name: str = "ctr") -> np.ndarray:
        """Return one label column."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(
                f"no label {name!r}; available: {sorted(self.labels)}"
            ) from None

    def subset(self, indices: np.ndarray) -> "InteractionDataset":
        """Return a row-subset dataset sharing this one's entity tables."""
        positions = np.arange(self._n_rows)[np.asarray(indices)]
        return InteractionDataset(
            self.schema,
            [side.take(positions) for side in self.sides],
            {name: col[positions] for name, col in self.labels.items()},
        )

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> Iterator[Batch]:
        """Yield mini-batches, shuffling when an ``rng`` is provided.

        The epoch's permutation is composed into each side's row index
        once, and each batch then gathers its rows from the entity tables,
        which are small enough to stay cache-resident.

        Parameters
        ----------
        batch_size:
            Rows per batch.
        rng:
            When given, rows are shuffled with this generator each epoch.
        drop_last:
            Drop the final short batch (stabilises batch-statistics layers).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        n = len(self)
        if rng is not None:
            order: Optional[np.ndarray] = np.arange(n)
            rng.shuffle(order)
        else:
            order = None
        return self._batches(order, batch_size, drop_last)

    def _batches(
        self, order: Optional[np.ndarray], batch_size: int, drop_last: bool
    ) -> Iterator[Batch]:
        sides, labels = self.sides, self.labels
        if order is not None:
            sides = tuple(side.take(order) for side in sides)
            labels = {name: col[order] for name, col in labels.items()}
        n = len(self)
        for start in range(0, n, batch_size):
            stop = start + batch_size
            if drop_last and stop > n:
                break
            features: Dict[str, np.ndarray] = {}
            for side in sides:
                features.update(side.gather(start, stop))
            yield Batch(
                features, {name: col[start:stop] for name, col in labels.items()}
            )

    def feature_matrix(self, groups: Sequence[str]) -> np.ndarray:
        """Flat float matrix of all features in ``groups`` (for GBDT)."""
        names: List[str] = self.schema.feature_names(*groups)
        if not names:
            raise ValueError("feature_matrix needs at least one column name")
        matrix = np.empty((self._n_rows, len(names)))
        for j, name in enumerate(names):
            matrix[:, j] = self._side_of[name].column(name)
        return matrix
