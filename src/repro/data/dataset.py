"""Dataset containers and batching.

Two containers cover the reproduction's needs:

* :class:`FeatureTable` — a column store of per-entity features (one row per
  user, item or restaurant), used for entity catalogues such as the
  new-arrival pool or the active-user group.
* :class:`InteractionDataset` — one row per (user, item) interaction with
  all tower features materialised plus one or more label columns, used for
  training and evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.data.schema import FeatureSchema

__all__ = ["FeatureTable", "Batch", "InteractionDataset"]


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


class InteractionDataset:
    """User-item interaction samples with full tower features and labels.

    Parameters
    ----------
    schema:
        The feature schema describing every feature column.
    features:
        Mapping name → per-row array; must cover every schema feature.
    labels:
        Mapping label name → per-row float array (e.g. ``{"ctr": y}`` or
        ``{"vppv": ..., "gmv": ...}``).
    """

    def __init__(
        self,
        schema: FeatureSchema,
        features: Dict[str, np.ndarray],
        labels: Dict[str, np.ndarray],
    ) -> None:
        self.schema = schema
        expected = set(schema.all_column_names("user", "item_profile", "item_stat"))
        missing = sorted(expected - set(features))
        if missing:
            raise ValueError(f"features missing schema columns: {missing}")
        self.table = FeatureTable(features)
        if not labels:
            raise ValueError("at least one label column is required")
        self.labels: Dict[str, np.ndarray] = {}
        for name, values in labels.items():
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self.table.n_rows,):
                raise ValueError(
                    f"label {name!r} must have shape ({self.table.n_rows},), "
                    f"got {values.shape}"
                )
            self.labels[name] = values

    def __len__(self) -> int:
        return self.table.n_rows

    @property
    def features(self) -> Dict[str, np.ndarray]:
        """The underlying feature columns."""
        return self.table.columns

    def label(self, name: str = "ctr") -> np.ndarray:
        """Return one label column."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(
                f"no label {name!r}; available: {sorted(self.labels)}"
            ) from None

    def subset(self, indices: np.ndarray) -> "InteractionDataset":
        """Return a row-subset dataset."""
        indices = np.asarray(indices)
        return InteractionDataset(
            self.schema,
            {name: col[indices] for name, col in self.table.columns.items()},
            {name: col[indices] for name, col in self.labels.items()},
        )

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> Iterator[Batch]:
        """Yield mini-batches, shuffling when an ``rng`` is provided.

        Every column is gathered into shuffled order *once* per epoch, and
        each batch is a contiguous slice view of that copy — one fancy
        gather per column per epoch instead of one per column per batch,
        which dominates per-step time for small models.

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
        features, labels = self.table.columns, self.labels
        if order is not None:
            features = {name: col[order] for name, col in features.items()}
            labels = {name: col[order] for name, col in labels.items()}
        n = len(self)
        for start in range(0, n, batch_size):
            stop = start + batch_size
            if drop_last and stop > n:
                break
            yield Batch(
                {name: col[start:stop] for name, col in features.items()},
                {name: col[start:stop] for name, col in labels.items()},
            )

    def feature_matrix(self, groups: Sequence[str]) -> np.ndarray:
        """Flat float matrix of all features in ``groups`` (for GBDT)."""
        names: List[str] = self.schema.feature_names(*groups)
        return self.table.to_matrix(names)
