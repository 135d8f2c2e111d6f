"""The materialised interaction dataset: an oracle for the joined one.

Every feature column is stored as its own per-row array, as the worlds
built it before :class:`repro.data.InteractionDataset` became a join of
entity tables.  Subsets copy every column, and each epoch gathers every
column into shuffled order once and slices the batches from that copy.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.data import GROUP_ITEM_PROFILE, GROUP_ITEM_STAT, GROUP_USER, Batch
from repro.data.splits import split_indices


class ReferenceDataset:
    """Feature columns and labels, each a materialised per-row array."""

    def __init__(
        self, schema, features: Dict[str, np.ndarray], labels: Dict[str, np.ndarray]
    ) -> None:
        self.schema = schema
        self.features = features
        self.labels = {name: np.asarray(col, dtype=np.float64) for name, col in labels.items()}

    def __len__(self) -> int:
        return len(next(iter(self.labels.values())))

    def subset(self, indices: np.ndarray) -> "ReferenceDataset":
        return ReferenceDataset(
            self.schema,
            {name: col[indices] for name, col in self.features.items()},
            {name: col[indices] for name, col in self.labels.items()},
        )

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> Iterator[Batch]:
        n = len(self)
        features, labels = self.features, self.labels
        if rng is not None:
            order = np.arange(n)
            rng.shuffle(order)
            features = {name: col[order] for name, col in features.items()}
            labels = {name: col[order] for name, col in labels.items()}
        for start in range(0, n, batch_size):
            stop = start + batch_size
            if drop_last and stop > n:
                break
            yield Batch(
                {name: col[start:stop] for name, col in features.items()},
                {name: col[start:stop] for name, col in labels.items()},
            )

    def feature_matrix(self, groups: Sequence[str]) -> np.ndarray:
        names = self.schema.feature_names(*groups)
        return np.column_stack([self.features[name].astype(np.float64) for name in names])


def reference_split(
    dataset: ReferenceDataset, test_fraction: float, rng: np.random.Generator
) -> Tuple[ReferenceDataset, ReferenceDataset]:
    train_idx, test_idx = split_indices(len(dataset), test_fraction, rng)
    return dataset.subset(train_idx), dataset.subset(test_idx)


def _join(schema, user_table, user_rows, item_table, item_rows, labels, column_names):
    features = {}
    for name in column_names(GROUP_USER):
        features[name] = user_table[name][user_rows]
    for name in column_names(GROUP_ITEM_PROFILE, GROUP_ITEM_STAT):
        features[name] = item_table[name][item_rows]
    return ReferenceDataset(schema, features, labels)


def reference_tmall(world) -> ReferenceDataset:
    """The Tmall world's interactions, materialised from its tables."""
    return _join(
        world.schema,
        world.users, world.interaction_user_indices,
        world.items, world.interaction_item_indices,
        world.interactions.labels, world.schema.all_column_names,
    )


def reference_movies(world) -> ReferenceDataset:
    """The movie world's interactions, materialised from its tables."""
    return _join(
        world.schema,
        world.users, world.interaction_user_indices,
        world.movies, world.interaction_movie_indices,
        world.interactions.labels, world.schema.all_column_names,
    )


def reference_eleme(world) -> ReferenceDataset:
    """The Ele.me world's samples, materialised from its tables.

    The world keeps no copy of the indices it drew, so they are read off
    the samples' sides.
    """
    groups, restaurants = (side.rows for side in world.samples.sides)
    return _join(
        world.schema,
        world.user_groups, groups,
        world.restaurants, restaurants,
        world.samples.labels, world.schema.feature_names,
    )
