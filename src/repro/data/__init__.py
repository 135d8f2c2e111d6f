"""Datasets, feature schemas, encoders and synthetic worlds."""

from repro.data.cold_start import zero_statistics
from repro.data.dataset import Batch, FeatureTable, InteractionDataset, Side
from repro.data.encoders import HashEncoder, StandardScaler, VocabEncoder
from repro.data.io import (
    load_feature_table,
    load_interactions,
    save_feature_table,
    save_interactions,
)
from repro.data.schema import (
    GROUP_ITEM_PROFILE,
    GROUP_ITEM_STAT,
    GROUP_USER,
    CategoricalFeature,
    FeatureSchema,
    NumericFeature,
    SequenceFeature,
)
from repro.data.splits import split_indices, train_test_split

__all__ = [
    "Batch",
    "FeatureTable",
    "InteractionDataset",
    "Side",
    "HashEncoder",
    "StandardScaler",
    "VocabEncoder",
    "GROUP_ITEM_PROFILE",
    "GROUP_ITEM_STAT",
    "GROUP_USER",
    "CategoricalFeature",
    "FeatureSchema",
    "NumericFeature",
    "SequenceFeature",
    "split_indices",
    "train_test_split",
    "zero_statistics",
    "load_feature_table",
    "load_interactions",
    "save_feature_table",
    "save_interactions",
]
