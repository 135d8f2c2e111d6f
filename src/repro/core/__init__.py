"""The paper's core contribution: two-tower models, ATNN and services."""

from repro.core.abtest import (
    ExpertConfig,
    ExpertSelector,
    first_k_transaction_time,
    select_top_k,
)
from repro.core.atnn import ATNN
from repro.core.heads import ConcatMLPHead, WeightedDotHead
from repro.core.multitask import MultiTaskATNN
from repro.core.clustering import KMeansResult, kmeans
from repro.core.popularity import PopularityPredictor
from repro.core.registry import MODEL_REGISTRY, available_models, build_model
from repro.core.retrieval_training import RetrievalTrainer, recall_against_corpus
from repro.core.segmented_popularity import SegmentedPopularityPredictor
from repro.core.standard_dnn import StandardDNN
from repro.core.towers import Tower, TowerConfig
from repro.core.trainer import (
    ATNNTrainer,
    EarlyStopping,
    MultiTaskTrainer,
    TrainingHistory,
    TwoTowerTrainer,
)
from repro.core.two_tower import TwoTowerModel

__all__ = [
    "ExpertConfig",
    "ExpertSelector",
    "first_k_transaction_time",
    "select_top_k",
    "ATNN",
    "ConcatMLPHead",
    "WeightedDotHead",
    "MultiTaskATNN",
    "PopularityPredictor",
    "KMeansResult",
    "kmeans",
    "SegmentedPopularityPredictor",
    "MODEL_REGISTRY",
    "available_models",
    "build_model",
    "RetrievalTrainer",
    "recall_against_corpus",
    "StandardDNN",
    "Tower",
    "TowerConfig",
    "ATNNTrainer",
    "EarlyStopping",
    "MultiTaskTrainer",
    "TrainingHistory",
    "TwoTowerTrainer",
]
