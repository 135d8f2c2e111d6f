"""Pipelines regenerating every table of the paper's evaluation."""

from repro.experiments.ablations import (
    AblationResult,
    AblationRow,
    run_cross_depth_ablation,
    run_embedding_sharing_ablation,
    run_lambda_ablation,
)
from repro.experiments.complexity import ComplexityResult, ComplexityRow, run_complexity
from repro.experiments.configs import PRESETS, ExperimentPreset, get_preset
from repro.experiments.extended_baselines import run_extended_baselines
from repro.experiments.retrieval import RetrievalResult, run_retrieval
from repro.experiments.segmentation import SegmentationResult, run_segmentation
from repro.experiments.sweeps import SweepPoint, SweepResult, run_atnn_sweep
from repro.experiments.serving_eval import (
    MonitoredServingResult,
    ServingEvalResult,
    ServingStage,
    run_monitored_serving,
    run_serving_eval,
)
from repro.experiments.slo_smoke import (
    SLOPhase,
    SLOSmokeResult,
    run_slo_smoke,
    smoke_slos,
)
from repro.experiments.training_curves import TrainingCurves, run_training_curves
from repro.experiments.transfer import TransferResult, run_transfer
from repro.experiments.pipeline import (
    ElemeArtifacts,
    TmallArtifacts,
    build_eleme_artifacts,
    build_tmall_artifacts,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    available_experiments,
    run_all,
    run_experiment,
)
from repro.experiments.table1 import PAPER_TABLE1, Table1Result, Table1Row, run_table1
from repro.experiments.table2 import PAPER_TABLE2_TOP_GROUP, Table2Result, run_table2
from repro.experiments.table3 import PAPER_TABLE3, Table3Result, run_table3
from repro.experiments.table4 import PAPER_TABLE4, Table4Result, run_table4
from repro.experiments.table5 import PAPER_TABLE5, Table5Result, run_table5

__all__ = [
    "AblationResult",
    "AblationRow",
    "run_cross_depth_ablation",
    "run_embedding_sharing_ablation",
    "run_lambda_ablation",
    "ComplexityResult",
    "ComplexityRow",
    "run_complexity",
    "PRESETS",
    "ExperimentPreset",
    "get_preset",
    "run_extended_baselines",
    "RetrievalResult",
    "run_retrieval",
    "SegmentationResult",
    "run_segmentation",
    "SweepPoint",
    "SweepResult",
    "run_atnn_sweep",
    "MonitoredServingResult",
    "ServingEvalResult",
    "ServingStage",
    "run_monitored_serving",
    "run_serving_eval",
    "SLOPhase",
    "SLOSmokeResult",
    "run_slo_smoke",
    "smoke_slos",
    "TrainingCurves",
    "run_training_curves",
    "TransferResult",
    "run_transfer",
    "ElemeArtifacts",
    "TmallArtifacts",
    "build_eleme_artifacts",
    "build_tmall_artifacts",
    "EXPERIMENTS",
    "available_experiments",
    "run_all",
    "run_experiment",
    "PAPER_TABLE1",
    "Table1Result",
    "Table1Row",
    "run_table1",
    "PAPER_TABLE2_TOP_GROUP",
    "Table2Result",
    "run_table2",
    "PAPER_TABLE3",
    "Table3Result",
    "run_table3",
    "PAPER_TABLE4",
    "Table4Result",
    "run_table4",
    "PAPER_TABLE5",
    "Table5Result",
    "run_table5",
]
