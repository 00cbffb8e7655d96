"""Imbalanced multi-label text classification, end to end and deterministic.

Preprocess social-media text, split with per-label stratification, train a
class-weighted linear classifier over hashed n-grams, tune per-label
decision thresholds in two stages, and score with macro/micro F1. Every
stage is seeded and file-based; the `polarpipe` executable chains them.
"""

from ._kernels import active_backend
from .calibration import (
    GridSpec,
    ThresholdVector,
    apply_thresholds,
    coarse_search,
    load_thresholds,
    oracle_best_thresholds,
    refine_per_label,
    save_thresholds,
    tune,
)
from .corpus import (
    CorpusStats,
    DataError,
    Dataset,
    GoldLabels,
    Instance,
    LabelSchema,
    load_dataset,
    load_labels,
    preprocess,
    save_dataset,
    summarize,
)
from .linear_model import (
    FeaturizerConfig,
    LinearModel,
    SparseVector,
    TrainConfig,
    TrainReport,
    featurize,
    load_model,
    loss_and_grad,
    predict_proba,
    save_model,
    train,
)
from .manifest import PipelineManifest, StageRecord, load_manifest, save_manifest
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    confusion,
    evaluate,
    macro_f1,
    micro_f1,
)
from .probs import ProbabilityMatrix, load_probabilities, save_probabilities
from .splitter import (
    SplitConfig,
    SplitResult,
    balanced_merge,
    iterative_stratified_split,
    stratified_split,
)
from .synth import generate_synthetic
from .weighting import ClassWeights, PosWeights, class_weights, pos_weights

__version__ = "0.1.0"

__all__ = [
    "CorpusStats",
    "ClassWeights",
    "ConfusionCounts",
    "DataError",
    "Dataset",
    "FeaturizerConfig",
    "GoldLabels",
    "GridSpec",
    "Instance",
    "LabelSchema",
    "LinearModel",
    "MetricsReport",
    "PipelineManifest",
    "PosWeights",
    "ProbabilityMatrix",
    "SparseVector",
    "SplitConfig",
    "SplitResult",
    "StageRecord",
    "ThresholdVector",
    "TrainConfig",
    "TrainReport",
    "active_backend",
    "apply_thresholds",
    "balanced_merge",
    "class_weights",
    "coarse_search",
    "confusion",
    "evaluate",
    "featurize",
    "generate_synthetic",
    "iterative_stratified_split",
    "load_dataset",
    "load_labels",
    "load_manifest",
    "load_model",
    "load_probabilities",
    "load_thresholds",
    "loss_and_grad",
    "macro_f1",
    "micro_f1",
    "oracle_best_thresholds",
    "pos_weights",
    "predict_proba",
    "preprocess",
    "refine_per_label",
    "save_dataset",
    "save_manifest",
    "save_model",
    "save_probabilities",
    "save_thresholds",
    "stratified_split",
    "summarize",
    "train",
    "tune",
]
