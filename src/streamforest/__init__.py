"""Streaming decision trees and forests with batch CART baselines.

Batch trees grow once; stream trees keep growing as batches arrive, only
ever splitting leaves; stream forests bootstrap each batch per tree and
occasionally replace their worst members. A benchmark harness streams
datasets through all four model families under fixed seeds.
"""

__version__ = "0.2.0"

from .tree import (
    BYTES_PER_NODE,
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    TreeNode,
    best_split,
)
from .stream import StreamTree
from .forest import BatchForest, StreamForest, model_size
from .snapshot import load_forest, save_forest
from .data import (
    BatchPlan,
    DataLoadError,
    FoldPlan,
    gen_synthetic,
    load_csv,
    make_batches,
    make_folds,
    save_csv,
)
from .bench import (
    ALGORITHMS,
    BenchRecord,
    ExperimentConfig,
    effect_series,
    effect_size,
    emit_results,
    has_substantial_shift,
    load_results,
    run_cv_experiment,
    run_stream_experiment,
)

__all__ = [
    "__version__",
    "BYTES_PER_NODE",
    "Dataset",
    "DecisionTree",
    "NodeTable",
    "SplitCriteria",
    "TreeNode",
    "best_split",
    "StreamTree",
    "BatchForest",
    "StreamForest",
    "model_size",
    "save_forest",
    "load_forest",
    "BatchPlan",
    "FoldPlan",
    "DataLoadError",
    "gen_synthetic",
    "load_csv",
    "save_csv",
    "make_batches",
    "make_folds",
    "ALGORITHMS",
    "BenchRecord",
    "ExperimentConfig",
    "effect_series",
    "effect_size",
    "emit_results",
    "has_substantial_shift",
    "load_results",
    "run_cv_experiment",
    "run_stream_experiment",
]
