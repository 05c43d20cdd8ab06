"""Cost-sensitive online classification toolkit.

Second-order online learners with adaptive regularization (full-matrix,
diagonal, sketched, and sparse-sketched), first-order baselines, the
weighted sum/cost metrics, and a reproducible benchmark harness for
LIBSVM-format data.
"""

from .acog import AdaptiveCSGD, covariance_update, covariance_update_diag
from .baselines import CostSensitiveGD, PassiveAggressiveI, Perceptron
from .data import (
    Dataset,
    LibsvmFormatError,
    load_dataset,
    parse_libsvm_line,
    permutation,
    split_folds,
)
from .harness import (
    ALGO_IDS,
    ExperimentConfig,
    RunReport,
    emit_csv,
    grid_select,
    run_cv,
    run_experiment,
    run_single,
)
from .losses import (
    CostModel,
    LossVariant,
    class_weight,
    gradient_scale,
    loss,
    observe_label,
    resolve_rho,
)
from .metrics import (
    ConfusionCounts,
    class_rates,
    cost_metric,
    fit_comparator,
    regret_slope,
    stream_losses,
    sum_metric,
    write_trace_csv,
)
from .sacog import SketchedCSGD, SparseSketchedCSGD
from .sketch import (
    OjaSketch,
    SketchConditionError,
    SparseOjaSketch,
    decompose,
    orthonormalize_rows,
    to_sketch_vector,
)

__version__ = "0.1.0"
