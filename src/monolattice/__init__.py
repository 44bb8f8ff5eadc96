"""Calibrated monotonic lattice regression.

Interpolated look-up-table models: a regular grid of parameters over the
feature box, evaluated by multilinear or simplex interpolation, trained by
projected stochastic subgradients under per-dimension monotonicity
constraints, with jointly learned per-feature calibrators.
"""

from .calibrators import (
    CalibratorSet,
    CategoricalCalibrator,
    ContinuousCalibrator,
    DataError,
    FeatureKind,
    FeatureSpec,
    MissingPolicy,
    fit_knots,
)
from .data import Dataset, PairDataset, load_dataset, load_pair_dataset, load_schema
from .interpolation import (
    InterpolationKind,
    SparseWeights,
    evaluate,
    evaluate_batch,
    evaluate_with_gradients,
    interpolation_weights,
    multilinear_weights,
    multilinear_weights_naive,
    multilinear_weights_naive_batch,
    simplex_weights,
)
from .lattice import (
    CellLocation,
    LatticeShape,
    locate_cell,
    locate_cells,
    vertex_coords,
    vertex_index,
)
from .model import Model
from .monotonicity import (
    ConstraintSet,
    Direction,
    build_constraints,
    check_monotonic,
    describe_violations,
    max_infeasibility,
    project_exact,
    project_update,
)
from .regularizers import (
    RegularizerConfig,
    RegularizerKind,
    TermSet,
    regularizer_gradient,
    regularizer_terms,
    regularizer_value,
    sample_regularizer_subgradient,
)
from .training import (
    Loss,
    TrainConfig,
    TrainerState,
    TrainingError,
    evaluate_metrics,
    init_lattice,
    loss_gradients,
    loss_slope,
    loss_value,
    model_objective,
    parallel_train,
    prepare_state,
    sgd_step,
    train,
)

__version__ = "0.1.0"
