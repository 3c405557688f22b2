"""Distribution-free prediction sets from cross-validation conformal methods.

The package builds fold-wise conformal p-values from any symmetric regression
algorithm and combines them into prediction sets with finite-sample marginal
coverage guarantees: the plain pooled-rank cross method, the mean-p-value
variant, and its exchangeable (e-), randomized (u-) and combined (eu-)
improvements, plus split conformal and CV+/jackknife+ for comparison.
"""

from .combiners import (
    CoverageBounds,
    alpha_prime,
    coverage_bounds,
)
from .conformal_sets import (
    ALL_METHODS,
    FOLD_METHODS,
    InformativenessWarning,
    PredictionSet,
    SplitState,
    candidate_endpoints,
    cross_membership,
    cv_plus_from_scores,
    empirical_quantile,
    fold_method_sets,
    split_conformal,
    split_set_from_state,
)
from .data_model import (
    Dataset,
    FoldAssignment,
    RandomDraws,
    RandomSource,
    assign_folds,
    load_csv,
    load_query_csv,
    randomization_stream,
)
from .errors import InvalidConfigurationError, InvalidDataError, NumericalError
from .experiments import (
    AggregateReport,
    AggregateRow,
    SimulationConfig,
    fit_state,
    query_sets,
    run_real_data,
    run_simulation,
    simulate_instance,
)
from .regression import (
    KnnModel,
    LinearModel,
    RegressorSpec,
    fit,
    fit_knn,
    fit_min_norm_ols,
    fit_ridge,
    parse_regressor,
)
from .scores import CvScores, ScoreFunctionSpec, compute_cv_scores

__version__ = "0.1.0"
