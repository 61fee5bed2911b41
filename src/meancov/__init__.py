"""Joint mean-covariance estimation with the mean as a unit eigenvector.

The covariance is modeled as ``Sigma = u u^T + sum_i lambda_i V_i V_i^T``
with ``u`` the unit mean direction, so that ``Sigma mu = mu`` holds by
construction.  The package provides a fast approximate MLE, a MAP estimator
extracted from Metropolis-Hastings-within-Gibbs posterior draws, a fast
lower-bound Newton MAP approximation, a normal-inverse-Wishart baseline and
a Monte-Carlo risk harness.
"""

from .exceptions import (
    DegenerateDataError,
    DimensionMismatchError,
    EmptyChainError,
    MeanCovError,
    NonPositiveEigenvalueError,
    NonUnitVectorError,
    ParseError,
    RangeError,
    TooFewRowsError,
    ZeroMeanError,
    ZeroVectorError,
)
from .gibbs import (
    ChainState,
    GibbsRun,
    PriorConfig,
    draw_lambda_conditional,
    hn_diagonal,
    log_posterior,
    map_from_chain,
    run_gibbs,
)
from .mle import (
    estimate_c0,
    estimate_lambdas,
    fit_mle,
    lower_bound_h,
    profile_loglik,
)
from .model import (
    EigenSpectrum,
    Fit,
    MeanState,
    OrthoBasis,
    SampleSet,
    StructuredCovariance,
    build_orthobasis,
)
from .newton_map import (
    NewtonConfig,
    fit_map_newton,
    h_gradient,
    h_hessian,
    h_value,
    map_c0_update,
    map_lambda_update,
)
from .niw import NiwParams, niw_map, niw_posterior, siw_log_density
from .simulate import (
    RiskReport,
    TruthSpec,
    default_estimators,
    format_table,
    generate_truth,
    run_experiment,
    sample_data,
)

__version__ = "0.1.0"
