"""Compressive ensemble empirical risk minimization.

Train many low-dimensional predictors on independent random compressions of
high-dimensional data, combine them, and measure how the ensemble's excess
risk tracks the compressibility of the underlying distribution.
"""

from ._version import __version__
from .ensemble import EnsembleModel, member_excess_risks, predict, train_ensemble
from .harness import (
    Cell,
    ConfigError,
    ExperimentConfig,
    InsufficientPointsError,
    fit_rate,
    plan_cells,
    run_experiment,
)
from .hypotheses import (
    ErmReport,
    LinearHypothesis,
    ScaleGuardError,
    SweepUncertifiedError,
    erm_exact_classification,
    erm_regression,
    erm_surrogate_classification,
    fit,
)
from .losses import (
    LOSS_KINDS,
    InvalidBetaError,
    LossDomainError,
    LossSpec,
    UndefinedBernsteinError,
    bayes_action,
    bernstein_constant,
    eval_loss,
    make_loss,
)
from .projections import (
    FAMILIES,
    JL_CALIBRATION,
    AxisPoints,
    InvalidDimensionError,
    ProjectionMap,
    apply,
    empirical_jl_check,
    jl_target_dim,
    sample_projection,
)
from .riskbounds import (
    RiskBracket,
    RiskEstimate,
    estimate_compressibility,
    estimate_excess_risk,
    log_plus,
    optimal_k_classification,
    optimal_k_regression,
    risk_bound_bracket,
    sketched_ols_ratio,
)
from .seeds import derive_seed
from .synthdist import (
    AssouadDist,
    AssouadParams,
    FiniteSupportDist,
    GaussMarginDist,
    RegressionDist,
    SmallSampleError,
    assouad_min_n,
    build_assouad_family,
    check_geometric_margin,
    check_membership,
    check_moment,
    check_spectral_decay,
    check_tsybakov,
    chi_squared_adjacent,
    dist_from_config,
)

__all__ = [
    "__version__",
    # seeds
    "derive_seed",
    # projections
    "FAMILIES",
    "JL_CALIBRATION",
    "AxisPoints",
    "InvalidDimensionError",
    "ProjectionMap",
    "apply",
    "empirical_jl_check",
    "jl_target_dim",
    "sample_projection",
    # losses
    "LOSS_KINDS",
    "InvalidBetaError",
    "LossDomainError",
    "LossSpec",
    "UndefinedBernsteinError",
    "bayes_action",
    "bernstein_constant",
    "eval_loss",
    "make_loss",
    # hypotheses
    "ErmReport",
    "LinearHypothesis",
    "ScaleGuardError",
    "SweepUncertifiedError",
    "erm_exact_classification",
    "erm_regression",
    "erm_surrogate_classification",
    "fit",
    # risk bounds
    "RiskBracket",
    "RiskEstimate",
    "estimate_compressibility",
    "estimate_excess_risk",
    "log_plus",
    "optimal_k_classification",
    "optimal_k_regression",
    "risk_bound_bracket",
    "sketched_ols_ratio",
    # synthetic distributions
    "AssouadDist",
    "AssouadParams",
    "FiniteSupportDist",
    "GaussMarginDist",
    "RegressionDist",
    "SmallSampleError",
    "assouad_min_n",
    "build_assouad_family",
    "check_geometric_margin",
    "check_membership",
    "check_moment",
    "check_spectral_decay",
    "check_tsybakov",
    "chi_squared_adjacent",
    "dist_from_config",
    # ensembles
    "EnsembleModel",
    "member_excess_risks",
    "predict",
    "train_ensemble",
    # harness
    "Cell",
    "ConfigError",
    "ExperimentConfig",
    "InsufficientPointsError",
    "fit_rate",
    "plan_cells",
    "run_experiment",
]
