"""Sparse signal detection under equicorrelated, grouped, and rank-one
Gaussian noise: optimal tests, minimax separation rates, divergence lower
bounds, and a deterministic Monte Carlo risk engine."""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    ConfigError,
    ContractError,
    CorrdetectError,
    DomainError,
    SingularCovarianceError,
    UnsupportedRegimeError,
)
from .gaussian import alpha, laurent_massart_upper, thresholded_sum_tail_bound
from .models import (
    CorrelationModel,
    Equicorrelated,
    Grouped,
    Observation,
    RankOne,
    covariance_apply,
    decorrelate,
    precision_apply,
    sample,
)

__all__ = [
    "__version__",
    "CorrdetectError", "DomainError", "ContractError", "SingularCovarianceError",
    "UnsupportedRegimeError", "CalibrationError", "ConfigError",
    "alpha", "laurent_massart_upper", "thresholded_sum_tail_bound",
    "Equicorrelated", "Grouped", "RankOne", "CorrelationModel", "Observation",
    "sample", "decorrelate", "precision_apply", "covariance_apply",
]
