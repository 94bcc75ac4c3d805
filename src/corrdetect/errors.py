"""Semantic exception hierarchy."""


class CorrdetectError(Exception):
    """Base class for all package errors."""


class DomainError(CorrdetectError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractError(CorrdetectError, ValueError):
    """Arguments violate a structural precondition (shapes, ranges, pairing).
    ``argument`` names the parameter refused (``"p"``, ``"s"``, ...), if any."""

    def __init__(self, message: str, argument=None):
        self.argument = argument
        super().__init__(message)


class SingularCovarianceError(ContractError):
    """The covariance is singular (perfect correlation) and the requested
    operation needs an inverse."""


class UnsupportedRegimeError(ContractError):
    """The parameter configuration falls outside the regime an operation
    supports (e.g. a noiseless-only path invoked with gamma < 1)."""


class CalibrationError(CorrdetectError, RuntimeError):
    """Monte Carlo calibration cannot deliver the requested quantile."""


class ConfigError(CorrdetectError, ValueError):
    """An experiment configuration failed validation.

    ``path`` locates the offending field, e.g. ``model.R``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")
