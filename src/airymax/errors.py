"""Exception taxonomy shared across the package."""


class AirymaxError(Exception):
    """Base class for all package errors."""


class DomainError(AirymaxError, ValueError):
    """Input outside the mathematical domain of an operation."""


class RangeError(DomainError):
    """Argument outside the range covered by a precomputed solution."""


class SolverFailureError(AirymaxError):
    """Iterative solver failed to converge; carries the final residual."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"solver did not converge (residual {residual:.3e})")


class IntegrationFailureError(AirymaxError):
    """ODE integration failed; carries the location of the failure."""

    def __init__(self, location, message=None):
        self.location = location
        super().__init__(message or f"integration failed near {location!r}")


class TailRegularizationError(AirymaxError):
    """Oscillatory-tail regularization could not certify convergence."""

    def __init__(self, diagnostics=None, message=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message or f"regularized extrapolation did not converge: {self.diagnostics}")


class ResolutionError(AirymaxError):
    """A grid is too coarse for the requested operation."""


class MisconfigurationError(AirymaxError):
    """Inconsistent configuration detected before or during a computation."""


class DiscretizationFailureError(AirymaxError):
    """Operator discretization produced an unusable matrix (e.g. det <= 0)."""


class OracleUnavailableError(AirymaxError):
    """An oracle computation is ill-conditioned beyond trust."""

    def __init__(self, condition_number=None, message=None):
        self.condition_number = condition_number
        super().__init__(message or f"oracle unavailable (condition number {condition_number!r})")


class PrecisionError(AirymaxError):
    """Double precision cannot resolve the requested quantity at this input."""


class StatisticsError(AirymaxError):
    """Insufficient samples for a valid statistical test."""
