"""Exception types shared across the toolkit."""
from numpy.linalg import LinAlgError


class ToolkitError(Exception):
    """Base class for all phardy errors."""


class DomainError(ToolkitError, ValueError):
    """Coordinate value outside the model's open coordinate range."""


class InvalidArgumentError(ToolkitError, ValueError):
    """Bad construction argument (grid size, spacing, weight parameter...)."""


class UnsupportedModelError(ToolkitError, ValueError):
    """Operation not defined for this manifold kind."""


class NonFiniteIntegrandError(ToolkitError, ArithmeticError):
    """An integrand evaluated to nan/inf where it matters."""


class ZeroDenominatorError(ToolkitError, ZeroDivisionError):
    """Rayleigh quotient denominator vanished."""


class IndefiniteBandError(ToolkitError, LinAlgError):
    """A tridiagonal band to be solved is not positive definite."""


class RelationViolationError(ToolkitError, ValueError):
    """A parameter relation required by an inequality failed."""

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(f"{condition}: {message}" if message else condition)


class ParabolicModelError(ToolkitError, ValueError):
    """Green-type construction attempted on a p-parabolic model."""


class CollarGradientError(ToolkitError, ValueError):
    """Eigenfunction gradient vanishes on the boundary collar."""


class ConfigError(ToolkitError, ValueError):
    """Unreadable or invalid suite configuration."""
