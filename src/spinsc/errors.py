"""Exception types shared across the package."""


class SpinscError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SpinscError, ValueError):
    """An argument is outside its mathematical domain."""


class ShapeError(SpinscError, ValueError):
    """Operand dimensions are incompatible."""


class StepFaultError(SpinscError, FloatingPointError):
    """A non-finite value appeared during time integration."""


class FitDomainError(SpinscError, ValueError):
    """The data does not span enough of the curve to support a fit."""


class ConvergenceError(SpinscError, RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class UnsupportedModeError(SpinscError, ValueError):
    """The operation does not support the model's activation mode."""


class DivergenceError(SpinscError, RuntimeError):
    """Training loss exceeded the divergence guard."""


class ConfigError(SpinscError, ValueError):
    """A run configuration is missing or malformed."""


class FormatError(SpinscError, ValueError):
    """A serialized artefact is truncated or malformed."""
