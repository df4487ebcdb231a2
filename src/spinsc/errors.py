"""Exception types shared across the package."""

from contextlib import contextmanager


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


class DivergenceError(SpinscError, RuntimeError):
    """Training loss exceeded the divergence guard."""


class ConfigError(SpinscError, ValueError):
    """A run configuration is missing or malformed."""


class FormatError(SpinscError, ValueError):
    """A serialized artefact is truncated or malformed."""


@contextmanager
def malformed_as_format_error(what):
    """FormatError for a document that fails to parse or lacks an entry."""
    try:
        yield
    except SpinscError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{what} is malformed: {exc!r}") from None
