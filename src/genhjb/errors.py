"""Exception types shared across the package, and the integer check.

Callers that drive full pipelines (CLI, sweeps) catch these to distinguish
bad inputs from numerical breakdown from I/O trouble.
"""


class ConfigError(ValueError):
    """Invalid configuration: unknown keys, malformed values, bad shapes."""


def exact_int(value, name: str) -> int:
    """``value`` as an int; a fraction is rejected instead of truncated."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out


class NumericalError(RuntimeError):
    """Base of the numerical breakdowns below; the CLI exits 3 on any of them."""


class ConditioningError(NumericalError):
    """A regularized kernel system could not be factorized.

    Usually means gamma is too small for the dataset, or duplicate
    sample points collapsed the Gram matrix.
    """


class StepSizeError(NumericalError):
    """The implicit time-stepping matrix is singular for the requested dt,
    or too ill-conditioned to invert accurately."""


class DivergenceError(NumericalError):
    """An iteration left the numerical domain (blow-up, NaN, Inf)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NumericalDomainError(NumericalError):
    """A model evaluation produced a non-finite value at a specific point."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where
