"""Exception types shared across the package, and the shared value checks.

Callers that drive full pipelines (CLI, sweeps) catch these to distinguish
bad inputs from numerical breakdown from I/O trouble.

Every scalar and box check in the package is one of the helpers below
(``number``, ``positive``, ``nonnegative``, ``exact_int``, ``count`` and
``check_box``); each raises ConfigError naming the argument, and its
caller keeps the float or int it returns.  The checks kept elsewhere
follow another rule: the plant's actuator box in
``dynamics.ControlAffineSystem`` allows an infinite bound and rejects only
NaN; the shape checks on the query path (``kernels.cross_kernel_matrix``
on the states, which a single state meets as a batch of one, and
``penalty._lam`` on lambda) and on each block of a policy score
(``evaluation._batch_inputs``) test one array's shape, not its values,
on every call; and ``cli._pair`` names the config key it reads.
"""
import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: unknown keys, malformed values, bad shapes."""


def number(value, name: str) -> float:
    """``value`` as a finite float; a boolean (YAML ``true``) is rejected
    instead of read as 1.0 or 0.0, and a string (YAML 1.1 reads ``1e-8``,
    with no dot, as one) instead of parsed, as ``exact_int`` rejects them."""
    try:
        out = None if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None:
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def positive(value, name: str) -> float:
    """``value`` as a finite float above zero."""
    out = number(value, name)
    if out <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return out


def nonnegative(value, name: str) -> float:
    """``value`` as a finite float of at least zero."""
    out = number(value, name)
    if out < 0:
        raise ConfigError(f"{name} must be nonnegative, got {value!r}")
    return out


def exact_int(value, name: str) -> int:
    """``value`` as an int; a fraction is rejected instead of truncated, and
    a boolean (YAML ``true``) instead of read as 1 or 0."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out


def count(value, name: str, least: int = 1) -> int:
    """``value`` as an int of at least ``least`` (see ``exact_int``)."""
    out = exact_int(value, name)
    if out < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    return out


def check_box(lo, hi, n: int | None, lo_name: str = "lo", hi_name: str = "hi") -> tuple:
    """``lo`` and ``hi`` as finite float vectors of ``n`` entries (as many as
    ``lo`` when ``n`` is None) with lo <= hi; errors use the names given.
    Each entry is read by ``number``, so a boolean, a string, NaN or an
    infinity is rejected."""
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=object)) for b in (lo, hi))
    n = lo.size if n is None else n
    bounds = []
    for bound, name in ((lo, lo_name), (hi, hi_name)):
        if bound.shape != (n,):
            raise ConfigError(f"{name} must have {n} entries, got {bound.size}")
        bounds.append(np.array([number(v, name) for v in bound], dtype=float))
    lo, hi = bounds
    if np.any(lo > hi):
        raise ConfigError(f"{lo_name} must not exceed {hi_name}, got {lo.tolist()} and "
                          f"{hi.tolist()}")
    return lo, hi


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
