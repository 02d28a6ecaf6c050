"""Kernel functions and the first-argument derivatives the generator needs.

Each family is one radial profile of the distance in its own metric:
D = ||x - y||^2 for the squared exponential, r = ||x - y|| for the Laplace
kernel.  It gives the value k, the gradient factor g (grad_x k = g (x - y))
and the Hessian trace h = tr hess_x k, all in the first argument, with n the
state dimension:

squared exponential, lengthscale s = sigma:
    k = exp(-D / s^2)     g = -(2 / s^2) k     h = k (4 D / s^4 - 2 n / s^2)

smoothed Laplace, r > SMOOTHING_RADIUS:
    k = exp(-r / sigma)   g = -(1 / sigma) k / r
    h = k (1 / sigma^2 - (n - 1) / (sigma r))

surrogate: the Laplace kernel is not differentiable on the diagonal, so for
r <= SMOOTHING_RADIUS its g and h are the squared exponential's with
s = sigma / SMOOTHING_RATIO at D = r^2.  k is never replaced, so the two
constants act only on the generator targets, never on K or a cross-kernel
value.

The generator applies the gradient only along a drift v, so the profile is
evaluated as <v, grad_x k> + eps h from <v, x - y>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NumericalDomainError, positive

SQUARED_EXPONENTIAL = "squared-exponential"
SMOOTHED_LAPLACE = "smoothed-laplace"
FAMILIES = (SQUARED_EXPONENTIAL, SMOOTHED_LAPLACE)
# the smoothed Laplace surrogate: its radius and sigma over its lengthscale
SMOOTHING_RADIUS = 1e-8
SMOOTHING_RATIO = 100.0


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and lengthscale ``sigma``.

    The smoothed Laplace family's surrogate near the diagonal is fixed by
    the module constants ``SMOOTHING_RADIUS`` and ``SMOOTHING_RATIO``.
    """

    family: str
    sigma: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        positive(self.sigma, "sigma")


def _distances(k: KernelSpec, X, Y) -> np.ndarray:
    """Distances between the rows of X and Y in the family's metric."""
    return cdist(X, Y, "sqeuclidean" if k.family == SQUARED_EXPONENTIAL else "euclidean")


def _value(k: KernelSpec, D, out=None):
    """Kernel values at distances D in the family's metric, written to
    ``out`` when given (D itself may be passed)."""
    scale = k.sigma**2 if k.family == SQUARED_EXPONENTIAL else k.sigma
    # D / -scale is the same float as -D / scale
    out = np.divide(D, -scale, out=out)
    return np.exp(out, out=out)


def _smoothing(k: KernelSpec, r):
    """Mask of the Laplace pairs within the smoothing radius, and the
    surrogate lengthscale their derivatives use."""
    return r <= SMOOTHING_RADIUS, k.sigma / SMOOTHING_RATIO


def _gaussian_terms(D2, kv, M, epsilon, s, n):
    """The squared exponential's terms at squared distances D2, lengthscale s."""
    M *= -(2.0 / s**2)
    M *= kv
    if epsilon:
        # epsilon * (kv * (4 D2 / s^4 - 2 n / s^2)) in one temporary
        t = np.multiply(D2, 4.0)
        t /= s**4
        t -= 2.0 * n / s**2
        t *= kv
        t *= epsilon
        M += t
    return M


def _generator_terms(k: KernelSpec, D, kv, M, epsilon: float, n: int):
    """<v, grad_x1 k> + epsilon tr hess_x1 k on a set of pairs.

    D and kv are the pairs' distances in the family's metric and kernel
    values, M holds <v, x - y> for each pair and is overwritten with the
    result; n is the state dimension.  M is scaled before k multiplies it:
    forming g first rounds differently, and the ridge solve amplifies that
    (to 2e-11 relative in A-hat on a 900-point linear-2d model).
    """
    if k.family == SQUARED_EXPONENTIAL:
        return _gaussian_terms(D, kv, M, epsilon, k.sigma, n)
    near, s = _smoothing(k, D)
    M_near = M[near]
    # the far formula divides by r = 0 on the diagonal; those pairs are
    # overwritten with the surrogate below
    with np.errstate(divide="ignore", invalid="ignore"):
        M /= D
        M *= -(1.0 / k.sigma)
        M *= kv
        if epsilon:
            # epsilon * (kv * (1 / sigma^2 - (n - 1) / (sigma r))) in one temporary
            t = np.multiply(D, k.sigma)
            np.divide(n - 1, t, out=t)
            np.subtract(1.0 / k.sigma**2, t, out=t)
            t *= kv
            t *= epsilon
            M += t
    r2 = D[near] ** 2
    M[near] = _gaussian_terms(r2, np.exp(-r2 / s**2), M_near, epsilon, s, n)
    return M


def _pair_distance(k: KernelSpec, x, y):
    """The pair as float vectors and their distance, shape (1,)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"expected two vectors of equal length, got {x.shape} and {y.shape}")
    return x, y, _distances(k, x[None], y[None])[0]


def value(k: KernelSpec, x, y) -> float:
    """Evaluate k(x, y)."""
    return float(_value(k, _pair_distance(k, x, y)[2])[0])


def grad_x1(k: KernelSpec, x, y) -> np.ndarray:
    """Gradient of k with respect to its first argument, evaluated at (x, y)."""
    x, y, D = _pair_distance(k, x, y)
    D = np.repeat(D, x.size)  # one copy of the pair per coordinate direction
    return _generator_terms(k, D, _value(k, D), x - y, 0.0, x.size)


def hess_trace_x1(k: KernelSpec, x, y) -> float:
    """Trace of the Hessian of k in its first argument, evaluated at (x, y)."""
    x, _, D = _pair_distance(k, x, y)
    return float(_generator_terms(k, D, _value(k, D), np.zeros(1), 1.0, x.size)[0])


def _check_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a (N, n) array of points, got shape {X.shape}")
    return X


def gram_matrix(k: KernelSpec, X) -> np.ndarray:
    """Gram matrix K with K[i, j] = k(X[i], X[j]).  Symmetric, unit diagonal."""
    return cross_kernel_matrix(k, X, X)


def cross_kernel_matrix(k: KernelSpec, X, Y) -> np.ndarray:
    """Rectangular kernel matrix with entry (i, j) = k(X[i], Y[j])."""
    X = _check_points(X)
    Y = _check_points(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"point dimensions differ: {X.shape[1]} vs {Y.shape[1]}")
    D = _distances(k, X, Y)
    return _value(k, D, out=D)


def cross_kernel_vector(k: KernelSpec, X, x) -> np.ndarray:
    """Vector [k(X[i], x)]_i for a single query point x.

    The query goes first: cdist is several times faster with one row
    against many than with many rows against one, and the distances are
    the same bits either way.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"query point must be a vector, got shape {x.shape}")
    return cross_kernel_matrix(k, x[None, :], X)[0]


def _gram_and_targets(k: KernelSpec, X, fields, epsilon: float):
    """Gram matrix of X and one generator target per drift field.

    Returns K and a (len(fields), N, N) array whose slice f is the target of
    field f: entry (i, j) is <F[i], grad_x1 k(X[i], X[j])> plus, for the
    first field only, epsilon tr hess_x1 k(X[i], X[j]).  All of them come
    from one distance pass and one kernel evaluation, and each is built in
    its own slice.  A non-finite target entry raises NumericalDomainError.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    X = _check_points(X)
    D = _distances(k, X, X)
    K = _value(k, D)
    targets = np.empty((len(fields),) + K.shape)
    for f, field in enumerate(fields):
        F = np.asarray(field, dtype=float)
        if F.shape != X.shape:
            raise ValueError(f"field shape {F.shape} does not match points {X.shape}")
        # bad labels surface as the error below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            # <F_i, x_i - x_j> for all pairs, without forming the (N, N, n) tensor
            M = np.matmul(F, X.T, out=targets[f])
            np.subtract(np.einsum("ij,ij->i", F, X)[:, None], M, out=M)
            T = _generator_terms(k, D, K, M, 0.0 if f else epsilon, X.shape[1])
        if not np.all(np.isfinite(T)):
            i, j = np.argwhere(~np.isfinite(T))[0]
            raise NumericalDomainError(
                f"non-finite target matrix entry at ({i}, {j})", where=(int(i), int(j)))
    return K, targets


def fd_check_derivatives(k: KernelSpec, x, y, h: float = 1e-5) -> dict:
    """Compare analytic derivatives against central differences at (x, y).

    The gradient is checked against a central difference of the kernel value.
    The Hessian trace is checked against a central difference of the analytic
    gradient (the divergence of grad_x1); differencing the value twice would
    amplify rounding by 1/h^2 and drown the comparison.

    Relative errors are measured against the larger of the two values being
    compared, floored by the kernel's characteristic derivative scale at the
    point, so the check stays meaningful where the derivatives cancel to zero.

    Returns a dict with ``grad_rel_err`` and ``hess_trace_rel_err``.
    """
    x, y, r = _pair_distance(k, x, y)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step h must be positive, got {h}")
    n = x.size
    grad_fd = np.empty(n)
    div_fd = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad_fd[i] = (value(k, x + e, y) - value(k, x - e, y)) / (2.0 * h)
        div_fd += (grad_x1(k, x + e, y)[i] - grad_x1(k, x - e, y)[i]) / (2.0 * h)

    grad_an = grad_x1(k, x, y)
    trace_an = hess_trace_x1(k, x, y)

    near, s = _smoothing(k, r[0])
    sigma_eff = s if k.family == SMOOTHED_LAPLACE and near else k.sigma
    kv = value(k, x, y)
    grad_scale = max(np.abs(grad_an).max(), np.abs(grad_fd).max(), kv / sigma_eff)
    trace_scale = max(abs(trace_an), abs(div_fd), n * kv / sigma_eff**2)

    return {
        "grad_rel_err": float(np.abs(grad_an - grad_fd).max() / grad_scale),
        "hess_trace_rel_err": float(abs(trace_an - div_fd) / trace_scale),
    }
