"""Kernel functions and the first-argument derivatives the generator needs.

Two families are supported:

* squared exponential        k(x, y) = exp(-||x - y||^2 / sigma^2)
* smoothed Laplace           k(x, y) = exp(-||x - y|| / sigma)

The Laplace kernel is not differentiable on the diagonal, so within a small
radius ``smoothing_radius`` of x == y its derivatives are replaced by those
of a narrow squared-exponential surrogate with lengthscale
``sigma / smoothing_lengthscale_ratio``.  The kernel value itself is never
replaced.

All derivative formulas are with respect to the first argument:

squared exponential, d = x - y:
    grad_x k      = -(2 / sigma^2) d k
    tr hess_x k   = k (4 ||d||^2 / sigma^4 - 2 n / sigma^2)

smoothed Laplace, r = ||d|| > smoothing_radius:
    grad_x k      = -(1 / sigma) (d / r) k
    tr hess_x k   = k (1 / sigma^2 - (n - 1) / (sigma r))
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

SQUARED_EXPONENTIAL = "squared-exponential"
SMOOTHED_LAPLACE = "smoothed-laplace"
_FAMILIES = (SQUARED_EXPONENTIAL, SMOOTHED_LAPLACE)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its shape parameters.

    ``smoothing_lengthscale_ratio`` and ``smoothing_radius`` only matter for
    the smoothed Laplace family; they are ignored by the squared exponential.
    """

    family: str
    sigma: float
    smoothing_lengthscale_ratio: float = 100.0
    smoothing_radius: float = 1e-8

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}"
            )
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (np.isfinite(self.smoothing_lengthscale_ratio)
                and self.smoothing_lengthscale_ratio > 0):
            raise ValueError("smoothing_lengthscale_ratio must be positive")
        if not (np.isfinite(self.smoothing_radius) and self.smoothing_radius >= 0):
            raise ValueError("smoothing_radius must be nonnegative")


def _pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"expected two vectors of equal length, got {x.shape} and {y.shape}")
    return x, y


def value(k: KernelSpec, x, y) -> float:
    """Evaluate k(x, y)."""
    x, y = _pair(x, y)
    d = x - y
    if k.family == SQUARED_EXPONENTIAL:
        return float(np.exp(-d.dot(d) / k.sigma**2))
    return float(np.exp(-np.sqrt(d.dot(d)) / k.sigma))


def grad_x1(k: KernelSpec, x, y) -> np.ndarray:
    """Gradient of k with respect to its first argument, evaluated at (x, y)."""
    x, y = _pair(x, y)
    d = x - y
    r2 = d.dot(d)
    if k.family == SQUARED_EXPONENTIAL:
        return -(2.0 / k.sigma**2) * d * np.exp(-r2 / k.sigma**2)
    r = np.sqrt(r2)
    if r > k.smoothing_radius:
        return -(1.0 / k.sigma) * (d / r) * np.exp(-r / k.sigma)
    s = k.sigma / k.smoothing_lengthscale_ratio
    return -(2.0 / s**2) * d * np.exp(-r2 / s**2)


def hess_trace_x1(k: KernelSpec, x, y) -> float:
    """Trace of the Hessian of k in its first argument, evaluated at (x, y)."""
    x, y = _pair(x, y)
    n = x.size
    d = x - y
    r2 = d.dot(d)
    if k.family == SQUARED_EXPONENTIAL:
        kv = np.exp(-r2 / k.sigma**2)
        return float(kv * (4.0 * r2 / k.sigma**4 - 2.0 * n / k.sigma**2))
    r = np.sqrt(r2)
    if r > k.smoothing_radius:
        kv = np.exp(-r / k.sigma)
        return float(kv * (1.0 / k.sigma**2 - (n - 1) / (k.sigma * r)))
    s = k.sigma / k.smoothing_lengthscale_ratio
    kv = np.exp(-r2 / s**2)
    return float(kv * (4.0 * r2 / s**4 - 2.0 * n / s**2))


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
    if k.family == SQUARED_EXPONENTIAL:
        return np.exp(-cdist(X, Y, "sqeuclidean") / k.sigma**2)
    return np.exp(-cdist(X, Y, "euclidean") / k.sigma)


def cross_kernel_vector(k: KernelSpec, X, x) -> np.ndarray:
    """Vector [k(X[i], x)]_i for a single query point x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"query point must be a vector, got shape {x.shape}")
    return cross_kernel_matrix(k, X, x[None, :])[:, 0]


def _pairwise(k: KernelSpec, X):
    """Pairwise distances D and kernel values K for the target builders.

    Squared exponential: D holds squared distances; the rest is None.
    Smoothed Laplace: D holds distances, set to 1 on the pairs within the
    smoothing radius (mask ``near``); R2near and Ksnear are those pairs'
    squared distances and surrogate values, s the surrogate lengthscale.
    """
    if k.family == SQUARED_EXPONENTIAL:
        D2 = cdist(X, X, "sqeuclidean")
        return D2, np.exp(-D2 / k.sigma**2), None, None, None, None
    R = cdist(X, X, "euclidean")
    K = np.exp(-R / k.sigma)
    near = R <= k.smoothing_radius
    s = k.sigma / k.smoothing_lengthscale_ratio
    R2near = R[near] ** 2
    Ksnear = np.exp(-R2near / s**2)
    R[near] = 1.0
    return R, K, near, R2near, Ksnear, s


def pairwise_grad_dot(k: KernelSpec, X, F) -> np.ndarray:
    """Matrix with entry (i, j) = <F[i], grad_x1 k(X[i], X[j])>.

    F holds one vector per sample point (a drift field sampled on X).
    This is the advection part of a generator target matrix.
    """
    X = _check_points(X)
    F = np.asarray(F, dtype=float)
    if F.shape != X.shape:
        raise ValueError(f"field shape {F.shape} does not match points {X.shape}")
    # <F_i, x_i - x_j> for all pairs, without forming the (N, N, n) tensor
    M = np.einsum("ij,ij->i", F, X)[:, None] - F @ X.T
    D, K, near, _, Ksnear, s = _pairwise(k, X)
    if near is None:
        return -(2.0 / k.sigma**2) * M * K
    out = -(1.0 / k.sigma) * (M / D) * K
    out[near] = -(2.0 / s**2) * M[near] * Ksnear
    return out


def pairwise_hess_trace(k: KernelSpec, X) -> np.ndarray:
    """Matrix with entry (i, j) = tr hess_x1 k(X[i], X[j])."""
    X = _check_points(X)
    n = X.shape[1]
    D, K, near, R2near, Ksnear, s = _pairwise(k, X)
    if near is None:
        return K * (4.0 * D / k.sigma**4 - 2.0 * n / k.sigma**2)
    out = K * (1.0 / k.sigma**2 - (n - 1) / (k.sigma * D))
    out[near] = Ksnear * (4.0 * R2near / s**4 - 2.0 * n / s**2)
    return out


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
    x, y = _pair(x, y)
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

    r = np.linalg.norm(x - y)
    sigma_eff = k.sigma
    if k.family == SMOOTHED_LAPLACE and r <= k.smoothing_radius:
        sigma_eff = k.sigma / k.smoothing_lengthscale_ratio
    kv = value(k, x, y)
    grad_scale = max(np.abs(grad_an).max(), np.abs(grad_fd).max(), kv / sigma_eff)
    trace_scale = max(abs(trace_an), abs(div_fd), n * kv / sigma_eff**2)

    return {
        "grad_rel_err": float(np.abs(grad_an - grad_fd).max() / grad_scale),
        "hess_trace_rel_err": float(abs(trace_an - div_fd) / trace_scale),
    }
