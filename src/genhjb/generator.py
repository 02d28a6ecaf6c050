"""Kernel ridge regression of the generator of a controlled diffusion.

For a drift field f_pi and diffusion strength eps, the generator acts on
observables as L h = <f_pi, grad h> + eps laplacian h.  Sampling L applied
to the kernel sections k(x_l, .) at the data points gives the target matrix

    (K_pi)_{ij} = <f_pi(x_i), grad_x1 k(x_i, x_j)> + eps tr hess_x1 k(x_i, x_j),

and ridge regression with the regularized Gram matrix K_gamma = K + N gamma I
yields the compressed operator K_gamma^{-1} K_pi acting on coefficient
vectors.  Control-affine structure survives the regression: A-hat is the
fit of the zero-input drift f, and B-hat_j the fit of the input-map column
g_j alone, with no diffusion term (the target is linear in the drift, so
the target of f + g_j minus that of f is exactly the target of g_j).  The
operator under input u is A-hat + sum_j u_j B-hat_j.

The model stores what the HJB step of :mod:`genhjb.hjb` multiplies by,
(K_gamma - dt T_A) w_{m+1} = K_gamma w_m + dt q(X) + dt D_r(C w_m), not
A-hat itself: the drift target T_A = K_gamma A-hat, C_j = K B-hat_j =
T_Bj - N gamma K_gamma^{-1} T_Bj, formed in place from the input target
T_Bj, and the stage cost q(X) at the data points as the dataset gives it.
B-hat_j is not stored: the model keeps the input-map samples G_j = g_j(X),
N n_x numbers per channel, and ``apply_b_hat`` forms B-hat_j v = K_gamma^{-1} (T_Bj v)
with T_Bj v streamed from G by row blocks.  A fit costs one Cholesky
factor and one solve with N right-hand sides per input, about
(1/3 + 2 n_u) N^3 flops; A-hat is applied on demand as K_gamma^{-1} (T_A h),
O(N^2) per vector.

The distances are built by row blocks beside K, so no N x N distance
array exists, and K_gamma is factored in K's own buffer: cdist makes K
bitwise symmetric, so its Fortran-ordered transpose is the same matrix,
and LAPACK factors it in place.  Each C_j is formed in T_Bj's own slice
by ``SOLVE_BLOCKS`` column blocks: ``scipy.linalg.cho_solve`` (LAPACK
``dpotrs``) solves a Fortran copy of a block with K_gamma, N gamma times
the solution is subtracted from the block in place, and the copy is freed
before the next one is made, so B-hat_j never exists whole.  At its peak
a fit holds the factor, the 1 + n_u targets and one column block,
(2 + n_u + 1 / SOLVE_BLOCKS) N^2 doubles; the model keeps (1 + n_u) N^2,
T_A and the C_j, and neither the factor nor the Gram matrix: K is rebuilt
from the kernel and X where a step needs it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
from .dynamics import GeneratorDataset
from .errors import ConditioningError, positive
from .kernels import KernelSpec
from .npzio import load_arrays, require_array, require_meta, save_arrays

# the ridge solve of each input target runs on this many column blocks,
# so its buffer is N^2 / SOLVE_BLOCKS doubles
SOLVE_BLOCKS = 8


def target_kernel_matrix(kernel: KernelSpec, X, drift, epsilon: float) -> np.ndarray:
    """Generator target matrix for one drift channel.

    ``drift`` holds the drift vector at each sample point (same shape as X).
    Entry (i, j) applies the generator in the first kernel argument at x_i.
    """
    return kernels._gram_and_targets(kernel, X, [drift], epsilon)[1][0]


@dataclass
class GeneratorModel:
    """Fitted generator: data, kernel, and compressed operator blocks.

    ``A_target`` is the drift channel's target T_A = K_gamma A-hat, so the
    zero-input generator on coefficient vectors is K_gamma^{-1} A_target.
    ``G[j]`` holds input channel j's map g_j at the data points, shape
    (n_u, N, n_x); its target T_Bj = K_gamma B-hat_j is rebuilt from it by
    row blocks where needed (``apply_b_hat``).  ``KB_hat[j]`` is the
    product K B-hat_j with the Gram matrix, the only N x N block stored per
    channel.  ``q`` is the stage cost at each data point, the dataset's
    values bit for bit.  The model is plain data: neither the Gram matrix
    nor a factor of K_gamma is stored; ``K`` rebuilds the former on each
    access.
    """

    kernel: KernelSpec
    X: np.ndarray
    gamma: float
    epsilon: float
    A_target: np.ndarray
    G: np.ndarray
    KB_hat: np.ndarray
    q: np.ndarray

    @property
    def K(self) -> np.ndarray:
        """The Gram matrix of X, a new array built on each access."""
        return kernels.gram_matrix(self.kernel, self.X)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def n_u(self) -> int:
        return self.KB_hat.shape[0]


def _factor_kgamma(K: np.ndarray, gamma: float):
    """Cholesky factor of K + N gamma I, built in K's own buffer, which it
    overwrites.  K is a C-ordered Gram matrix from ``kernels``, bitwise
    symmetric, so its Fortran-ordered transpose is the same matrix and
    LAPACK factors that in place."""
    N = K.shape[0]
    K[np.diag_indices(N)] += N * gamma
    try:
        return scipy.linalg.cho_factor(K.T, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"Cholesky of the regularized Gram matrix failed (N={N}, gamma={gamma}); "
            f"increase gamma or thin the dataset: {exc}"
        ) from None


def fit(dataset: GeneratorDataset, kernel: KernelSpec, gamma: float,
        epsilon: float) -> GeneratorModel:
    """Fit the generator operator blocks from a drift dataset.

    The ridge parameter enters as N gamma on the Gram diagonal, so tabulated
    gamma values transfer across dataset sizes.  The model keeps T_A, each
    C_j = K B-hat_j and the input-map samples G (the label differences);
    B-hat_j is solved one column block at a time and dropped, so the fit
    peaks at (2 + n_u + 1 / SOLVE_BLOCKS) N^2 doubles.  A non-finite stage
    cost raises ValueError naming its first point before any matrix is
    built.
    """
    gamma = positive(gamma, "gamma")
    X = dataset.X
    bad = np.flatnonzero(~np.isfinite(dataset.q))
    if bad.size:
        raise ValueError(f"non-finite stage cost at data point {bad[0]}: {dataset.q[bad[0]]}")
    N = X.shape[0]
    labels = dataset.drift_labels
    # channel j's label is f + g_j, so the difference is g_j
    G = labels[1:] - labels[0]
    K, targets = kernels._gram_and_targets(kernel, X, [labels[0], *G], epsilon)
    cho = _factor_kgamma(K, gamma)
    KB_hat = targets[1:]
    width = -(-N // SOLVE_BLOCKS)
    for C in KB_hat:
        for start in range(0, N, width):
            cols = slice(start, start + width)
            # K B_hat_j = T_Bj - N gamma K_gamma^-1 T_Bj, overwriting T_Bj in
            # place; B is freed before the next block is copied
            B = scipy.linalg.cho_solve(cho, C[:, cols], check_finite=False)
            B *= N * gamma
            C[:, cols] -= B
            del B
    return GeneratorModel(
        kernel=kernel, X=X, gamma=gamma, epsilon=epsilon,
        A_target=targets[0], G=G, KB_hat=KB_hat, q=dataset.q,
    )


def _cho_solve(cho, rhs) -> np.ndarray:
    """Solve with a Cholesky factor from ``_factor_kgamma``.  Only the
    right-hand side is checked for non-finite entries (ValueError): the
    factor is finite once LAPACK has built it, and rescanning its N^2
    entries on every solve would cost more than the solve's own sweeps."""
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must not contain infs or NaNs")
    return scipy.linalg.cho_solve(cho, rhs, check_finite=False)


def solve_regularized(model: GeneratorModel, rhs: np.ndarray) -> np.ndarray:
    """Solve K_gamma z = rhs by a Cholesky factor of a fresh Gram matrix,
    built for this solve and not kept."""
    return _cho_solve(_factor_kgamma(model.K, model.gamma), rhs)


def apply_b_hat(model: GeneratorModel, v) -> np.ndarray:
    """B-hat_j v for every input channel j, shape (n_u, N).

    B-hat_j v = K_gamma^{-1} (T_Bj v): T_Bj v is streamed from G by row
    blocks in the pass that builds a fresh Gram matrix, which is then
    factored in place, so the call holds one N x N array.
    """
    K, TBv = kernels._gram_and_target_products(model.kernel, model.X, model.G, v)
    return np.ascontiguousarray(_cho_solve(_factor_kgamma(K, model.gamma), TBv.T).T)


def generator_apply(model: GeneratorModel, u, h_coeff, x) -> float:
    """Apply the learned generator under input u to an RKHS function at x.

    ``h_coeff`` are the coefficients of h = sum_i h_i k(x_i, .); the result
    is (L-hat_u h)(x), with one solve of T_A h + sum_j u_j T_Bj h.  The
    zero vector selects the uncontrolled generator.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (model.n_u,):
        raise ValueError(f"input must have shape ({model.n_u},), got {u.shape}")
    h_coeff = np.asarray(h_coeff, dtype=float)
    if h_coeff.shape != (model.n_points,):
        raise ValueError(f"h_coeff must have shape ({model.n_points},)")
    K, TBh = kernels._gram_and_target_products(model.kernel, model.X, model.G, h_coeff)
    rhs = model.A_target @ h_coeff
    rhs += u @ TBh
    coeff = _cho_solve(_factor_kgamma(K, model.gamma), rhs)
    return float(coeff @ kernels.cross_kernel_vector(model.kernel, model.X, x))


def min_eig_estimate(model: GeneratorModel) -> float:
    """Smallest eigenvalue of K_gamma, estimated by 30 steps of inverse power
    iteration from a random start vector drawn with seed 0."""
    cho = _factor_kgamma(model.K, model.gamma)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(model.n_points)
    v /= np.linalg.norm(v)
    lam_inv = 0.0
    for _ in range(30):
        w = _cho_solve(cho, v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        lam_inv = nw
        v = w / nw
    if lam_inv == 0.0:
        raise ConditioningError("inverse power iteration collapsed")
    return 1.0 / lam_inv


def save_model(path, model: GeneratorModel, config_hash: str | None = None) -> None:
    """Serialize a fitted model to a byte-stable .npz archive.

    The data points, the input-map samples G, the operator blocks T_A and
    K B-hat_j and the stage cost at the points are stored.  The Gram matrix
    is a function of the kernel and the points, and B-hat_j of those and
    G, so none of them nor a factor of K_gamma is stored, and loading
    builds none.  The metadata records the smoothed Laplace surrogate's
    ``kernels.SMOOTHING_RADIUS`` and ``SMOOTHING_RATIO``, which set the
    targets' diagonal (see ``kernels``).
    """
    meta = {
        "kind": "generator-model",
        "kernel_family": model.kernel.family,
        "sigma": model.kernel.sigma,
        "gamma": model.gamma,
        "epsilon": model.epsilon,
        "smoothing_radius": kernels.SMOOTHING_RADIUS,
        "smoothing_ratio": kernels.SMOOTHING_RATIO,
        "config_hash": config_hash,
    }
    save_arrays(
        path,
        {"X": model.X, "A_target": model.A_target, "G": model.G,
         "KB_hat": model.KB_hat, "q": model.q},
        meta=meta,
    )


def load_model(path):
    """Load a model archive; returns (model, meta).

    An archive without one of the model's arrays or metadata entries, or
    with an array of the wrong shape, raises ValueError naming it; an
    archive that stores B-hat in place of G (written before G was stored)
    is one without G.  So does
    a recorded surrogate constant that differs from the one in ``kernels``,
    since the targets were built with it; an archive that records none
    (written before they were recorded) loads as it is.
    """
    arrays, meta = load_arrays(path)
    if meta is None or meta.get("kind") != "generator-model":
        raise ValueError(f"{path} is not a generator model archive")
    family, sigma, gamma, epsilon = require_meta(
        meta, ("kernel_family", "sigma", "gamma", "epsilon"), path)
    for key, value in (("smoothing_radius", kernels.SMOOTHING_RADIUS),
                       ("smoothing_ratio", kernels.SMOOTHING_RATIO)):
        if meta.get(key, value) != value:
            raise ValueError(f"{path} metadata {key!r} is {meta[key]!r}, but the "
                             f"kernels module's is {value!r}; refit the model")
    kernel = KernelSpec(family=family, sigma=sigma)
    X = require_array(arrays, "X", (None, None), path)
    N, n_x = X.shape
    A_target = require_array(arrays, "A_target", (N, N), path)
    KB_hat = require_array(arrays, "KB_hat", (None, N, N), path)
    G = require_array(arrays, "G", (KB_hat.shape[0], N, n_x), path)
    model = GeneratorModel(
        kernel=kernel, X=X, gamma=gamma, epsilon=epsilon, A_target=A_target, G=G,
        KB_hat=KB_hat, q=require_array(arrays, "q", (N,), path))
    return model, meta
