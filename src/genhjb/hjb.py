"""Finite-dimensional HJB final-value problem in the learned RKHS basis.

With the fitted blocks A-hat, B-hat_j and the stage cost q(X) at the data
points, the value function's coefficient vector v(t) solves the backward ODE

    -dv/dt = A-hat v + K_gamma^{-1} (q(X) + D_r(lambda(v))),

integrated from the zero final condition over the horizon.  Here
lambda_j(v) at the data points is K B-hat_j v, and D_r is the box-penalty
dual from :mod:`genhjb.penalty` applied row-wise.  Each step is
implicit-explicit (IMEX; Ascher, Ruuth & Spiteri, 1997): the linear part
is taken implicitly and the control nonlinearity explicitly,

    (I - dt A-hat) w_{m+1} = w_m + dt K_gamma^{-1} (q(X) + D_r(lambda(w_m))).

The step is applied multiplied through by K_gamma.  With the model's drift
target T_A = K_gamma A-hat and C_j = K B-hat_j it reads

    (K_gamma - dt T_A) w_{m+1} = K_gamma w_m + dt q(X) + dt D_r(C w_m),

so neither A-hat nor K_gamma^{-1} is ever formed.  Setup builds
F = K + N gamma I - dt T_A in a freshly built Gram matrix, adding T_A by
row blocks, and factors it there by LU (about 2/3 N^3 flops), then solves
F c = dt q(X) once.  Each step advances by an increment,

    w_{m+1} = w_m + c + F^{-1} (dt T_A w_m + dt D_r(C w_m)),

which is 1 + n_u matrix-vector products and one LU solve (two triangular
sweeps, as many bytes as one more product).  The increment form and the
LU solve both matter for accuracy: K_gamma w_m cancels heavily when the
coefficients are large, and applying an explicit inverse of F amplifies
rounding by up to cond(K_gamma).  Time is reversed, so step m holds the
value of a horizon of m dt and the last iterate is the initial-time
coefficient vector v0.

The LU solve runs by panels of about ``PANEL_ROWS`` rows: in each sweep a
panel's off-diagonal part is one matrix-vector product on a column view of
the LU array, which BLAS runs on every thread, and only its diagonal block
goes through a (single-threaded) triangular solve, on a copy made once at
setup.  So a step costs about as much as 2 + n_u products.  Setup holds F
and the diagonal blocks, N^2 (1 + 1 / panels) doubles, on top of the model
(T_A, B-hat and K B-hat, (1 + 2 n_u) N^2); what else it builds, it builds
by ``kernels.row_blocks``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels, penalty as penalty_mod
from .errors import DivergenceError, StepSizeError, count, positive
from .generator import GeneratorModel
from .npzio import load_arrays, require_array, require_meta, save_arrays, write_csv
from .penalty import ControlPenalty

# rows per panel of the blocked LU solve; N is split into equal panels of
# at most this height, so N = 900 solves as two panels of 450 rows
PANEL_ROWS = 512


@dataclass(frozen=True)
class HjbConfig:
    """Time-stepping parameters for the final-value problem: step ``dt``
    and the number of backward steps ``horizon_steps``."""

    dt: float
    horizon_steps: int

    def __post_init__(self):
        positive(self.dt, "dt")
        object.__setattr__(self, "horizon_steps", count(self.horizon_steps, "horizon_steps"))


@dataclass
class HjbSolution:
    """Solved value function and the pieces needed to evaluate feedback.

    ``v0`` are the value coefficients at initial time; ``bv0[j] = B-hat_j v0``
    gives the policy's dual variables via kernel evaluation.
    """

    model: GeneratorModel
    config: HjbConfig
    v0: np.ndarray
    bv0: np.ndarray


def _gram_product(model: GeneratorModel, c) -> np.ndarray:
    """K c from row blocks of the Gram matrix, one block alive at a time."""
    k, X = model.kernel, model.X
    return np.concatenate([kernels.cross_kernel_matrix(k, X[b], X) @ c
                           for b in kernels.row_blocks(model.n_points)])


def _step_factor(model: GeneratorModel, dt: float):
    """LU factors of F = K + N gamma I - dt T_A.

    F is built in a fresh Gram matrix, and -dt T_A is added by row blocks
    (the same bits as adding K to -dt T_A).  The array is C-ordered, so
    LAPACK factors its transpose F^T in place.  Raises StepSizeError when a
    pivot is numerically zero or not finite (a non-finite F leaves a NaN pivot).
    """
    N = model.n_points
    F = model.K
    for b in kernels.row_blocks(N):
        F[b] += np.multiply(model.A_target[b], -dt)
    F[np.diag_indices(N)] += N * model.gamma
    with warnings.catch_warnings():
        # an exactly singular factor is detected below and reported as
        # StepSizeError, so scipy's advisory warning is redundant here
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu_piv = scipy.linalg.lu_factor(F.T, overwrite_a=True, check_finite=False)
    udiag = np.abs(np.diag(lu_piv[0]))
    if not udiag.min() > 1e-14 * max(udiag.max(), 1.0):
        raise StepSizeError(
            f"K_gamma - dt T_A is numerically singular for dt={dt}; reduce the step"
        )
    return lu_piv


def _panels(N: int) -> list:
    """Row bounds (start, stop) of the equal panels of at most PANEL_ROWS."""
    n = -(-N // PANEL_ROWS)
    edges = [N * k // n for k in range(n + 1)]
    return list(zip(edges, edges[1:]))


def _panel_solver(lu_piv):
    """Solver of F x = r from the LU factors of G = F^T, P G = L U.

    F = U^T L^T P, so x = P^T L^-T U^-T r: a forward sweep with U^T, a
    backward sweep with the unit triangle L^T, then the row interchanges
    as one gather.  Each sweep goes panel by panel: the rows already solved
    enter through one product with a column view of ``lu``, and the
    diagonal block through ``dtrsv`` on a Fortran-ordered copy (the block
    itself when one panel spans ``lu``).
    """
    lu, piv = lu_piv
    N = lu.shape[0]
    blocks = [(s, e, np.asfortranarray(lu[s:e, s:e])) for s, e in _panels(N)]
    # P^T applies LAPACK's interchanges last to first
    perm = np.arange(N)
    for i in range(N - 1, -1, -1):
        perm[[i, piv[i]]] = perm[[piv[i], i]]
    trsv = scipy.linalg.blas.dtrsv

    def solve(r):
        y = np.array(r, dtype=float)
        for s, e, D in blocks:
            if s:
                y[s:e] -= lu[:s, s:e].T @ y[:s]
            y[s:e] = trsv(D, y[s:e], trans=1)
        for s, e, D in reversed(blocks):
            if e < N:
                y[s:e] -= lu[e:, s:e].T @ y[e:]
            y[s:e] = trsv(D, y[s:e], lower=1, trans=1, diag=1)
        return y[perm]

    return solve


def solve_fvp(model: GeneratorModel, pen: ControlPenalty | None,
              config: HjbConfig) -> HjbSolution:
    """Integrate the HJB final-value problem backward over the horizon.

    ``pen`` None drops the control term and solves the uncontrolled
    (linear) cost accumulation problem.
    """
    if pen is not None and pen.n_u != model.n_u:
        raise ValueError(f"penalty has {pen.n_u} channels, model has {model.n_u}")
    dt = config.dt
    solve_step = _panel_solver(_step_factor(model, dt))

    # F c = dt q(X) gives c = dt (I - dt A-hat)^{-1} K_gamma^{-1} q(X).  One
    # step of iterative refinement checks the solve: its correction estimates
    # the error of c and must stay within 1e-6 of c (1e-12 to 1.5e-9 on the
    # benchmarks), which an F too ill-conditioned to solve with fails
    dq = dt * model.q
    c = solve_step(dq)
    kc = _gram_product(model, c)
    kc += model.n_points * model.gamma * c
    fix = solve_step(dq - (kc - dt * (model.A_target @ c)))
    c += fix
    if not np.linalg.norm(fix, np.inf) <= 1e-6 * np.linalg.norm(c, np.inf):
        raise StepSizeError(
            f"K_gamma - dt T_A is too ill-conditioned to solve with for dt={dt}; "
            "reduce the step"
        )

    w = np.zeros(model.n_points)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(config.horizon_steps):
            rhs = model.A_target @ w
            if pen is not None:
                # lambda at the data points, one column per channel
                Lam = np.stack([model.KB_hat[j] @ w for j in range(model.n_u)], axis=1)
                rhs += penalty_mod.dual_value(pen, Lam)
            rhs *= dt
            w = w + c + solve_step(rhs)
            if not np.all(np.isfinite(w)):
                raise DivergenceError(f"HJB iterate diverged at step {m}", step=m)

    bv0 = np.stack([model.B_hat[j] @ w for j in range(model.n_u)], axis=0)
    return HjbSolution(model=model, config=config, v0=w, bv0=bv0)


def value_at(sol: HjbSolution, x) -> float:
    """Value function estimate at a single state."""
    kv = kernels.cross_kernel_vector(sol.model.kernel, sol.model.X, x)
    return float(sol.v0 @ kv)


def value_on(sol: HjbSolution, X) -> np.ndarray:
    """Value function estimate on a batch of states (M, n_x) -> (M,)."""
    Kc = kernels.cross_kernel_matrix(sol.model.kernel, sol.model.X, X)
    return Kc.T @ sol.v0


def _lambda_at(sol: HjbSolution, x) -> np.ndarray:
    kv = kernels.cross_kernel_vector(sol.model.kernel, sol.model.X, x)
    return sol.bv0 @ kv


def policy_at(sol: HjbSolution, pen: ControlPenalty, x) -> np.ndarray:
    """Feedback input at a state: the box-penalty minimizer for lambda(x)."""
    return penalty_mod.u_star(pen, _lambda_at(sol, x))


def policy_on(sol: HjbSolution, pen: ControlPenalty, X) -> np.ndarray:
    """Feedback inputs on a batch of states (M, n_x) -> (M, n_u)."""
    Kc = kernels.cross_kernel_matrix(sol.model.kernel, sol.model.X, X)
    return penalty_mod.u_star(pen, (sol.bv0 @ Kc).T)


def smoothed_policy_at(sol: HjbSolution, pen: ControlPenalty, x) -> np.ndarray:
    """Arctan-mollified feedback, (2 umax / pi) arctan(u(x)) per channel.

    Keeps the sign of the raw policy and smooths its bang-bang switching
    under zero-order hold, but not its saturation level: the largest output
    is (2 umax / pi) arctan(umax), below umax (0.94 for 1.5 on the
    pendulum, 6.37 for 7 on the cartpole), and the slope at 0 is
    2 umax / pi.  ``umax`` is the penalty's upper box bound.
    """
    return (2.0 * pen.u_max / np.pi) * np.arctan(policy_at(sol, pen, x))


def write_value_policy_csv(path, sol: HjbSolution, pen: ControlPenalty, states,
                           config_hash: str | None = None) -> None:
    """Tabulate value and feedback on given states as CSV.

    Columns: state coordinates, value, one input per channel.
    """
    states = np.asarray(states, dtype=float)
    V = value_on(sol, states)
    U = policy_on(sol, pen, states)
    cols = [f"x_{i}" for i in range(1, states.shape[1] + 1)] + ["v"]
    cols += [f"u_{j}" for j in range(1, U.shape[1] + 1)]
    write_csv(path, cols, np.column_stack([states, V, U]), config_hash)


def save_solution(path, sol: HjbSolution, config_hash: str | None = None) -> None:
    """Serialize the solved coefficients to a byte-stable .npz archive."""
    meta = {
        "kind": "hjb-solution",
        "dt": sol.config.dt,
        "horizon_steps": sol.config.horizon_steps,
        "config_hash": config_hash,
    }
    save_arrays(path, {"v0": sol.v0, "bv0": sol.bv0}, meta=meta)


def load_solution(path, model: GeneratorModel):
    """Load a solution archive and bind it to its fitted model.

    Returns (solution, meta); the caller is responsible for checking that
    the model and solution belong together (config hashes match).  An
    archive without one of the solution's arrays or metadata entries, or
    with an array whose shape does not fit the model, raises ValueError
    naming it.
    """
    arrays, meta = load_arrays(path)
    if meta is None or meta.get("kind") != "hjb-solution":
        raise ValueError(f"{path} is not an HJB solution archive")
    dt, horizon_steps = require_meta(meta, ("dt", "horizon_steps"), path)
    config = HjbConfig(dt=dt, horizon_steps=horizon_steps)
    N = model.n_points
    sol = HjbSolution(
        model=model, config=config, v0=require_array(arrays, "v0", (N,), path),
        bv0=require_array(arrays, "bv0", (model.n_u, N), path),
    )
    return sol, meta
