"""Finite-dimensional HJB final-value problem in the learned RKHS basis.

With the fitted operator blocks A-hat, B-hat_j and the cost coefficients q,
the value function's coefficient vector v(t) solves the backward ODE

    -dv/dt = A-hat v + q + K_gamma^{-1} D_r(lambda(v)),

integrated from the zero final condition over the horizon.  Here
lambda_j(v) at the data points is K B-hat_j v, and D_r is the box-penalty
dual from :mod:`genhjb.penalty` applied row-wise.  Each step is
implicit-explicit (IMEX; Ascher, Ruuth & Spiteri, 1997): the linear part
is taken implicitly and the control nonlinearity explicitly,

    (I - dt A-hat) w_{m+1} = w_m + dt (q + K_gamma^{-1} D_r(lambda(w_m))).

The step is applied in operator form.  Setup computes, once,

    M = (I - dt A-hat)^{-1},   c = dt M q,   P = dt M K_gamma^{-1},

from one LU factorization, its in-place inverse and one Cholesky solve
with N right-hand sides (about 4 N^3 flops), so that each step

    w_{m+1} = M w_m + c + P D_r(lambda(w_m))

is 2 + 2 n_u matrix-vector products.  Time is reversed, so step m holds
the value of a horizon of m dt and the last iterate is the initial-time
coefficient vector v0.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels, penalty as penalty_mod
from .errors import DivergenceError, StepSizeError, exact_int
from .generator import GeneratorModel
from .npzio import load_arrays, save_arrays, write_csv
from .penalty import ControlPenalty


@dataclass(frozen=True)
class HjbConfig:
    """Time-stepping parameters for the final-value problem.

    ``record_trajectory`` stores every iterate, (horizon_steps + 1, N)
    floats, so leave it off for large runs.
    """

    dt: float
    horizon_steps: int
    record_trajectory: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        steps = exact_int(self.horizon_steps, "horizon_steps")
        if steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        object.__setattr__(self, "horizon_steps", steps)


@dataclass
class HjbSolution:
    """Solved value function and the pieces needed to evaluate feedback.

    ``v0`` are the value coefficients at initial time; ``bv0[j] = B-hat_j v0``
    gives the policy's dual variables via kernel evaluation.  ``trajectory``
    (optional) stacks the coefficient iterates from final to initial time.
    """

    model: GeneratorModel
    config: HjbConfig
    v0: np.ndarray
    bv0: np.ndarray
    trajectory: np.ndarray | None = None


def _step_inverse(A_hat: np.ndarray, dt: float) -> np.ndarray:
    """(I - dt A_hat)^{-1}, built in place in one N x N Fortran array.

    Raises StepSizeError when a pivot of the LU factorization is
    numerically zero.
    """
    N = A_hat.shape[0]
    step = (-dt * A_hat.T).T  # Fortran order, so LAPACK works in place
    step[np.diag_indices(N)] += 1.0
    with warnings.catch_warnings():
        # an exactly singular factor is detected below and reported as
        # StepSizeError, so scipy's advisory warning is redundant here
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(step, overwrite_a=True)
    udiag = np.abs(np.diag(lu))
    if udiag.min() <= 1e-14 * max(udiag.max(), 1.0):
        raise StepSizeError(
            f"I - dt A is numerically singular for dt={dt}; reduce the step"
        )
    lwork, _ = scipy.linalg.lapack.dgetri_lwork(N)
    M, info = scipy.linalg.lapack.dgetri(lu, piv, lwork=int(lwork), overwrite_lu=1)
    if info != 0:
        raise StepSizeError(f"I - dt A is singular for dt={dt}; reduce the step")
    return M


def solve_fvp(model: GeneratorModel, pen: ControlPenalty | None,
              config: HjbConfig) -> HjbSolution:
    """Integrate the HJB final-value problem backward over the horizon.

    ``pen`` None drops the control term and solves the uncontrolled
    (linear) cost accumulation problem.
    """
    if pen is not None and pen.n_u != model.n_u:
        raise ValueError(f"penalty has {pen.n_u} channels, model has {model.n_u}")
    dt = config.dt
    M = _step_inverse(model.A_hat, dt)
    c = dt * (M @ model.q_coeff)
    # an O(N^2) check of the explicit inverse: (I - dt A) c must reproduce
    # dt q to 1e-6 of the size of its terms (about 1e-15 on the benchmarks)
    Ac = dt * (model.A_hat @ c)
    dq = dt * model.q_coeff
    resid = np.linalg.norm(c - Ac - dq, np.inf)
    scale = sum(np.linalg.norm(v, np.inf) for v in (c, Ac, dq))
    if not resid <= 1e-6 * scale:
        raise StepSizeError(
            f"I - dt A is too ill-conditioned to invert for dt={dt}; reduce the step"
        )
    if pen is not None:
        # P^T = dt K_gamma^{-1} M^T because K_gamma is symmetric
        Pt = scipy.linalg.cho_solve(model.kgamma_cho, M.T, check_finite=False)
        Pt *= dt
        P = Pt.T

    # each step builds a fresh array, so the trajectory can keep the iterates
    w = np.zeros(model.n_points)
    traj = [w] if config.record_trajectory else None
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(config.horizon_steps):
            w_next = M @ w
            w_next += c
            if pen is not None:
                # lambda at the data points, one column per channel
                Lam = np.stack([model.K @ (model.B_hat[j] @ w)
                                for j in range(model.n_u)], axis=1)
                w_next += P @ penalty_mod.dual_value(pen, Lam)
            w = w_next
            if not np.all(np.isfinite(w)):
                raise DivergenceError(f"HJB iterate diverged at step {m}", step=m)
            if traj is not None:
                traj.append(w)

    bv0 = np.stack([model.B_hat[j] @ w for j in range(model.n_u)], axis=0)
    return HjbSolution(
        model=model, config=config, v0=w, bv0=bv0,
        trajectory=np.array(traj) if traj is not None else None,
    )


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

    Keeps the sign and saturation level of the raw policy but removes the
    bang-bang switching that chatters under zero-order hold.  ``umax`` is
    the penalty's upper box bound.
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
    arrays = {"v0": sol.v0, "bv0": sol.bv0}
    if sol.trajectory is not None:
        arrays["trajectory"] = sol.trajectory
    save_arrays(path, arrays, meta=meta)


def load_solution(path, model: GeneratorModel):
    """Load a solution archive and bind it to its fitted model.

    Returns (solution, meta); the caller is responsible for checking that
    the model and solution belong together (config hashes match).
    """
    arrays, meta = load_arrays(path)
    if meta is None or meta.get("kind") != "hjb-solution":
        raise ValueError(f"{path} is not an HJB solution archive")
    config = HjbConfig(dt=meta["dt"], horizon_steps=meta["horizon_steps"])
    sol = HjbSolution(
        model=model, config=config, v0=arrays["v0"], bv0=arrays["bv0"],
        trajectory=arrays.get("trajectory"),
    )
    return sol, meta
