"""Benchmark systems: linear oscillators, pendulum, cartpole.

Angle-bearing systems are expressed in embedded coordinates where the angle
theta appears as the pair (cos theta, sin theta).  For both mechanical
benchmarks theta = 0 is the upright position, so stabilizing the origin of
the stage cost means swinging up.

Each plant is one closure from a state, n_x Python floats, to the pair
(f, G) of plain lists (the contract of ``ControlAffineSystem``); the stage
costs take one embedded state as any sequence of n_x floats, a list (what
``StateGridSpec.embed_point`` returns) or an array row.  The mechanical
ones compute on Python floats with ``math.sin`` / ``math.cos``: a rollout
calls them once per simulator step, and on a handful of floats numpy's
per-call overhead costs more than the arithmetic.  The IEEE operations and
their order are those of the array formulas, so the results are bitwise
the same.  Plants that step many states at once belong to ROADMAP item 5's
cross-rollout batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .dynamics import ControlAffineSystem, StateGridSpec
from .errors import ConfigError, nonnegative
from .penalty import ControlPenalty, symmetric_box_penalty


def _floats(x):
    """One state as Python floats: an array row goes through ``tolist()``,
    a list or tuple passes as it is."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def _plant(name, n_x, field, u_max, epsilon) -> ControlAffineSystem:
    """A one-input plant with the box |u| <= u_max, u_max a nonnegative number."""
    u_max = nonnegative(u_max, "u_max")
    return ControlAffineSystem(name=name, n_x=n_x, n_u=1, field=field,
                               u_min=np.array([-u_max]), u_max=np.array([u_max]),
                               epsilon=epsilon)


def linear_1d_system(a: float = 1.0, b: float = 1.0, u_max: float = 5.0,
                     epsilon: float = 0.01) -> ControlAffineSystem:
    """Scalar unstable plant dx = (a x + b u) dt + sqrt(2 eps) dW."""
    return _plant("linear-1d", 1, lambda x: ([a * x[0]], [[b]]), u_max, epsilon)


def linear_2d_system(u_max: float = 5.0, epsilon: float = 0.01) -> ControlAffineSystem:
    """Double integrator: position-velocity chain driven through the velocity."""
    return _plant("linear-2d", 2, lambda x: ([x[1], 0.0], [[0.0], [1.0]]), u_max, epsilon)


# Pendulum physical constants.  The effective inertia about the pivot is
# J = I + m lc^2 with lc = l / 2.
_PEND = dict(mass=1.0, gravity=9.81, length=1.0, damping=0.1, inertia=0.0842)


def pendulum_systems(epsilon: float = 0.02, u_max: float = 1.5, mass: float = _PEND["mass"],
                     gravity: float = _PEND["gravity"], length: float = _PEND["length"],
                     damping: float = _PEND["damping"], inertia: float = _PEND["inertia"]
                     ) -> tuple[ControlAffineSystem, ControlAffineSystem]:
    """The torque-driven pendulum as (system, sim_system).

    J omega' = u - damping * omega + m g lc sin(theta), theta = 0 upright.
    ``system`` is in embedded coordinates (cos t, sin t, omega), for
    fitting; ``sim_system`` is the same plant in physical coordinates
    (theta, omega), for rollouts: integrating the embedded state directly
    does not preserve cos^2 + sin^2 = 1, and at high spin rates the drift
    off the circle is large enough to distort both the policy input and
    the measured angle.
    """
    lc = 0.5 * length
    J = inertia + mass * lc**2
    mglc = mass * gravity * lc

    def acceleration(s, w):
        return (mglc * s - damping * w) / J

    G = [[0.0], [0.0], [1.0 / J]]
    sim_G = [[0.0], [1.0 / J]]

    def field(x):
        c, s, w = x
        return [-s * w, c * w, acceleration(s, w)], G

    def sim_field(x):
        t, w = x
        return [w, acceleration(math.sin(t), w)], sim_G

    return (_plant("pendulum", 3, field, u_max, epsilon),
            _plant("pendulum-intrinsic", 2, sim_field, u_max, epsilon))


def pendulum_stage_cost(q_sin: float = 30.0, q_cos: float = 30.0,
                        q_omega: float = 1.0) -> Callable:
    """q(x) = q_sin s^2 + q_cos (c - 1)^2 + q_omega omega^2; zero only upright at rest."""
    def cost(x):
        c, s, w = _floats(x)
        return q_sin * s**2 + q_cos * (c - 1.0) ** 2 + q_omega * w**2
    return cost


def pendulum_default_grid(theta_count: int = 50, omega_count: int = 50) -> StateGridSpec:
    """(theta, omega) on [-0.99 pi, 0.99 pi] x [-10, 10], theta embedded."""
    tmax = 0.99 * np.pi
    return StateGridSpec(
        bounds=((-tmax, tmax), (-10.0, 10.0)),
        counts=(theta_count, omega_count),
        angle_dims=(0,),
    )


# Cartpole constants: cart mass M, pole mass m, pole length l (lc = l / 2),
# cart viscous friction k, rotational damping b, pole inertia I about its
# center of mass.
_CART = dict(cart_mass=0.5, pole_mass=0.5, length=1.0, cart_damping=0.05,
             rot_damping=0.05, gravity=9.81, inertia=0.0513)


def cartpole_systems(epsilon: float = 0.01, u_max: float = 7.0,
                     cart_mass: float = _CART["cart_mass"], pole_mass: float = _CART["pole_mass"],
                     length: float = _CART["length"], cart_damping: float = _CART["cart_damping"],
                     rot_damping: float = _CART["rot_damping"], gravity: float = _CART["gravity"],
                     inertia: float = _CART["inertia"]
                     ) -> tuple[ControlAffineSystem, ControlAffineSystem]:
    """The cart-and-pole as (system, sim_system).

    The coupled accelerations solve

        [M + m      m lc c ] [p'']   [u + m lc s w^2 - k v]
        [m lc c   I + m lc^2] [w''] = [m g lc s - b w      ]

    with theta = 0 the upright pole.  ``system`` is in embedded coordinates
    (p, v, cos t, sin t, omega); ``sim_system`` is the same plant in
    physical coordinates (p, v, theta, omega).
    """
    lc = 0.5 * length
    m11 = cart_mass + pole_mass
    m22 = inertia + pole_mass * lc**2
    mlc = pole_mass * lc
    mglc = pole_mass * gravity * lc

    # Cramer's rule from one m12 and det: the accelerations at zero force,
    # then their change per unit force
    def accelerations(c, s, v, w):
        m12 = mlc * c
        det = m11 * m22 - m12 * m12
        r1 = mlc * s * w * w - cart_damping * v
        r2 = mglc * s - rot_damping * w
        return ((m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det,
                m22 / det, -m12 / det)

    def field(x):
        p, v, c, s, w = x
        acc_p, acc_w, g_p, g_w = accelerations(c, s, v, w)
        return [v, acc_p, -s * w, c * w, acc_w], [[0.0], [g_p], [0.0], [0.0], [g_w]]

    def sim_field(x):
        p, v, t, w = x
        acc_p, acc_w, g_p, g_w = accelerations(math.cos(t), math.sin(t), v, w)
        return [v, acc_p, w, acc_w], [[0.0], [g_p], [0.0], [g_w]]

    return (_plant("cartpole", 5, field, u_max, epsilon),
            _plant("cartpole-intrinsic", 4, sim_field, u_max, epsilon))


def cartpole_stage_cost(q_tip: float = 10.0, q_upright: float = 100.0,
                        q_cart_vel: float = 1.0, q_omega: float = 1.0,
                        length: float = _CART["length"]) -> Callable:
    """Penalizes the pole tip's horizontal excursion, pole tilt, and speeds.

    q(x) = q_tip (p - l s)^2 + q_upright l^2 (c - 1)^2 + q_cart_vel v^2
           + q_omega w^2.
    """
    ql2 = q_upright * length**2

    def cost(x):
        p, v, c, s, w = _floats(x)
        return q_tip * (p - length * s) ** 2 + ql2 * (c - 1.0) ** 2 \
            + q_cart_vel * v**2 + q_omega * w**2
    return cost


def cartpole_default_grid() -> StateGridSpec:
    """(p, v, theta, omega) on [-2.5, 2.5] x [-3, 3] x [-0.99 pi, 0.99 pi] x
    [-8, 8] with 9 x 7 x 23 x 23 nodes, theta embedded."""
    tmax = 0.99 * np.pi
    return StateGridSpec(
        bounds=((-2.5, 2.5), (-3.0, 3.0), (-tmax, tmax), (-8.0, 8.0)),
        counts=(9, 7, 23, 23),
        angle_dims=(2,),
    )


def lqr_feedback(A, B, Q, R, u_min, u_max) -> Callable:
    """Continuous-time LQR state feedback u = -R^-1 B' P x, clipped to the
    box [u_min, u_max].

    P solves the algebraic Riccati equation A'P + PA - P B R^-1 B' P + Q = 0.
    The feedback maps one state (n_x,) to its inputs (n_u,), or a batch of
    states (M, n_x) to (M, n_u), row by row.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    K = np.linalg.solve(R, B.T @ P)

    def policy(X):
        return np.clip(np.asarray(X, dtype=float) @ -K.T, u_min, u_max)
    return policy


@dataclass(frozen=True)
class Benchmark:
    """A system bundled with its default grid, stage cost, and penalty.

    `sim_system` holds the same dynamics in the coordinates a simulator
    should integrate.  For angle-embedded systems that is the physical
    (theta, omega) form; otherwise it is `system` itself.  Policies and
    stage costs always act on embedded states, so rollouts of `sim_system`
    go through `grid.embed` / `grid.embed_point` first.

    `stage_cost` takes one embedded state as any sequence of n_x floats: the
    list that `grid.embed_point` returns or an array row, with the same
    bits either way.  It returns a float.

    `linear` holds (A, B, Q) for the linear plants, whose stage cost is
    x'Qx; it is None for the others.
    """

    system: ControlAffineSystem
    grid: StateGridSpec
    stage_cost: Callable
    pen: ControlPenalty
    sim_system: ControlAffineSystem
    linear: tuple | None = None

    def reference_policy(self) -> Callable:
        """LQR feedback with R = diag(pen.weights), clipped to the penalty's box.

        It maps one state (n_x,) to (n_u,) or a batch (M, n_x) to (M, n_u),
        so it serves ``evaluation.rmse_to_reference`` as it is."""
        if self.linear is None:
            raise ConfigError(
                f"mode needs a closed-form reference; system {self.system.name!r} has none"
            )
        A, B, Q = self.linear
        return lqr_feedback(A, B, Q, np.diag(self.pen.weights),
                            u_min=self.pen.u_min, u_max=self.pen.u_max)


def _linear_maps(sys_: ControlAffineSystem):
    """(A, B) of a linear plant: A's columns are f at the unit vectors, B is G at 0."""
    A = np.column_stack([sys_.field(e)[0] for e in np.eye(sys_.n_x).tolist()])
    return A, np.asarray(sys_.field([0.0] * sys_.n_x)[1], dtype=float)


def _linear_benchmark(sys_, counts, cost_params, q_default, stage_cost):
    """A linear plant on [-2, 2]^n_x with stage cost q x'x and r(u) = r u^2,
    where r is ``r_weight`` (0.5 by default, which gives u^2 / 2).

    ``stage_cost(q)`` returns the cost function for the weight q.
    """
    q_weight = cost_params.pop("q_weight", q_default)
    r_weight = cost_params.pop("r_weight", 0.5)
    if cost_params:
        raise ConfigError(f"unknown cost parameters: {sorted(cost_params)}")
    grid = StateGridSpec(bounds=((-2.0, 2.0),) * sys_.n_x, counts=counts)
    return Benchmark(sys_, grid, stage_cost(q_weight),
                     symmetric_box_penalty([r_weight], sys_.u_max), sys_,
                     linear=(*_linear_maps(sys_), q_weight * np.eye(sys_.n_x)))


def _linear_1d_benchmark(system_params, cost_params):
    return _linear_benchmark(linear_1d_system(**system_params), (200,), cost_params, 1.5,
                             lambda q: lambda x: q * float(x[0]) ** 2)


def _linear_2d_benchmark(system_params, cost_params):
    return _linear_benchmark(linear_2d_system(**system_params), (30, 30), cost_params, 1.0,
                             lambda q: lambda x: q * float(np.dot(x, x)))


def _pendulum_benchmark(system_params, cost_params):
    sys_, sim = pendulum_systems(**system_params)
    r_weight = cost_params.pop("r_weight", 0.5)
    cost = pendulum_stage_cost(**cost_params)
    return Benchmark(sys_, pendulum_default_grid(), cost,
                     symmetric_box_penalty([r_weight], sys_.u_max), sim)


def _cartpole_benchmark(system_params, cost_params):
    sys_, sim = cartpole_systems(**system_params)
    r_weight = cost_params.pop("r_weight", 0.2)
    # the tip term measures the plant's own pole unless the cost names a length
    cost_params.setdefault("length", system_params.get("length", _CART["length"]))
    cost = cartpole_stage_cost(**cost_params)
    return Benchmark(sys_, cartpole_default_grid(), cost,
                     symmetric_box_penalty([r_weight], sys_.u_max), sim)


_BENCHMARKS = {
    "linear-1d": _linear_1d_benchmark,
    "linear-2d": _linear_2d_benchmark,
    "pendulum": _pendulum_benchmark,
    "cartpole": _cartpole_benchmark,
}

BENCHMARK_NAMES = tuple(sorted(_BENCHMARKS))


def make_benchmark(name: str, epsilon: float | None = None, u_max: float | None = None,
                   system_params: dict | None = None,
                   cost_params: dict | None = None) -> Benchmark:
    """Instantiate a named benchmark with optional parameter overrides.

    Parameters left as None take the system constructor's defaults.
    """
    if name not in _BENCHMARKS:
        raise ConfigError(f"unknown system {name!r}; expected one of {BENCHMARK_NAMES}")
    params = dict(system_params or {})
    for key, val in (("epsilon", epsilon), ("u_max", u_max)):
        if key in params:
            raise ConfigError(f"bad parameters for system {name!r}: {key} is not a "
                              f"system parameter")
        if val is not None:
            params[key] = val
    try:
        return _BENCHMARKS[name](params, dict(cost_params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for system {name!r}: {exc}") from None
