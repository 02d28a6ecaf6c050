"""Control-affine systems, state grids, drift datasets, and simulation.

A system is dx = (f(x) + G(x) u) dt + sqrt(2 eps) dW on R^{n_x} with inputs
constrained to a box.  Drift datasets pair sample states with the drift under
the zero input and under each unit input channel; those channel differences
recover G(x) column by column, which is all the generator fit needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, DivergenceError, NumericalDomainError, count,
                     exact_int)
from .npzio import write_csv
from .penalty import penalty_value

# a rollout state whose Euclidean norm exceeds this has diverged
BLOWUP_NORM = 1e6


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics dx/dt = f(x) + G(x) u plus isotropic noise of strength epsilon.

    ``drift`` maps one state, an array of shape (n_x,), to f(x);
    ``input_map`` maps it to the (n_x, n_u) matrix G(x).  The benchmark
    plants compute on the state's entries as Python floats, since rollouts
    call them once per step (see ``systems``); plants that take a batch of
    states are ROADMAP item 4.  ``epsilon`` is the diffusion coefficient in
    front of sqrt(2) dW, not a variance.
    """

    name: str
    n_x: int
    n_u: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    u_min: np.ndarray
    u_max: np.ndarray
    epsilon: float

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.u_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.u_max, dtype=float))
        if lo.shape != (self.n_u,) or hi.shape != (self.n_u,):
            raise ValueError(f"control box must have shape ({self.n_u},)")
        if np.any(lo > hi):
            raise ValueError("control box is empty (u_min > u_max)")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        object.__setattr__(self, "u_min", lo)
        object.__setattr__(self, "u_max", hi)


def _state(system: ControlAffineSystem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (system.n_x,):
        raise ValueError(f"state must have shape ({system.n_x},), got {x.shape}")
    return x


def drift_under_input(system: ControlAffineSystem, x, u) -> np.ndarray:
    """f(x) + G(x) u for a fixed input vector u."""
    x = _state(system, x)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (system.n_u,):
        raise ValueError(f"input must have shape ({system.n_u},), got {u.shape}")
    out = system.drift(x) + system.input_map(x) @ u
    if not np.all(np.isfinite(out)):
        raise NumericalDomainError(f"non-finite drift at x={x!r}", where=x)
    return out


@dataclass(frozen=True)
class StateGridSpec:
    """Tensor-product grid in intrinsic coordinates, with optional angles.

    ``bounds`` and ``counts`` describe a regular grid in the intrinsic
    coordinates.  Dimensions listed in ``angle_dims`` are angles theta that
    embed into the state as the pair (cos theta, sin theta), expanding in
    place; all other dimensions pass through unchanged.
    """

    bounds: tuple
    counts: tuple
    angle_dims: tuple = ()

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        counts = tuple(count(c, "grid counts") for c in self.counts)
        if len(bounds) != len(counts):
            raise ValueError("bounds and counts must have equal length")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"bad bound ({lo}, {hi})")
        angle_dims = tuple(sorted(exact_int(d, "angle_dims") for d in self.angle_dims))
        if any(d < 0 or d >= len(bounds) for d in angle_dims):
            raise ValueError("angle_dims out of range")
        if len(set(angle_dims)) != len(angle_dims):
            raise ValueError("angle_dims must be distinct")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "angle_dims", angle_dims)

    @property
    def n_intrinsic(self) -> int:
        return len(self.counts)

    @property
    def n_x(self) -> int:
        return len(self.counts) + len(self.angle_dims)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.counts))

    def grid_points(self) -> np.ndarray:
        """All grid nodes as an (N, n_intrinsic) array, first axis slowest."""
        axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.bounds, self.counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def embed(self, Q) -> np.ndarray:
        """Map intrinsic coordinates to states: (M, n_intrinsic) -> (M, n_x),
        or one point (n_intrinsic,) -> (n_x,)."""
        Q = np.asarray(Q, dtype=float)
        if Q.ndim not in (1, 2) or Q.shape[-1] != self.n_intrinsic:
            raise ValueError(f"expected (M, {self.n_intrinsic}) or ({self.n_intrinsic},) "
                             f"coordinates, got {Q.shape}")
        parts, start = [], 0
        for d in self.angle_dims:
            theta = Q[..., d:d + 1]
            parts += [Q[..., start:d], np.cos(theta), np.sin(theta)]
            start = d + 1
        parts.append(Q[..., start:])
        return np.concatenate(parts, axis=-1)

    def embed_point(self, q) -> np.ndarray:
        """``embed`` for one point: (n_intrinsic,) -> (n_x,).

        Rollouts call this once per step, so it works on Python floats with
        ``math.cos`` / ``math.sin``, bitwise equal to ``embed``; an infinite
        angle raises ValueError where ``embed`` gives NaN.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n_intrinsic,):
            raise ValueError(f"expected ({self.n_intrinsic},) coordinates, got {q.shape}")
        q = q.tolist()
        out, start = [], 0
        for d in self.angle_dims:
            out += q[start:d]
            out += (math.cos(q[d]), math.sin(q[d]))
            start = d + 1
        out += q[start:]
        return np.array(out)

    def states(self) -> np.ndarray:
        return self.embed(self.grid_points())

    def sample_states(self, n: int, seed: int = 0) -> np.ndarray:
        """n embedded states from a Latin hypercube draw over the box.

        A stratified alternative to the full tensor grid when the latter
        would be too large; each intrinsic axis is split into n equal strata
        with one point per stratum (McKay, Beckman & Conover, Technometrics
        1979).  The draw is bit for bit that of scipy's
        ``scipy.stats.qmc.LatinHypercube(d=n_intrinsic, seed=seed).random(n)``
        (scramble on, strength 1): uniform jitter, then each axis's strata
        shuffled in turn by the same generator.  It is written out on numpy
        because importing ``scipy.stats`` would double the package's import
        time.
        """
        n = count(n, "n")
        d = self.n_intrinsic
        rng = np.random.default_rng(seed)
        jitter = rng.uniform(size=(n, d))
        strata = np.tile(np.arange(1, n + 1), (d, 1))
        for axis in strata:
            rng.shuffle(axis)
        unit = (strata.T - jitter) / n
        lo = np.array([b[0] for b in self.bounds], dtype=float)
        hi = np.array([b[1] for b in self.bounds], dtype=float)
        return self.embed(lo + unit * (hi - lo))


@dataclass(frozen=True)
class GeneratorDataset:
    """Sample states with drift labels per input channel and stage costs.

    ``drift_labels[0]`` holds f(x) (zero input); ``drift_labels[j]`` for
    j >= 1 holds the drift under the unit input e_j.
    """

    X: np.ndarray
    drift_labels: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        L = np.asarray(self.drift_labels, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be (N, n_x), got {X.shape}")
        if L.ndim != 3 or L.shape[0] < 1 or L.shape[1:] != X.shape:
            raise ValueError(f"drift_labels must be (n_u + 1, N, n_x), got {L.shape}")
        if q.shape != (X.shape[0],):
            raise ValueError(f"q must be (N,), got {q.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "drift_labels", L)
        object.__setattr__(self, "q", q)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def n_x(self) -> int:
        return self.X.shape[1]

    @property
    def n_u(self) -> int:
        return self.drift_labels.shape[0] - 1


def generate_dataset(
    system: ControlAffineSystem,
    grid: StateGridSpec,
    stage_cost: Callable[[np.ndarray], float],
) -> GeneratorDataset:
    """Sample drift labels and stage costs on the grid."""
    if grid.n_x != system.n_x:
        raise ValueError(
            f"grid embeds into dimension {grid.n_x} but system has n_x={system.n_x}"
        )
    return dataset_from_states(system, grid.states(), stage_cost)


def dataset_from_states(
    system: ControlAffineSystem,
    states,
    stage_cost: Callable[[np.ndarray], float],
) -> GeneratorDataset:
    """Like generate_dataset but on an arbitrary (N, n_x) set of states.

    Useful for non-tensor designs such as low-discrepancy samples, where a
    full grid at the same resolution would be too large.
    """
    X = np.ascontiguousarray(np.asarray(states, dtype=float))
    if X.ndim != 2 or X.shape[1] != system.n_x:
        raise ValueError(f"states must have shape (N, {system.n_x})")
    N = X.shape[0]
    channels = [np.zeros(system.n_u)]
    channels += [np.eye(system.n_u)[j] for j in range(system.n_u)]
    drift, input_map = system.drift, system.input_map

    labels = np.empty((system.n_u + 1, N, system.n_x))
    for c, u in enumerate(channels):
        for i, x in enumerate(X):
            # drift_under_input's arithmetic; its per-point checks are the
            # one finiteness scan below
            labels[c, i] = drift(x) + input_map(x) @ u
    bad = ~np.isfinite(labels).all(axis=2)
    if bad.any():
        # the first bad point in channel order, then point order
        i = int(np.argwhere(bad)[0][1])
        raise NumericalDomainError(f"non-finite drift label at grid point {i}", where=X[i])

    q = np.array([float(stage_cost(X[i])) for i in range(N)])
    if not np.all(np.isfinite(q)):
        bad = int(np.flatnonzero(~np.isfinite(q))[0])
        raise NumericalDomainError(f"non-finite stage cost at grid point {bad}", where=X[bad])
    return GeneratorDataset(X=X, drift_labels=labels, q=q)


def simulate_closed_loop(
    system: ControlAffineSystem,
    policy: Callable[[np.ndarray], np.ndarray],
    x0,
    dt: float,
    steps: int,
    seed: int = 0,
    noise: bool = True,
    control_interval: int = 1,
):
    """Euler-Maruyama rollout under a state feedback policy.

    The policy is evaluated every ``control_interval`` steps and held
    constant in between (zero-order hold); inputs are clipped to the
    system's box before use and recorded post-clipping.  Returns
    (states, inputs) of shapes (steps + 1, n_x) and (steps, n_u).  A state
    that is not finite or whose norm exceeds ``BLOWUP_NORM`` raises
    DivergenceError with the step that produced it; a start ``x0`` that is
    not finite is a ValueError.
    """
    x = _state(system, x0)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    steps = exact_int(steps, "steps")
    control_interval = exact_int(control_interval, "control_interval")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if control_interval < 1:
        raise ValueError("control_interval must be >= 1")
    rng = np.random.default_rng(seed)
    noise_scale = np.sqrt(2.0 * system.epsilon * dt)
    noisy = noise and system.epsilon > 0
    drift, input_map, blowup_norm = system.drift, system.input_map, BLOWUP_NORM

    states = np.empty((steps + 1, system.n_x))
    inputs = np.empty((steps, system.n_u))
    states[0] = x
    u = np.zeros(system.n_u)
    for k in range(steps):
        if k % control_interval == 0:
            u = np.atleast_1d(np.asarray(policy(x), dtype=float))
            if u.shape != (system.n_u,):
                raise ValueError(f"policy returned shape {u.shape}, expected ({system.n_u},)")
            u = np.clip(u, system.u_min, system.u_max)
        inputs[k] = u
        x = x + dt * (drift(x) + input_map(x) @ u)
        if noisy:
            x = x + noise_scale * rng.standard_normal(system.n_x)
        # np.linalg.norm's own formula; a NaN or inf norm fails the test too
        if not math.sqrt(x @ x) <= blowup_norm:
            raise DivergenceError(f"trajectory blew up at step {k}", step=k)
        states[k + 1] = x
    return states, inputs


def accumulated_cost(states, inputs, stage_cost, pen, dt: float) -> float:
    """Left-endpoint Riemann sum of q(x) + r(u) along a rollout.

    ``states`` and ``inputs`` are (steps + 1, n_x) and (steps, n_u), as
    :func:`simulate_closed_loop` returns them.  ``pen`` may be None for a
    pure state cost.
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise ValueError(f"inputs must be (steps, n_u), got shape {inputs.shape}")
    if states.shape[0] != inputs.shape[0] + 1:
        raise ValueError("need one more state than inputs")
    r = (penalty_value(pen, inputs).tolist() if pen is not None
         else [0.0] * inputs.shape[0])
    # added in step order, q(x_k) then r(u_k), as a step-by-step sum would
    total = 0.0
    for x, r_k in zip(states, r):
        total += float(stage_cost(x))
        total += r_k
    return total * dt


def dataset_header(n_x: int, n_u: int) -> list:
    cols = [f"x_{i}" for i in range(1, n_x + 1)]
    for j in range(n_u + 1):
        cols += [f"d{j}_{i}" for i in range(1, n_x + 1)]
    cols.append("q")
    return cols


def write_dataset(path, ds: GeneratorDataset, config_hash: str | None = None) -> None:
    """Write a dataset as CSV: states, per-channel drift labels, stage cost."""
    rows = np.hstack(
        [ds.X] + [ds.drift_labels[c] for c in range(ds.n_u + 1)] + [ds.q[:, None]]
    )
    write_csv(path, dataset_header(ds.n_x, ds.n_u), rows, config_hash)


def read_dataset(path):
    """Read a dataset CSV written by :func:`write_dataset`.

    Returns (dataset, config_hash) where the hash is None if absent.
    """
    config_hash = None
    with open(path, newline="") as fh:
        lines = []
        for raw in fh:
            if raw.startswith("#"):
                stripped = raw[1:].strip()
                if stripped.startswith("config_hash="):
                    config_hash = stripped.split("=", 1)[1]
                continue
            if raw.strip():
                lines.append(raw)
    if not lines:
        raise ConfigError(f"dataset file {path} has no content")
    header = [c.strip() for c in lines[0].split(",")]
    n_x = sum(1 for c in header if c.startswith("x_"))
    if n_x == 0 or header[-1] != "q":
        raise ConfigError(f"unrecognized dataset header in {path}")
    n_groups, rem = divmod(len(header) - n_x - 1, n_x)
    if rem != 0 or n_groups < 1:
        raise ConfigError(f"dataset header in {path} has inconsistent column counts")
    expected = dataset_header(n_x, n_groups - 1)
    if header != expected:
        raise ConfigError(f"dataset header in {path} does not match expected layout")

    try:
        data = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
        )
    except ValueError as exc:
        raise ConfigError(f"malformed numeric row in {path}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ConfigError(f"dataset rows in {path} do not match the header")
    X = data[:, :n_x]
    labels = np.stack(
        [data[:, n_x + c * n_x: n_x + (c + 1) * n_x] for c in range(n_groups)], axis=0
    )
    q = data[:, -1]
    return GeneratorDataset(X=X, drift_labels=labels, q=q), config_hash
