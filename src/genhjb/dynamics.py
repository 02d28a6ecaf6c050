"""Control-affine systems, state grids, drift datasets, and simulation.

A system is dx = (f(x) + G(x) u) dt + sqrt(2 eps) dW on R^{n_x} with inputs
constrained to a box.  Drift datasets pair sample states with the drift under
the zero input and under each unit input channel; those channel differences
recover G(x) column by column, which is all the generator fit needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, DivergenceError, NumericalDomainError, check_box, count,
                     exact_int, nonnegative, positive)
from .npzio import write_csv
from .penalty import penalty_value

# a rollout state whose Euclidean norm exceeds this has diverged
BLOWUP_NORM = 1e6


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics dx/dt = f(x) + G(x) u plus isotropic noise of strength epsilon.

    ``drift`` and ``input_map`` take one state as a sequence of n_x Python
    floats and return plain lists: ``drift`` gives f(x) as n_x floats and
    ``input_map`` gives G(x) as n_x rows of n_u floats.  A rollout calls
    both once per simulator step and steps the state on floats (see
    ``simulate_closed_loop``); callers that want arrays wrap the result in
    ``np.asarray``.  Plants that take a batch of states belong to ROADMAP
    item 5's cross-rollout batching.  ``epsilon`` is the diffusion
    coefficient in front of sqrt(2) dW, not a variance.
    """

    name: str
    n_x: int
    n_u: int
    drift: Callable[[Sequence[float]], list]
    input_map: Callable[[Sequence[float]], list]
    u_min: np.ndarray
    u_max: np.ndarray
    epsilon: float

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.u_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.u_max, dtype=float))
        if lo.shape != (self.n_u,) or hi.shape != (self.n_u,):
            raise ValueError(f"control box must have shape ({self.n_u},)")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("control box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("control box is empty (u_min > u_max)")
        object.__setattr__(self, "u_min", lo)
        object.__setattr__(self, "u_max", hi)
        object.__setattr__(self, "epsilon", nonnegative(self.epsilon, "epsilon"))


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
    xs = x.tolist()
    f, G = system.drift(xs), system.input_map(xs)
    _check_plant_output(system, f, G)
    out = np.asarray(f) + np.asarray(G) @ u
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
        counts = tuple(count(c, "grid counts") for c in self.counts)
        lo, hi = check_box([lo for lo, _ in self.bounds], [hi for _, hi in self.bounds],
                           len(counts), "grid lower bounds", "grid upper bounds")
        bounds = tuple(zip(lo.tolist(), hi.tolist()))
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

    def embed_point(self, q) -> list:
        """``embed`` for one point: (n_intrinsic,) -> a list of n_x floats.

        Rollouts call this once per step and hand the result to the stage
        cost and the policy, so it works on Python floats with ``math.cos`` /
        ``math.sin``, bitwise equal to ``embed``, and returns them as a list.
        ``q`` may be an array row of any real dtype, a list or a tuple; a
        float64 row costs one ``tolist()``.  A wrong length or a nested
        input is a ValueError, and so is an infinite angle, where ``embed``
        gives NaN.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n_intrinsic,):
            raise ValueError(f"expected ({self.n_intrinsic},) coordinates, got {q.shape}")
        q = q.tolist()
        # the last angle first, so that the indices of the others still hold
        for d in reversed(self.angle_dims):
            theta = q[d]
            q[d:d + 1] = math.cos(theta), math.sin(theta)
        return q

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
    for i, x in enumerate(X.tolist()):
        # drift_under_input's arithmetic; its finiteness checks are the one
        # scan below
        f, G = drift(x), input_map(x)
        _check_plant_output(system, f, G)
        f, G = np.asarray(f), np.asarray(G)
        for c, u in enumerate(channels):
            labels[c, i] = f + G @ u
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

    The policy gets the state as an array every ``control_interval`` steps
    and its input is held constant in between (zero-order hold); inputs are
    clipped to the system's box before use, on floats as ``np.clip`` would,
    and recorded post-clipping.
    Returns (states, inputs) of shapes (steps + 1, n_x) and (steps, n_u).
    A state that is not finite or whose norm exceeds ``BLOWUP_NORM`` raises
    DivergenceError with the step that produced it; a start ``x0`` that is
    not finite is a ValueError, and so is a plant whose ``drift`` or
    ``input_map`` has the wrong shape at the first step.

    The state is stepped as a list of Python floats: on 2-5 entries numpy's
    per-call overhead costs more than the arithmetic.  Each step is
    x_i + dt (f_i + sum_j G_ij u_j) with the channels summed in order, then
    sqrt(2 eps dt) times one ``standard_normal(n_x)`` draw when noisy.  With
    one input that is bitwise the array formula
    ``x + dt * (f + G @ u) + noise_scale * z``.
    """
    x = _state(system, x0)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x}")
    dt = positive(dt, "dt")
    steps = count(steps, "steps")
    control_interval = count(control_interval, "control_interval")
    rng = np.random.default_rng(seed)
    noise_scale = math.sqrt(2.0 * system.epsilon * dt)
    noisy = noise and system.epsilon > 0
    drift, input_map, blowup_norm = system.drift, system.input_map, BLOWUP_NORM
    n_x, n_u = system.n_x, system.n_u
    channels = range(n_u)
    box = list(zip(system.u_min.tolist(), system.u_max.tolist()))

    x = x.tolist()
    states, inputs = [x], []
    for k in range(steps):
        if k % control_interval == 0:
            out = np.atleast_1d(np.asarray(policy(np.array(x)), dtype=float))
            if out.shape != (n_u,):
                raise ValueError(f"policy returned shape {out.shape}, expected ({n_u},)")
            # np.clip(out, u_min, u_max) on floats, bit for bit: a value equal
            # to a bound becomes the bound, which settles the sign of a zero,
            # and NaN passes through
            u = []
            for v, (lo, hi) in zip(out.tolist(), box):
                v = lo if v <= lo else v
                u.append(hi if v >= hi else v)
        inputs.append(u)
        f, G = drift(x), input_map(x)
        if k == 0:
            _check_plant_output(system, f, G)
        # x_i + dt (f_i + sum_j G_ij u_j), the channels summed in order from
        # 0.0 as a matmul sums them, so that 0 * -1 adds +0.0
        stepped = []
        for x_i, f_i, g in zip(x, f, G):
            gu = 0.0
            for j in channels:
                gu += g[j] * u[j]
            stepped.append(x_i + dt * (f_i + gu))
        if noisy:
            z = rng.standard_normal(n_x).tolist()
            stepped = [x_i + noise_scale * z_i for x_i, z_i in zip(stepped, z)]
        x = stepped
        # a NaN or inf sum fails the test too
        norm2 = 0.0
        for x_i in x:
            norm2 += x_i * x_i
        if not math.sqrt(norm2) <= blowup_norm:
            raise DivergenceError(f"trajectory blew up at step {k}", step=k)
        states.append(x)
    return np.array(states), np.array(inputs)


def _check_plant_output(system: ControlAffineSystem, f, G) -> None:
    """drift must give n_x entries and input_map n_x rows of n_u entries; a
    float where a list belongs, such as a flat input_map row, is refused."""
    n_x, n_u = system.n_x, system.n_u
    try:
        entries, rows = len(f), [len(g) for g in G]
    except TypeError:
        raise ValueError(f"plant {system.name!r}: drift must return {n_x} floats and "
                         f"input_map {n_x} rows of {n_u} floats, got {f!r} and {G!r}") from None
    if entries != n_x:
        raise ValueError(f"plant {system.name!r}: drift returned {entries} entries, "
                         f"expected {n_x}")
    if rows != [n_u] * n_x:
        raise ValueError(f"plant {system.name!r}: input_map returned rows of lengths "
                         f"{rows}, expected {n_x} rows of {n_u}")


def accumulated_cost(states, inputs, stage_cost, pen, dt: float) -> float:
    """Left-endpoint Riemann sum of q(x) + r(u) along a rollout.

    ``states`` and ``inputs`` are (steps + 1, n_x) and (steps, n_u), as
    :func:`simulate_closed_loop` returns them.  ``pen`` may be None for a
    pure state cost.
    """
    dt = positive(dt, "dt")
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

    Returns (dataset, config_hash) where the hash is None if absent.  A
    non-finite entry is a ConfigError naming its data row (1 is the first
    row after the header) and column.
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
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(f"non-finite value {data[row, col]} in {path} at data row "
                          f"{row + 1}, column {header[col]}")
    X = data[:, :n_x]
    labels = np.stack(
        [data[:, n_x + c * n_x: n_x + (c + 1) * n_x] for c in range(n_groups)], axis=0
    )
    q = data[:, -1]
    return GeneratorDataset(X=X, drift_labels=labels, q=q), config_hash
