"""End-to-end pipelines, accuracy metrics, and rollout cost benchmarks.

A pipeline is dataset -> generator fit -> HJB solve.  Sweeps rerun the
pipeline while varying one knob (kernel lengthscale or dataset size) and
score each run against a reference feedback; cost benchmarks roll the
synthesized policy out under zero-order hold and accumulate running cost.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dynamics import (ControlAffineSystem, StateGridSpec, accumulated_cost,
                       generate_dataset, simulate_closed_loop)
from .errors import (ConditioningError, ConfigError, DivergenceError,
                     NumericalDomainError, StepSizeError, exact_int)
from .generator import fit
from .hjb import HjbConfig, HjbSolution, policy_at, solve_fvp
from .kernels import KernelSpec
from .npzio import write_csv
from .penalty import ControlPenalty

SWEEP_VARIABLES = ("lengthscale", "dataset_size")


@dataclass(frozen=True)
class PipelineSpec:
    """Everything needed to go from a system to a solved value function."""

    system: ControlAffineSystem
    grid: StateGridSpec
    stage_cost: Callable
    pen: ControlPenalty
    kernel: KernelSpec
    gamma: float
    dt: float
    horizon_steps: int
    label_mode: str = "analytic"
    fd_step: float = 1e-4


def run_pipeline(spec: PipelineSpec) -> HjbSolution:
    """Generate data, fit the generator, solve the final-value problem."""
    ds = generate_dataset(spec.system, spec.grid, spec.stage_cost,
                          label_mode=spec.label_mode, fd_step=spec.fd_step)
    model = fit(ds, spec.kernel, spec.gamma, spec.system.epsilon)
    config = HjbConfig(dt=spec.dt, horizon_steps=spec.horizon_steps)
    return solve_fvp(model, spec.pen, config)


def rmse_to_reference(policy: Callable, reference: Callable, lo, hi,
                      n_points: int = 1000, seed: int = 0) -> float:
    """Root mean square feedback error over a uniform sample of a box."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("bad sampling box")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, size=(n_points, lo.size))
    err2 = 0.0
    for x in X:
        d = np.atleast_1d(np.asarray(policy(x), dtype=float)) \
            - np.atleast_1d(np.asarray(reference(x), dtype=float))
        err2 += float(d @ d)
    return float(np.sqrt(err2 / n_points))


@dataclass(frozen=True)
class SweepSpec:
    """Rerun a pipeline while varying one knob, scoring against a reference.

    ``variable`` is "lengthscale" (kernel sigma) or "dataset_size" (total
    grid points, an integer, spread evenly across grid dimensions).  The
    reference is a feedback policy; scoring uses :func:`rmse_to_reference`
    on the box (region_lo, region_hi).
    """

    base: PipelineSpec
    variable: str
    values: tuple
    reference: Callable
    region_lo: np.ndarray
    region_hi: np.ndarray
    n_points: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.variable!r}; expected one of {SWEEP_VARIABLES}"
            )
        if len(self.values) == 0:
            raise ConfigError("sweep needs at least one value")
        if self.variable == "dataset_size":
            object.__setattr__(self, "values", tuple(
                exact_int(v, "dataset_size values") for v in self.values))


def _pipeline_for_value(spec: SweepSpec, value) -> PipelineSpec:
    base = spec.base
    if spec.variable == "lengthscale":
        kernel = replace(base.kernel, sigma=float(value))
        return replace(base, kernel=kernel)
    d = base.grid.n_intrinsic
    per_axis = max(1, round(value ** (1.0 / d)))
    grid = StateGridSpec(bounds=base.grid.bounds, counts=(per_axis,) * d,
                         angle_dims=base.grid.angle_dims)
    return replace(base, grid=grid)


def _sweep_one(spec: SweepSpec, value) -> dict:
    pipeline = _pipeline_for_value(spec, value)
    row = {"value": float(value), "n_points": pipeline.grid.n_points,
           "rmse": float("nan"), "error": None}
    try:
        sol = run_pipeline(pipeline)
        row["rmse"] = rmse_to_reference(
            lambda x: policy_at(sol, pipeline.pen, x), spec.reference,
            spec.region_lo, spec.region_hi, spec.n_points, spec.seed,
        )
    except (ConditioningError, DivergenceError, StepSizeError,
            NumericalDomainError, np.linalg.LinAlgError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list:
    """Run the sweep, one pipeline per value; failures yield NaN rows.

    Returns a list of dicts with keys value, n_points, rmse, error, in the
    order of ``spec.values``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return [_sweep_one(spec, v) for v in spec.values]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda v: _sweep_one(spec, v), spec.values))


def rollout_steps(duration: float, control_hz: float, sim_dt: float) -> tuple:
    """Simulator steps in ``duration`` and the policy's hold interval in steps."""
    if not all(0.0 < v < np.inf for v in (duration, control_hz, sim_dt)):
        raise ConfigError("duration, control_hz and sim_dt must be positive, got "
                          f"{duration}, {control_hz} and {sim_dt}")
    return int(round(duration / sim_dt)), max(1, int(round(1.0 / (control_hz * sim_dt))))


@dataclass(frozen=True)
class CostBenchSpec:
    """Rollout cost benchmark under zero-order-hold feedback.

    Initial states are drawn uniformly from the box (init_lo, init_hi) in
    the state space of ``system``, which is the system the simulator
    integrates.  For benchmarks trained on angle-embedded states pass the
    physical-coordinate twin here (``Benchmark.sim_system``) and compose the
    embedding into ``policy`` and ``stage_cost`` yourself.  The policy is
    queried at ``control_hz`` and held between queries while the dynamics
    substep at ``sim_dt``.
    """

    system: ControlAffineSystem
    stage_cost: Callable
    pen: ControlPenalty
    init_lo: tuple
    init_hi: tuple
    duration: float
    control_hz: float
    n_rollouts: int
    sim_dt: float = 1e-3
    seed: int = 0
    noise: bool = False

    def __post_init__(self):
        lo = tuple(float(v) for v in self.init_lo)
        hi = tuple(float(v) for v in self.init_hi)
        if len(lo) != self.system.n_x or len(hi) != self.system.n_x:
            raise ValueError("initial box must match the simulated state dimension")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("empty initial box")
        rollout_steps(self.duration, self.control_hz, self.sim_dt)
        n_rollouts = exact_int(self.n_rollouts, "n_rollouts")
        if n_rollouts < 1:
            raise ValueError("n_rollouts must be >= 1")
        object.__setattr__(self, "n_rollouts", n_rollouts)
        object.__setattr__(self, "init_lo", lo)
        object.__setattr__(self, "init_hi", hi)


def run_cost_bench(spec: CostBenchSpec, policy: Callable) -> dict:
    """Roll out a policy from sampled starts and accumulate running cost.

    Diverged rollouts are excluded from the statistics and counted.  Returns
    a dict with per-rollout costs, final states, overall mean/std over the
    finished rollouts, the max recorded |u|, and the exclusion count.
    """
    steps, control_interval = rollout_steps(spec.duration, spec.control_hz, spec.sim_dt)
    costs = np.full(spec.n_rollouts, np.nan)
    finals = np.full((spec.n_rollouts, spec.system.n_x), np.nan)
    excluded = 0
    max_abs_u = 0.0
    for i in range(spec.n_rollouts):
        rng = np.random.default_rng([spec.seed, i])
        x0 = rng.uniform(spec.init_lo, spec.init_hi)
        try:
            states, inputs = simulate_closed_loop(
                spec.system, policy, x0, spec.sim_dt, steps,
                seed=[spec.seed, i, 1], noise=spec.noise,
                control_interval=control_interval,
            )
        except DivergenceError:
            excluded += 1
            continue
        costs[i] = accumulated_cost(states, inputs, spec.stage_cost, spec.pen,
                                    spec.sim_dt)
        finals[i] = states[-1]
        max_abs_u = max(max_abs_u, float(np.abs(inputs).max()))
    ok = np.isfinite(costs)
    return {
        "costs": costs,
        "final_states": finals,
        "mean": float(np.mean(costs[ok])) if np.any(ok) else float("nan"),
        "std": float(np.std(costs[ok])) if np.any(ok) else float("nan"),
        "n_excluded": excluded,
        "n_rollouts": spec.n_rollouts,
        "max_abs_input": max_abs_u,
    }


def write_sweep_csv(path, rows, config_hash: str | None = None) -> None:
    """Sweep results as CSV: value, n_points, rmse (NaN for failed runs)."""
    write_csv(path, ["value", "n_points", "rmse"],
              [(r["value"], r["n_points"], r["rmse"]) for r in rows], config_hash)


def write_costs_csv(path, result, config_hash: str | None = None) -> None:
    """Per-rollout costs as CSV (NaN marks an excluded rollout)."""
    write_csv(path, ["rollout", "cost"], enumerate(result["costs"]), config_hash)


def write_summary_json(path, payload: dict, config_hash: str | None = None) -> None:
    """Scalar summary as JSON with stable key order."""
    doc = dict(payload)
    if config_hash is not None:
        doc["config_hash"] = config_hash
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
