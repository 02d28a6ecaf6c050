"""End-to-end pipelines, accuracy metrics, and rollout cost benchmarks.

A pipeline is dataset -> generator fit -> HJB solve.  Sweeps rerun the
pipeline while varying one knob (kernel lengthscale or dataset size) and
score each run against a reference feedback; scoring passes the sampled
states to the learned policy and the reference in batches (``policy_on``
and ``Benchmark.reference_policy()``).  Cost benchmarks roll the
synthesized policy out under zero-order hold, one state per query, and
accumulate running cost.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .dynamics import (ControlAffineSystem, accumulated_cost, generate_dataset,
                       simulate_closed_loop)
from .errors import (ConfigError, DivergenceError, NumericalError, check_box, count,
                     positive)
from .generator import fit
from .hjb import HjbConfig, HjbSolution, policy_on, solve_fvp
from .kernels import KernelSpec, row_blocks
from .npzio import write_csv
from .penalty import ControlPenalty
from .systems import Benchmark

SWEEP_VARIABLES = ("lengthscale", "dataset_size")
# uniform sample size that rmse_to_reference scores a policy on
SCORE_POINTS = 1000


@dataclass(frozen=True)
class PipelineSpec:
    """Everything needed to go from a system to a solved value function: the
    benchmark (plant, grid, stage cost, penalty), the kernel and ridge weight
    ``gamma`` of the generator fit, and the HJB time stepping."""

    bench: Benchmark
    kernel: KernelSpec
    gamma: float
    hjb: HjbConfig


def run_pipeline(spec: PipelineSpec) -> HjbSolution:
    """Generate data, fit the generator, solve the final-value problem."""
    bench = spec.bench
    ds = generate_dataset(bench.system, bench.grid, bench.stage_cost)
    model = fit(ds, spec.kernel, spec.gamma, bench.system.epsilon)
    return solve_fvp(model, bench.pen, spec.hjb)


def rmse_to_reference(policy: Callable, reference: Callable, lo, hi,
                      n_points: int = SCORE_POINTS, seed: int = 0) -> float:
    """Root mean square feedback error over a uniform sample of a box.

    ``policy`` and ``reference`` are batch maps: each takes an (M, n_x)
    array of states and returns their inputs as an (M, n_u) array, as
    ``partial(hjb.policy_on, sol, pen)`` and ``Benchmark.reference_policy()``
    do.  The sample is scored by ``kernels.row_blocks``, so a kernel
    policy holds one block's cross-kernel matrix at a time.  An output that
    is not 2-D with one row per state, or whose shape differs from the
    other map's, raises ValueError naming the map.
    """
    lo, hi = check_box(lo, hi, None)
    n_points = count(n_points, "n_points")
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, size=(n_points, lo.size))
    err2 = 0.0
    for rows in row_blocks(n_points):
        U = _batch_inputs(policy, X[rows], "policy")
        R = _batch_inputs(reference, X[rows], "reference")
        if U.shape != R.shape:
            raise ValueError(f"policy returned shape {U.shape} but reference "
                             f"returned {R.shape}")
        d = U - R
        err2 += float(np.sum(d * d))
    return float(np.sqrt(err2 / n_points))


def _batch_inputs(f: Callable, X: np.ndarray, name: str) -> np.ndarray:
    """``f(X)`` as a float array, checked to be 2-D with one row per state:
    an (M,) output would broadcast against (M, 1) into an (M, M) error."""
    U = np.asarray(f(X), dtype=float)
    if U.ndim != 2 or U.shape[0] != X.shape[0]:
        raise ValueError(f"{name} must map {X.shape[0]} states to a "
                         f"({X.shape[0]}, n_u) array, got shape {U.shape}")
    return U


@dataclass(frozen=True)
class SweepSpec:
    """Rerun a pipeline while varying one knob, scoring against the benchmark's
    reference feedback.

    ``variable`` is "lengthscale" (kernel sigma) or "dataset_size" (total
    grid points, an integer, spread evenly across grid dimensions).  The
    reference is ``base.bench.reference_policy()``, so the benchmark must
    have one; scoring uses :func:`rmse_to_reference` on the box (region_lo,
    region_hi).
    """

    base: PipelineSpec
    variable: str
    values: tuple
    region_lo: np.ndarray
    region_hi: np.ndarray
    n_points: int = SCORE_POINTS
    seed: int = 0

    def __post_init__(self):
        self.base.bench.reference_policy()  # a ConfigError before any run
        values = sweep_values(self.variable, self.values, "values")
        lo, hi = check_box(self.region_lo, self.region_hi, self.base.bench.system.n_x,
                           "region_lo", "region_hi")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "region_lo", lo)
        object.__setattr__(self, "region_hi", hi)
        object.__setattr__(self, "n_points", count(self.n_points, "n_points"))


def sweep_values(variable: str, values, name: str) -> tuple:
    """The values of a sweep over ``variable``, checked before any run:
    lengthscales are positive floats, dataset sizes integers >= 1."""
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}")
    if len(values) == 0:
        raise ConfigError("sweep needs at least one value")
    check = positive if variable == "lengthscale" else count
    return tuple(check(v, f"each entry of {name}") for v in values)


def _pipeline_for_value(spec: SweepSpec, value) -> PipelineSpec:
    base = spec.base
    if spec.variable == "lengthscale":
        return replace(base, kernel=replace(base.kernel, sigma=float(value)))
    grid = base.bench.grid
    per_axis = max(1, round(value ** (1.0 / grid.n_intrinsic)))
    grid = replace(grid, counts=(per_axis,) * grid.n_intrinsic)
    return replace(base, bench=replace(base.bench, grid=grid))


def _sweep_one(spec: SweepSpec, reference: Callable, value) -> dict:
    pipeline = _pipeline_for_value(spec, value)
    row = {"value": float(value), "n_points": pipeline.bench.grid.n_points,
           "rmse": float("nan"), "error": None}
    try:
        sol = run_pipeline(pipeline)
        row["rmse"] = rmse_to_reference(
            partial(policy_on, sol, pipeline.bench.pen), reference,
            spec.region_lo, spec.region_hi, spec.n_points, spec.seed,
        )
    except (NumericalError, np.linalg.LinAlgError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list:
    """Run the sweep, one pipeline per value; failures yield NaN rows.

    Returns a list of dicts with keys value, n_points, rmse, error, in the
    order of ``spec.values``.
    """
    jobs = count(jobs, "jobs")
    reference = spec.base.bench.reference_policy()
    if jobs == 1:
        return [_sweep_one(spec, reference, v) for v in spec.values]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda v: _sweep_one(spec, reference, v), spec.values))


def rollout_steps(duration: float, control_hz: float, sim_dt: float) -> tuple:
    """Simulator steps in ``duration`` and the policy's hold interval in steps."""
    duration = positive(duration, "duration")
    control_hz = positive(control_hz, "control_hz")
    sim_dt = positive(sim_dt, "sim_dt")
    steps = int(round(duration / sim_dt))
    if steps < 1:
        raise ConfigError(f"duration must span at least one step of sim_dt, got "
                          f"duration {duration} and sim_dt {sim_dt}")
    return steps, max(1, int(round(1.0 / (control_hz * sim_dt))))


@dataclass(frozen=True)
class CostBenchSpec:
    """Rollout cost benchmark under zero-order-hold feedback.

    Initial states are drawn uniformly from the box (init_lo, init_hi) in
    the state space of ``system``, which is the system the simulator
    integrates.  For benchmarks trained on angle-embedded states pass the
    physical-coordinate twin here (``Benchmark.sim_system``) and compose the
    embedding into ``policy`` and ``stage_cost`` yourself.  The policy is
    queried at ``control_hz`` and held between queries while the dynamics
    substep at ``sim_dt`` by noise-free Euler steps.
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

    def __post_init__(self):
        lo, hi = check_box(self.init_lo, self.init_hi, self.system.n_x, "init_lo", "init_hi")
        rollout_steps(self.duration, self.control_hz, self.sim_dt)
        object.__setattr__(self, "n_rollouts", count(self.n_rollouts, "n_rollouts"))
        object.__setattr__(self, "init_lo", tuple(lo.tolist()))
        object.__setattr__(self, "init_hi", tuple(hi.tolist()))


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
                spec.system, policy, x0, spec.sim_dt, steps, noise=False,
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
    write_csv(path, ["rollout", "cost"], list(enumerate(result["costs"])), config_hash)


def write_summary_json(path, payload: dict, config_hash: str | None = None) -> None:
    """Scalar summary as JSON with stable key order; a non-finite number,
    such as the mean of a bench whose rollouts all diverged, is null."""
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in payload.items()}
    if config_hash is not None:
        doc["config_hash"] = config_hash
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
