"""Command-line pipeline: gen-data, fit, solve, eval.

All four subcommands read the same YAML experiment config; artifacts carry
a hash of the experiment-defining fields so stages refuse to mix files
produced under different configs.  Exit codes: 0 success, 2 configuration
problems, 3 numerical failures, 4 I/O failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np
import yaml

from . import evaluation, hjb, systems
from .dynamics import (StateGridSpec, accumulated_cost, generate_dataset,
                       read_dataset, simulate_closed_loop, write_dataset)
from .errors import ConfigError, NumericalError, exact_int
from .generator import fit, load_model, min_eig_estimate, save_model
from .hjb import HjbConfig, load_solution, save_solution, solve_fvp
from .kernels import KernelSpec
from .npzio import write_csv
from .penalty import ControlPenalty

_TOP_KEYS = {"system", "cost", "grid", "kernel", "penalty", "gamma", "dt",
             "horizon_steps", "label_mode", "fd_step", "seed",
             "out_dir", "eval"}
_SYSTEM_KEYS = {"name", "epsilon", "u_max", "params"}
_COST_KEYS = {"params"}
_GRID_KEYS = {"bounds", "counts", "angle_dims"}
_KERNEL_KEYS = {"family", "sigma", "smoothing_lengthscale_ratio", "smoothing_radius"}
_PENALTY_KEYS = {"weights", "u_min", "u_max"}
_EVAL_MODES = {
    "rmse": {"region_lo", "region_hi", "n_points"},
    "rollout": {"x0", "duration", "control_hz", "sim_dt", "smooth", "noise"},
    "cost-bench": {"init_lo", "init_hi", "duration", "control_hz", "n_rollouts",
                   "sim_dt", "smooth", "noise", "baseline"},
    "sweep": {"variable", "values", "region_lo", "region_hi", "n_points"},
}

# Fields that do not define the fitted artifacts (outputs, sampling seeds,
# evaluation settings) stay out of the config hash.
_HASH_EXCLUDED = ("out_dir", "seed", "eval")


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _list(opts: dict, key: str, where: str) -> list:
    value = opts[key]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}.{key} must be a list, got {value!r}")
    return value


class ExperimentConfig:
    """Validated experiment description loaded from YAML."""

    def __init__(self, raw: dict):
        raw = _require_mapping(raw, "config")
        _check_keys(raw, _TOP_KEYS, "config")

        system = _require_mapping(raw.get("system"), "system")
        _check_keys(system, _SYSTEM_KEYS, "system")
        if "name" not in system:
            raise ConfigError("system.name is required")
        self.system_name = str(system["name"])
        self.epsilon = system.get("epsilon")
        self.u_max = system.get("u_max")
        self.system_params = _require_mapping(system.get("params"), "system.params")

        cost = _require_mapping(raw.get("cost"), "cost")
        _check_keys(cost, _COST_KEYS, "cost")
        self.cost_params = _require_mapping(cost.get("params"), "cost.params")

        kernel = _require_mapping(raw.get("kernel"), "kernel")
        _check_keys(kernel, _KERNEL_KEYS, "kernel")
        if "family" not in kernel or "sigma" not in kernel:
            raise ConfigError("kernel.family and kernel.sigma are required")
        try:
            shape = {k: float(v) for k, v in kernel.items() if k != "family"}
            self.kernel = KernelSpec(family=str(kernel["family"]), **shape)
        except ValueError as exc:
            raise ConfigError(f"bad kernel: {exc}") from None

        self.grid_override = None
        if raw.get("grid") is not None:
            grid = _require_mapping(raw.get("grid"), "grid")
            _check_keys(grid, _GRID_KEYS, "grid")
            if "bounds" not in grid or "counts" not in grid:
                raise ConfigError("grid.bounds and grid.counts are required")
            try:
                self.grid_override = StateGridSpec(
                    bounds=tuple(tuple(b) for b in grid["bounds"]),
                    counts=tuple(grid["counts"]),
                    angle_dims=tuple(grid.get("angle_dims", ())),
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad grid: {exc}") from None

        self.penalty_override = None
        if raw.get("penalty") is not None:
            pen = _require_mapping(raw.get("penalty"), "penalty")
            _check_keys(pen, _PENALTY_KEYS, "penalty")
            if "weights" not in pen or "u_max" not in pen:
                raise ConfigError("penalty requires weights and u_max")
            try:
                w = np.atleast_1d(np.asarray(pen["weights"], dtype=float))
                hi = np.broadcast_to(np.asarray(pen["u_max"], dtype=float), w.shape)
                lo = -hi if pen.get("u_min") is None \
                    else np.broadcast_to(np.asarray(pen["u_min"], dtype=float), w.shape)
                self.penalty_override = ControlPenalty(weights=w, u_min=lo, u_max=hi)
            except ValueError as exc:
                raise ConfigError(f"bad penalty: {exc}") from None

        for key in ("gamma", "dt", "horizon_steps"):
            if key not in raw:
                raise ConfigError(f"{key} is required")
        self.gamma = float(raw["gamma"])
        self.dt = float(raw["dt"])
        self.horizon_steps = exact_int(raw["horizon_steps"], "horizon_steps")
        # only the label keys the YAML sets; the defaults live in dynamics
        self.labels = {k: conv(raw[k]) for k, conv in
                       (("label_mode", str), ("fd_step", float)) if k in raw}
        self.seed = exact_int(raw.get("seed", 0), "seed")
        self.out_dir = str(raw.get("out_dir", "."))

        eval_cfg = _require_mapping(raw.get("eval"), "eval")
        _check_keys(eval_cfg, set(_EVAL_MODES), "eval")
        for mode, sub in eval_cfg.items():
            _check_keys(_require_mapping(sub, f"eval.{mode}"), _EVAL_MODES[mode],
                        f"eval.{mode}")
        self.eval_cfg = eval_cfg

        self.raw = raw
        self.config_hash = _hash_config(raw)

    def benchmark(self) -> systems.Benchmark:
        bench = systems.make_benchmark(
            self.system_name, epsilon=self.epsilon, u_max=self.u_max,
            system_params=self.system_params, cost_params=self.cost_params,
        )
        grid = self.grid_override if self.grid_override is not None else bench.grid
        pen = self.penalty_override if self.penalty_override is not None else bench.pen
        if grid.n_x != bench.system.n_x:
            raise ConfigError(
                f"grid embeds into dimension {grid.n_x} but system "
                f"{self.system_name!r} has n_x={bench.system.n_x}"
            )
        if pen.n_u != bench.system.n_u:
            raise ConfigError("penalty channel count does not match the system")
        return dataclasses.replace(bench, grid=grid, pen=pen)

    def hjb_config(self) -> HjbConfig:
        try:
            return HjbConfig(dt=self.dt, horizon_steps=self.horizon_steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _hash_config(raw: dict) -> str:
    doc = {k: v for k, v in raw.items() if k not in _HASH_EXCLUDED}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from None
    try:
        return ExperimentConfig(raw)
    except (TypeError,) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from None


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = int(args.seed)
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    return cfg


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _check_hash(kind: str, artifact_hash, cfg: ExperimentConfig) -> None:
    if artifact_hash != cfg.config_hash:
        raise ConfigError(
            f"{kind} was produced under config hash {artifact_hash}, but this "
            f"config hashes to {cfg.config_hash}; refusing to mix artifacts"
        )


def cmd_gen_data(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    bench = cfg.benchmark()
    ds = generate_dataset(bench.system, bench.grid, bench.stage_cost, **cfg.labels)
    path = args.dataset or _out_path(cfg, "dataset.csv")
    write_dataset(path, ds, config_hash=cfg.config_hash)
    print(f"wrote {path}: N={ds.n_points} n_x={ds.n_x} n_u={ds.n_u}")
    return 0


def cmd_fit(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    bench = cfg.benchmark()
    path = args.dataset or os.path.join(cfg.out_dir, "dataset.csv")
    ds, ds_hash = read_dataset(path)
    _check_hash("dataset", ds_hash, cfg)
    t0 = time.perf_counter()
    model = fit(ds, cfg.kernel, cfg.gamma, bench.system.epsilon)
    elapsed = time.perf_counter() - t0
    out = args.model or _out_path(cfg, "model.npz")
    save_model(out, model, config_hash=cfg.config_hash)
    eig = min_eig_estimate(model)
    print(f"wrote {out}: N={model.n_points} fit_time={elapsed:.2f}s "
          f"min_eig(K_gamma)~{eig:.3e}")
    return 0


def cmd_solve(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    bench = cfg.benchmark()
    path = args.model or os.path.join(cfg.out_dir, "model.npz")
    model, meta = load_model(path)
    _check_hash("model", meta.get("config_hash"), cfg)
    t0 = time.perf_counter()
    sol = solve_fvp(model, bench.pen, cfg.hjb_config())
    elapsed = time.perf_counter() - t0
    out = args.solution or _out_path(cfg, "solution.npz")
    save_solution(out, sol, config_hash=cfg.config_hash)
    grid_csv = _out_path(cfg, "value_policy.csv")
    hjb.write_value_policy_csv(grid_csv, sol, bench.pen, model.X,
                               config_hash=cfg.config_hash)
    print(f"wrote {out} and {grid_csv}: steps={cfg.horizon_steps} "
          f"solve_time={elapsed:.2f}s")
    return 0


def _load_solution_pair(cfg: ExperimentConfig, args):
    model_path = args.model or os.path.join(cfg.out_dir, "model.npz")
    sol_path = args.solution or os.path.join(cfg.out_dir, "solution.npz")
    model, meta_m = load_model(model_path)
    _check_hash("model", meta_m.get("config_hash"), cfg)
    sol, meta_s = load_solution(sol_path, model)
    _check_hash("solution", meta_s.get("config_hash"), cfg)
    return sol


def _mode_cfg(cfg: ExperimentConfig, mode: str) -> dict:
    return dict(cfg.eval_cfg.get(mode, {}))


def _scoring_box(opts: dict, mode: str, n_x: int):
    """Sampling box and sample count that rmse and sweep score policies on."""
    where = f"eval.{mode}"
    lo = _list(opts, "region_lo", where) if "region_lo" in opts else [-1.0] * n_x
    hi = _list(opts, "region_hi", where) if "region_hi" in opts else [1.0] * n_x
    n_points = exact_int(opts.get("n_points", evaluation.SCORE_POINTS), f"{where}.n_points")
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), n_points


def _rollout_opts(opts: dict):
    """sim_dt, noise and smooth of a rollout or cost-bench block.

    sim_dt and noise default to CostBenchSpec's own field defaults.
    """
    spec = evaluation.CostBenchSpec
    return (float(opts.get("sim_dt", spec.sim_dt)),
            bool(opts.get("noise", spec.noise)), bool(opts.get("smooth", True)))


def _policies(sol, bench, smooth: bool):
    if smooth:
        return lambda x: hjb.smoothed_policy_at(sol, bench.pen, x)
    return lambda x: hjb.policy_at(sol, bench.pen, x)


def _sim_policy(sol, bench, smooth: bool):
    # Rollouts integrate bench.sim_system (physical coordinates); the value
    # function lives on embedded states, so embed before querying.
    pol = _policies(sol, bench, smooth)
    return lambda q: pol(bench.grid.embed_point(q))


def _sim_stage_cost(bench):
    return lambda q: bench.stage_cost(bench.grid.embed_point(q))


def cmd_eval(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    bench = cfg.benchmark()
    mode = args.mode
    opts = _mode_cfg(cfg, mode)

    if mode == "rmse":
        lo, hi, n_points = _scoring_box(opts, mode, bench.system.n_x)
        reference = bench.reference_policy()
        sol = _load_solution_pair(cfg, args)
        rmse = evaluation.rmse_to_reference(
            _policies(sol, bench, smooth=False), reference, lo, hi,
            n_points=n_points, seed=cfg.seed,
        )
        out = _out_path(cfg, "summary.json")
        evaluation.write_summary_json(out, {"mode": "rmse", "rmse": rmse},
                                      config_hash=cfg.config_hash)
        print(f"rmse={rmse:.6g} (wrote {out})")
        return 0

    if mode == "rollout":
        sol = _load_solution_pair(cfg, args)
        if "x0" not in opts:
            raise ConfigError("eval.rollout.x0 is required")
        x0 = np.atleast_1d(np.asarray(opts["x0"], dtype=float))
        if x0.shape != (bench.sim_system.n_x,):
            raise ConfigError(
                f"eval.rollout.x0 must have {bench.sim_system.n_x} entries"
            )
        sim_dt, noise, smooth = _rollout_opts(opts)
        duration = float(opts.get("duration", 5.0))
        steps, interval = evaluation.rollout_steps(
            duration, float(opts.get("control_hz", 50.0)), sim_dt)
        policy = _sim_policy(sol, bench, smooth=smooth)
        states, inputs = simulate_closed_loop(
            bench.sim_system, policy, x0, sim_dt, steps, seed=cfg.seed,
            noise=noise, control_interval=interval,
        )
        cost = accumulated_cost(states, inputs, _sim_stage_cost(bench), bench.pen,
                                sim_dt)
        out = _out_path(cfg, "rollout.csv")
        cols = ["t"] + [f"x_{i}" for i in range(1, bench.sim_system.n_x + 1)] \
            + [f"u_{j}" for j in range(1, bench.sim_system.n_u + 1)]
        t = np.arange(inputs.shape[0]) * sim_dt
        write_csv(out, cols, np.column_stack([t, states[:-1], inputs]), cfg.config_hash)
        print(f"rollout cost={cost:.6g} over {duration}s (wrote {out})")
        return 0

    if mode == "cost-bench":
        for key in ("init_lo", "init_hi", "duration", "control_hz", "n_rollouts"):
            if key not in opts:
                raise ConfigError(f"eval.cost-bench.{key} is required")
        sim_dt, noise, smooth = _rollout_opts(opts)
        spec = evaluation.CostBenchSpec(
            system=bench.sim_system, stage_cost=_sim_stage_cost(bench),
            pen=bench.pen, init_lo=tuple(_list(opts, "init_lo", "eval.cost-bench")),
            init_hi=tuple(_list(opts, "init_hi", "eval.cost-bench")),
            duration=float(opts["duration"]), control_hz=float(opts["control_hz"]),
            n_rollouts=exact_int(opts["n_rollouts"], "eval.cost-bench.n_rollouts"),
            sim_dt=sim_dt, seed=cfg.seed, noise=noise,
        )
        sol = _load_solution_pair(cfg, args)
        policy = _sim_policy(sol, bench, smooth=smooth)
        result = evaluation.run_cost_bench(spec, policy)
        payload = {"mode": "cost-bench", "mean": result["mean"], "std": result["std"],
                   "n_excluded": result["n_excluded"],
                   "max_abs_input": result["max_abs_input"]}
        if bool(opts.get("baseline", True)):
            zero = lambda x: np.zeros(bench.sim_system.n_u)
            base = evaluation.run_cost_bench(spec, zero)
            payload["baseline_mean"] = base["mean"]
            payload["baseline_std"] = base["std"]
        evaluation.write_costs_csv(_out_path(cfg, "costs.csv"), result,
                                   config_hash=cfg.config_hash)
        out = _out_path(cfg, "summary.json")
        evaluation.write_summary_json(out, payload, config_hash=cfg.config_hash)
        print(f"cost mean={result['mean']:.6g} std={result['std']:.6g} "
              f"excluded={result['n_excluded']} (wrote {out})")
        return 0

    # sweep reruns the full pipeline per value, no stored artifacts needed
    for key in ("variable", "values"):
        if key not in opts:
            raise ConfigError(f"eval.sweep.{key} is required")
    lo, hi, n_points = _scoring_box(opts, mode, bench.system.n_x)
    reference = bench.reference_policy()
    base = evaluation.PipelineSpec(
        system=bench.system, grid=bench.grid, stage_cost=bench.stage_cost,
        pen=bench.pen, kernel=cfg.kernel, gamma=cfg.gamma, dt=cfg.dt,
        horizon_steps=cfg.horizon_steps, **cfg.labels,
    )
    spec = evaluation.SweepSpec(
        base=base, variable=str(opts["variable"]),
        values=tuple(_list(opts, "values", "eval.sweep")), reference=reference,
        region_lo=lo, region_hi=hi, n_points=n_points, seed=cfg.seed,
    )
    rows = evaluation.run_sweep(spec, jobs=args.jobs)
    out = _out_path(cfg, "sweep.csv")
    evaluation.write_sweep_csv(out, rows, config_hash=cfg.config_hash)
    finite = [r for r in rows if np.isfinite(r["rmse"])]
    best = min(finite, key=lambda r: r["rmse"]) if finite else None
    if best is None:
        print(f"sweep: all {len(rows)} runs failed (wrote {out})")
        return 3
    print(f"sweep best: {spec.variable}={best['value']:g} rmse={best['rmse']:.6g} "
          f"(wrote {out})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genhjb",
        description="Learn diffusion generators from drift data and solve "
                    "kernel HJB problems for feedback synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("gen-data", help="sample a drift dataset onto the grid")
    common(p)
    p.add_argument("--dataset", default=None, help="output CSV path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit", help="fit the generator from a dataset")
    common(p)
    p.add_argument("--dataset", default=None, help="input dataset CSV")
    p.add_argument("--model", default=None, help="output model archive")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("solve", help="solve the HJB final-value problem")
    common(p)
    p.add_argument("--model", default=None, help="input model archive")
    p.add_argument("--solution", default=None, help="output solution archive")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a solved policy")
    common(p)
    p.add_argument("--mode", required=True, choices=sorted(_EVAL_MODES))
    p.add_argument("--model", default=None, help="input model archive")
    p.add_argument("--solution", default=None, help="input solution archive")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # includes ConfigError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
