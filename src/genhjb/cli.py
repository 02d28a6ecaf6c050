"""Command-line pipeline: gen-data, fit, solve, eval.

All four subcommands read the same YAML experiment config, parsed and
checked whole at load against ``SCHEMA``; artifacts carry a hash of the
experiment-defining fields so stages refuse to mix files produced under
different configs.  Exit codes: 0 success, 2 configuration problems,
3 numerical failures, 4 I/O failures.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from . import evaluation, hjb, kernels, systems
from .dynamics import (accumulated_cost, generate_dataset, read_dataset, simulate_closed_loop,
                       write_dataset)
from .errors import (ConfigError, NumericalError, check_box, count, nonnegative, number,
                     positive)
from .generator import fit, load_model, min_eig_estimate, save_model
from .hjb import HjbConfig, load_solution, save_solution, solve_fvp
from .kernels import KernelSpec
from .npzio import write_csv

# Fields that do not define the fitted artifacts (outputs, sampling seeds,
# evaluation settings) stay out of the config hash.
_HASH_EXCLUDED = ("out_dir", "seed", "eval")


def _mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _instance(kind, noun: str):
    def parse(value, key: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{key} must be {noun}, got {value!r}")
        return value
    return parse


def _one_of(*choices):
    def parse(value, key: str):
        if value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
        return value
    return parse


def _list_of(parse):
    def parse_list(value, key: str) -> list:
        items = _instance(list, "a list")(value, key)
        return [parse(v, f"each entry of {key}") for v in items]
    return parse_list


def _pair(value, key: str) -> list:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be a [lo, hi] pair, got {value!r}")
    lo, hi = (number(v, key) for v in value)
    if lo > hi:
        raise ConfigError(f"{key} must have lo <= hi, got {value!r}")
    return [lo, hi]


def _params(**parsers):
    """Parameter names to numbers, each read by its parser in ``parsers`` or
    else by ``number``; the system or its cost checks the names."""
    def parse(value, key: str) -> dict:
        return {name: parsers.get(name, number)(v, f"{key}.{name}")
                for name, v in _mapping(value, key).items()}
    return parse


_seed = functools.partial(count, least=0)
_numbers = _list_of(number)


REQUIRED = object()  # the default of a key the config must set

# Every key a config may set: dotted key -> (parser, default or REQUIRED).
# A parser takes (value, dotted key) and returns the typed value or raises
# ConfigError naming the key.  A default of None leaves the value to the
# system (its parameters, its grid) or, for a scoring box, [-1, 1] per state.
SCHEMA = {
    "system.name": (_one_of(*systems.BENCHMARK_NAMES), REQUIRED),
    "system.epsilon": (nonnegative, None),
    "system.u_max": (nonnegative, None),
    "system.params": (_params(), None),
    "cost.params": (_params(r_weight=positive), None),
    "grid.bounds": (_list_of(_pair), None),
    "grid.counts": (_list_of(count), None),
    "kernel.family": (_one_of(*kernels.FAMILIES), REQUIRED),
    "kernel.sigma": (positive, REQUIRED),
    "gamma": (positive, REQUIRED),
    "dt": (positive, REQUIRED),
    "horizon_steps": (count, REQUIRED),
    "seed": (_seed, 0),
    "out_dir": (_instance(str, "a string"), "."),
    "eval.rmse.region_lo": (_numbers, None),
    "eval.rmse.region_hi": (_numbers, None),
    "eval.rmse.n_points": (count, evaluation.SCORE_POINTS),
    "eval.rollout.x0": (_numbers, REQUIRED),
    "eval.rollout.duration": (positive, 5.0),
    "eval.rollout.control_hz": (positive, 50.0),
    "eval.cost-bench.init_lo": (_numbers, REQUIRED),
    "eval.cost-bench.init_hi": (_numbers, REQUIRED),
    "eval.cost-bench.duration": (positive, REQUIRED),
    "eval.cost-bench.control_hz": (positive, REQUIRED),
    "eval.cost-bench.n_rollouts": (count, REQUIRED),
    "eval.sweep.variable": (_one_of(*evaluation.SWEEP_VARIABLES), REQUIRED),
    "eval.sweep.values": (_numbers, REQUIRED),
    "eval.sweep.region_lo": (_numbers, None),
    "eval.sweep.region_hi": (_numbers, None),
    "eval.sweep.n_points": (count, evaluation.SCORE_POINTS),
}


def _walk(raw, prefix: str) -> dict:
    """Typed settings, by dotted key, of the block ``raw`` at ``prefix`` ("" or
    "name."); absent keys take their default, and None is an empty block."""
    where = prefix[:-1] or "config"
    raw = _mapping(raw, where)
    names = dict.fromkeys(key[len(prefix):].split(".")[0] for key in SCHEMA
                          if key.startswith(prefix))
    unknown = sorted(set(raw) - set(names), key=str)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    out = {}
    for name in names:
        key = prefix + name
        if key in SCHEMA:
            parse, default = SCHEMA[key]
            out[key] = parse(raw[name], key) if name in raw else default
        else:
            out.update(_walk(raw.get(name), key + "."))
    return out


def _require(settings: dict, prefix: str = "") -> None:
    missing = [key for key, value in settings.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"{prefix}{missing[0]} is required")


def _check_length(key: str, value, n: int) -> None:
    if value is not None and len(value) != n:
        raise ConfigError(f"{key} must have {n} entries, got {len(value)}")


class ExperimentConfig:
    """A YAML experiment config, parsed whole against ``SCHEMA`` at load.

    ``pipeline`` is the one ``PipelineSpec`` every stage reads.  ``settings``
    maps every dotted key to its typed value or default.  A key without a
    default must be set, except under ``eval`` (``eval_settings``).
    """

    def __init__(self, raw):
        s = _walk(raw, "")
        _require({k: v for k, v in s.items() if not k.startswith("eval.")})
        if REQUIRED not in (s["eval.sweep.variable"], s["eval.sweep.values"]):
            s["eval.sweep.values"] = evaluation.sweep_values(
                s["eval.sweep.variable"], s["eval.sweep.values"], "eval.sweep.values")
        bench = systems.make_benchmark(
            s["system.name"], epsilon=s["system.epsilon"], u_max=s["system.u_max"],
            system_params=s["system.params"], cost_params=s["cost.params"],
        )
        # the grid override is intrinsic bounds and counts; which of its
        # dimensions are angles is the system's to say
        for key in ("grid.bounds", "grid.counts"):
            _check_length(key, s[key], bench.grid.n_intrinsic)
        grid = {k: s["grid." + k] for k in ("bounds", "counts") if s["grid." + k]}
        self.pipeline = evaluation.PipelineSpec(
            bench=replace(bench, grid=replace(bench.grid, **grid)),
            kernel=KernelSpec(family=s["kernel.family"], sigma=s["kernel.sigma"]),
            gamma=s["gamma"],
            hjb=HjbConfig(dt=s["dt"], horizon_steps=s["horizon_steps"]),
        )
        self.seed, self.out_dir = s["seed"], s["out_dir"]
        self.settings = s
        doc = {k: v for k, v in raw.items() if k not in _HASH_EXCLUDED}
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self.config_hash = hashlib.sha256(canon.encode()).hexdigest()[:16]

    def eval_settings(self, mode: str) -> dict:
        """The settings of ``eval.<mode>`` by short name.  Its required keys
        and its vectors' lengths against the system are checked here, as the
        mode runs, so eval blocks written for another system do not stop
        training; the scoring box defaults to [-1, 1] per state."""
        prefix = f"eval.{mode}."
        opts = {key[len(prefix):]: value for key, value in self.settings.items()
                if key.startswith(prefix)}
        _require(opts, prefix)
        bench = self.pipeline.bench
        n_x, n_sim = bench.system.n_x, bench.sim_system.n_x
        for end, fill in (("lo", -1.0), ("hi", 1.0)):
            if opts.get(f"region_{end}", ()) is None:
                opts[f"region_{end}"] = [fill] * n_x
        _check_length(prefix + "x0", opts.get("x0"), n_sim)
        for lo, hi, n in (("region_lo", "region_hi", n_x), ("init_lo", "init_hi", n_sim)):
            if lo in opts:
                check_box(opts[lo], opts[hi], n, prefix + lo, prefix + hi)
        return opts


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from None
    return ExperimentConfig(raw)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    cfg.seed = cfg.seed if args.seed is None else _seed(args.seed, "--seed")
    cfg.out_dir = cfg.out_dir if args.out is None else args.out
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
    bench = cfg.pipeline.bench
    ds = generate_dataset(bench.system, bench.grid, bench.stage_cost)
    path = args.dataset or _out_path(cfg, "dataset.csv")
    write_dataset(path, ds, config_hash=cfg.config_hash)
    print(f"wrote {path}: N={ds.n_points} n_x={ds.n_x} n_u={ds.n_u}")
    return 0


def cmd_fit(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    path = args.dataset or os.path.join(cfg.out_dir, "dataset.csv")
    ds, ds_hash = read_dataset(path)
    _check_hash("dataset", ds_hash, cfg)
    t0 = time.perf_counter()
    spec = cfg.pipeline
    model = fit(ds, spec.kernel, spec.gamma, spec.bench.system.epsilon)
    elapsed = time.perf_counter() - t0
    out = args.model or _out_path(cfg, "model.npz")
    save_model(out, model, config_hash=cfg.config_hash)
    eig = min_eig_estimate(model)
    print(f"wrote {out}: N={model.n_points} fit_time={elapsed:.2f}s "
          f"min_eig(K_gamma)~{eig:.3e}")
    return 0


def cmd_solve(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    spec = cfg.pipeline
    pen = spec.bench.pen
    path = args.model or os.path.join(cfg.out_dir, "model.npz")
    model, meta = load_model(path)
    _check_hash("model", meta.get("config_hash"), cfg)
    t0 = time.perf_counter()
    sol = solve_fvp(model, pen, spec.hjb)
    elapsed = time.perf_counter() - t0
    out = args.solution or _out_path(cfg, "solution.npz")
    save_solution(out, sol, config_hash=cfg.config_hash)
    grid_csv = _out_path(cfg, "value_policy.csv")
    hjb.write_value_policy_csv(grid_csv, sol, pen, model.X, config_hash=cfg.config_hash)
    print(f"wrote {out} and {grid_csv}: steps={spec.hjb.horizon_steps} "
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


def _sim_policy(sol, bench):
    # Rollouts integrate bench.sim_system (physical coordinates); the value
    # function lives on embedded states, so embed before querying.
    return lambda q: hjb.smoothed_policy_at(sol, bench.pen, bench.grid.embed_point(q))


def _sim_stage_cost(bench):
    return lambda q: bench.stage_cost(bench.grid.embed_point(q))


def cmd_eval(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    bench = cfg.pipeline.bench
    mode = args.mode
    opts = cfg.eval_settings(mode)

    if mode == "rmse":
        reference = bench.reference_policy()
        sol = _load_solution_pair(cfg, args)
        rmse = evaluation.rmse_to_reference(
            functools.partial(hjb.policy_on, sol, bench.pen), reference, opts["region_lo"],
            opts["region_hi"], n_points=opts["n_points"], seed=cfg.seed,
        )
        out = _out_path(cfg, "summary.json")
        evaluation.write_summary_json(out, {"mode": "rmse", "rmse": rmse},
                                      config_hash=cfg.config_hash)
        print(f"rmse={rmse:.6g} (wrote {out})")
        return 0

    if mode == "rollout":
        sim_dt = evaluation.CostBenchSpec.sim_dt
        steps, interval = evaluation.rollout_steps(opts["duration"], opts["control_hz"],
                                                   sim_dt)
        sol = _load_solution_pair(cfg, args)
        states, inputs = simulate_closed_loop(
            bench.sim_system, _sim_policy(sol, bench), opts["x0"], sim_dt, steps,
            noise=False, control_interval=interval,
        )
        cost = accumulated_cost(states, inputs, _sim_stage_cost(bench), bench.pen,
                                sim_dt)
        out = _out_path(cfg, "rollout.csv")
        cols = ["t"] + [f"x_{i}" for i in range(1, bench.sim_system.n_x + 1)] \
            + [f"u_{j}" for j in range(1, bench.sim_system.n_u + 1)]
        t = np.arange(inputs.shape[0]) * sim_dt
        write_csv(out, cols, np.column_stack([t, states[:-1], inputs]), cfg.config_hash)
        print(f"rollout cost={cost:.6g} over {opts['duration']}s (wrote {out})")
        return 0

    if mode == "cost-bench":
        spec = evaluation.CostBenchSpec(
            system=bench.sim_system, stage_cost=_sim_stage_cost(bench), pen=bench.pen,
            init_lo=opts["init_lo"], init_hi=opts["init_hi"], duration=opts["duration"],
            control_hz=opts["control_hz"], n_rollouts=opts["n_rollouts"], seed=cfg.seed,
        )
        sol = _load_solution_pair(cfg, args)
        result = evaluation.run_cost_bench(spec, _sim_policy(sol, bench))
        base = evaluation.run_cost_bench(spec, lambda x: np.zeros(bench.sim_system.n_u))
        payload = {"mode": "cost-bench", "mean": result["mean"], "std": result["std"],
                   "n_excluded": result["n_excluded"],
                   "max_abs_input": result["max_abs_input"],
                   "baseline_mean": base["mean"], "baseline_std": base["std"]}
        evaluation.write_costs_csv(_out_path(cfg, "costs.csv"), result,
                                   config_hash=cfg.config_hash)
        out = _out_path(cfg, "summary.json")
        evaluation.write_summary_json(out, payload, config_hash=cfg.config_hash)
        if result["n_excluded"] == spec.n_rollouts:
            print(f"cost-bench: all {spec.n_rollouts} rollouts diverged (wrote {out})")
            return 3
        print(f"cost mean={result['mean']:.6g} std={result['std']:.6g} "
              f"excluded={result['n_excluded']} (wrote {out})")
        return 0

    # sweep reruns the full pipeline per value, no stored artifacts needed
    spec = evaluation.SweepSpec(
        base=cfg.pipeline, variable=opts["variable"], values=opts["values"],
        region_lo=opts["region_lo"], region_hi=opts["region_hi"],
        n_points=opts["n_points"], seed=cfg.seed,
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
    modes = sorted({key.split(".")[1] for key in SCHEMA if key.startswith("eval.")})
    p.add_argument("--mode", required=True, choices=modes)
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
