"""The three benchmark workloads and the layer probes of the traced run.

Every workload is a set-up step (building the benchmark plant and its drift
dataset) followed by train (fit + HJB solve), eval (cost benches or CLI
evaluations) and a policy-query phase of single-state calls timed one by
one.  The harness calls genhjb only through its public functions and times
everything from outside, at those calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import yaml

from genhjb import (CostBenchSpec, HjbConfig, KernelSpec, StateGridSpec,
                    dataset_from_states,
                    fit, generate_dataset, load_model, make_benchmark,
                    policy_at, policy_on, run_cost_bench, save_model,
                    save_solution, smoothed_policy_at, solve_fvp)
from genhjb import cli, kernels, npzio
from genhjb.dynamics import read_dataset
from genhjb.generator import solve_regularized, target_kernel_matrix
from genhjb.hjb import load_solution
from genhjb.penalty import u_star
from genhjb.systems import cartpole_default_grid, pendulum_default_grid

import calibration
import oracles
from tracing import Tracer

QUERY_WARMUP = 50          # untimed calls before the policy-query phase
QUERY_BLOCK = 1000         # queries per block: ten samples beyond its p99
TRAIN_REPEATS = 5          # linear-cli fit + solve repeats (see linear_cli_main)
CROSS_VECTOR_CALLS = 500   # single-point cross-kernel calls in the probe
CAL_POINT = 3              # calibration units at each rollout or block boundary


class Run:
    """State of one benchmark run: seed, size, tracer, stage times, tallies."""

    def __init__(self, seed: int, size: str, traced: bool, workdir: str):
        self.seed = seed
        self.size = size
        self.full = size == "full"
        self.tracer = Tracer(traced)
        self.workdir = workdir
        self.stages: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.accuracy: dict[str, float] = {}
        self.params: dict = {}
        self.checks: list[dict] = []
        self.op_tally: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.end_time: float | None = None
        self._query_ns: list = []
        self._query_cal: list = []
        self._query_out: list = []

    def ops(self, kind: str, attempted: int, failed: int) -> None:
        tally = self.op_tally.setdefault(kind, [0, 0])
        tally[0] += attempted
        tally[1] += failed
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str, gated: bool = True) -> None:
        """Record an oracle check; a gated one that fails counts as failed."""
        self.checks.append({"name": name, "ok": bool(ok), "gated": gated,
                            "detail": detail})
        if gated:
            self.ops("oracle", 1, 0 if ok else 1)

    def query_blocks(self, policy, states) -> None:
        """Time single-state policy calls one by one, in blocks of QUERY_BLOCK,
        with calibrations before and after each block."""
        if not self._query_ns:
            for x in states[:QUERY_WARMUP]:
                policy(x)
        clock = time.perf_counter_ns
        with self.tracer.span("hjb.policy_queries"):
            for start in range(0, len(states), QUERY_BLOCK):
                block = states[start:start + QUERY_BLOCK]
                cal = calibration.sample("query", CAL_POINT)
                ns = np.empty(len(block))
                for i, x in enumerate(block):
                    t0 = clock()
                    u = policy(x)
                    ns[i] = clock() - t0
                    self._query_out.append(np.atleast_1d(u))
                self._query_ns.append(ns)
                self._query_cal.append(cal + calibration.sample("query", CAL_POINT))

    def finish_queries(self) -> np.ndarray:
        """p50 and p99 over the blocks; returns all outputs in query order.

        Each block leaves at least ten samples beyond its 99th percentile.
        Its p50 and p99 are taken to reference speed with the calibrations
        beside it, and the reported values are the medians over the blocks.
        """
        U = np.array(self._query_out, dtype=float)
        blocks = list(zip(self._query_ns, self._query_cal))
        p50 = [calibration.at_reference(np.percentile(b, 50) / 1e3, c, "query")
               for b, c in blocks]
        p99 = [calibration.at_reference(np.percentile(b, 99) / 1e3, c, "query")
               for b, c in blocks]
        self.stages["policy_p50_us"] = float(np.median(p50))
        self.stages["policy_p99_us"] = float(np.median(p99))
        self.stages["query_s"] = calibration.total_at_reference(
            [b.sum() / 1e9 for b in self._query_ns], self._query_cal, "query")
        self.params["policy_samples"] = len(U)
        self.params["policy_block_p50_us"] = [float(np.percentile(b, 50)) / 1e3
                                              for b in self._query_ns]
        self.params["policy_block_p99_us"] = [float(np.percentile(b, 99)) / 1e3
                                              for b in self._query_ns]
        self.params["policy_block_cal_s"] = [float(np.median(c)) for c in self._query_cal]
        self.ops("policy_query", len(U), oracles.nonfinite_rows(U))
        return U

    def finish_workload(self) -> None:
        self.end_time = time.perf_counter()


class RolloutClock:
    """Times each rollout of one run_cost_bench call from outside.

    run_cost_bench rolls out one start state after another and queries the
    policy every control interval, so every rollout that does not diverge
    makes the same number of calls.  A rollout's time runs from its first
    policy call to the next rollout's first call, or to ``stop()``.  At each
    boundary the clock runs CAL_POINT calibration units, and every ``every``
    rollouts ``between`` runs there too, both outside the rollouts' times.
    """

    def __init__(self, policy, spec: CostBenchSpec, between=None, every: int = 0):
        steps = int(round(spec.duration / spec.sim_dt))
        interval = max(1, int(round(1.0 / (spec.control_hz * spec.sim_dt))))
        self.calls_per_rollout = -(-steps // interval)
        self.n_rollouts = spec.n_rollouts
        self.policy = policy
        self.between = between
        self.every = every if between is not None else 0
        self.calls = 0
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cal: list[list] = []  # calibrations at each boundary

    def __call__(self, x):
        if self.calls % self.calls_per_rollout == 0:
            rollout = self.calls // self.calls_per_rollout
            if rollout:
                self.ends.append(time.perf_counter())
            self.cal.append(calibration.sample("rollout", CAL_POINT))
            if rollout and self.every and rollout % self.every == 0:
                self.between()
            self.starts.append(time.perf_counter())
        self.calls += 1
        return self.policy(x)

    def stop(self) -> None:
        self.ends.append(time.perf_counter())
        self.cal.append(calibration.sample("rollout", CAL_POINT))

    def rollout_times(self) -> list | None:
        """Seconds per rollout; None when a rollout diverged and cut its calls."""
        if self.calls != self.n_rollouts * self.calls_per_rollout:
            return None
        return [e - s for s, e in zip(self.starts, self.ends)]

    def bench_seconds(self, wall: float) -> float:
        """The bench at reference speed, each rollout taken there with the
        calibrations at its two boundaries; from the bench's wall time and all
        its calibrations if a rollout diverged."""
        times = self.rollout_times()
        if times is None:
            return calibration.at_reference(wall, sum(self.cal, []), "rollout")
        return calibration.total_at_reference(
            times, [a + b for a, b in zip(self.cal, self.cal[1:])], "rollout")


def _uniform(seed: int, stream: int, lo, hi, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream])
    return rng.uniform(np.asarray(lo, float), np.asarray(hi, float),
                       size=(n, len(lo)))


# -- computed kernel-level counts -------------------------------------------
#
# Bytes count each N x N float64 array the code reads or writes once per use;
# cache misses and re-reads inside blocked LAPACK are ignored, so the figures
# are labelled computed.  Vectors are O(N) and left out.

def hjb_step_counts(N: int, n_u: int) -> dict:
    """One semi-implicit step: per channel K @ (B_j @ w), then cho_solve
    (finite check of the factor plus two triangular sweeps) and lu_solve."""
    arrays = 2 * n_u + 3
    flop = (4 * n_u + 4) * N * N
    return {"bytes": 8.0 * arrays * N * N, "flop": float(flop)}


def fit_counts(N: int, n_u: int) -> dict:
    """Gram, K + N gamma I, Cholesky, and per channel one target matrix and a
    two-sweep triangular solve with N right-hand sides."""
    arrays = 9 + 7 * n_u
    flop = N ** 3 / 3.0 + 2.0 * (n_u + 1) * N ** 3
    return {"bytes": 8.0 * arrays * N * N, "flop": flop}


# -- layer probes (traced run only) -----------------------------------------

def saturated_fraction(model, sol, pen) -> float:
    """Share of data points whose u_star(K B_hat v0) sits on the box bound."""
    U = u_star(pen, model.K @ sol.bv0.T)
    on_bound = (U <= pen.u_min) | (U >= pen.u_max)
    return float(np.mean(np.any(on_bound, axis=1)))


def layer_probes(run: Run, ds, model, sol, pen, hjb_cfg, solve_s, Xq) -> None:
    """Time single layers in isolation on this workload's own data.

    Runs after the workload has finished, so it adds nothing to total_s.
    ``Xq`` are policy-query states in the model's (embedded) coordinates.
    """
    tr, L = run.tracer, run.layers
    k, X, N, n_u = model.kernel, model.X, model.n_points, model.n_u
    with tr.span("kernels.gram") as s:
        kernels.gram_matrix(k, X)
    L["kernels.gram_s"] = s.seconds
    with tr.span("kernels.target") as s:
        target_kernel_matrix(k, X, ds.drift_labels[0], model.epsilon)
    L["kernels.target_s"] = s.seconds
    with tr.span("kernels.cross_vector") as s:
        ns = []
        for x in Xq[:CROSS_VECTOR_CALLS]:
            t0 = time.perf_counter_ns()
            kernels.cross_kernel_vector(k, X, x)
            ns.append(time.perf_counter_ns() - t0)
    L["kernels.cross_vector_us"] = float(np.median(ns)) / 1e3
    with tr.span("generator.ridge_solve") as s:
        solve_regularized(model, model.K)
    L["generator.ridge_solve_s"] = s.seconds
    with tr.span("hjb.setup") as s:
        solve_fvp(model, pen, replace(hjb_cfg, horizon_steps=1))
    L["hjb.setup_s"] = s.seconds
    H = hjb_cfg.horizon_steps
    step_s = (solve_s - s.seconds) / (H - 1)
    step = hjb_step_counts(N, n_u)
    L["hjb.step_ms"] = step_s * 1e3
    L["hjb.step_bytes_mb"] = step["bytes"] / 1e6
    L["hjb.step_mflop"] = step["flop"] / 1e6
    L["hjb.step_flop_per_byte"] = step["flop"] / step["bytes"]
    L["hjb.step_gbps"] = step["bytes"] / step_s / 1e9
    fc = fit_counts(N, n_u)
    L["generator.fit_gflop"] = fc["flop"] / 1e9
    L["generator.fit_bytes_mb"] = fc["bytes"] / 1e6
    L["generator.fit_flop_per_byte"] = fc["flop"] / fc["bytes"]
    with tr.span("hjb.policy_batch") as s:
        policy_on(sol, pen, Xq)
    L["hjb.policy_batch_us"] = s.seconds / len(Xq) * 1e6
    L["penalty.saturated_frac"] = saturated_fraction(model, sol, pen)

    model_path = os.path.join(run.workdir, "probe_model.npz")
    sol_path = os.path.join(run.workdir, "probe_solution.npz")
    with tr.span("npzio.save") as s:
        save_model(model_path, model)
        save_solution(sol_path, sol)
    L["npzio.save_s"] = s.seconds
    L["npzio.artifact_bytes"] = float(os.path.getsize(model_path)
                                      + os.path.getsize(sol_path))
    with tr.span("npzio.load") as s:
        npzio.load_arrays(model_path)
        npzio.load_arrays(sol_path)
    L["npzio.load_s"] = s.seconds
    with tr.span("generator.load_model") as s:
        load_model(model_path)
    L["generator.load_model_s"] = s.seconds
    os.remove(model_path)
    os.remove(sol_path)


def cost_benches(run: Run, bspec: CostBenchSpec, policy, zero_policy,
                 between=lambda: None, every: int = 0) -> tuple:
    """Learned and zero-policy cost benches with their rollout-layer figures.

    ``between`` runs after the learned bench, outside both benches' spans,
    and every ``every`` rollouts inside each bench, outside the rollout
    times.  Returns the two bench results and the benches' time at
    reference speed (see RolloutClock.bench_seconds).
    """
    tr, L = run.tracer, run.layers
    learned_spec = replace(bspec, stage_cost=tr.timed("systems.stage_cost",
                                                      bspec.stage_cost))
    base_spec = replace(bspec, stage_cost=tr.timed("systems.stage_cost.baseline",
                                                   bspec.stage_cost))
    learned_clock = RolloutClock(tr.timed("hjb.policy", policy), bspec, between, every)
    base_clock = RolloutClock(zero_policy, bspec, between, every)
    with tr.span("evaluation.rollout") as s_roll:
        learned = run_cost_bench(learned_spec, learned_clock)
        learned_clock.stop()
    between()
    with tr.span("evaluation.baseline") as s_base:
        base = run_cost_bench(base_spec, base_clock)
        base_clock.stop()
    roll_s = learned_clock.bench_seconds(s_roll.seconds)
    base_s = base_clock.bench_seconds(s_base.seconds)
    roll_sum = sum(learned_clock.rollout_times() or [s_roll.seconds])
    for name, clock in (("rollout", learned_clock), ("baseline", base_clock)):
        run.params.setdefault(f"{name}_times_s", []).append(clock.rollout_times())
        run.params.setdefault(f"{name}_cal_s", []).append(
            [float(np.median(c)) for c in clock.cal])
    steps = bspec.n_rollouts * int(round(bspec.duration / bspec.sim_dt))
    L["evaluation.rollout_s"] = roll_s
    L["evaluation.baseline_s"] = base_s
    L["dynamics.sim_steps"] = float(steps)
    L["dynamics.sim_step_us"] = base_s / steps * 1e6
    if tr.enabled:
        calls, policy_s = tr.calls["hjb.policy"]
        L["evaluation.policy_calls"] = float(calls)
        L["evaluation.policy_share"] = policy_s / roll_sum
        L["evaluation.stage_cost_share"] = tr.calls["systems.stage_cost"][1] / roll_sum
    for name, res in (("rollout", learned), ("baseline_rollout", base)):
        run.ops(name, res["n_rollouts"], oracles.failed_rollouts(res))
    return learned, base, roll_s + base_s


# -- library workloads: pendulum and cartpole-4000 --------------------------

@dataclass(frozen=True)
class LibraryConfig:
    system: str
    kernel: KernelSpec
    gamma: float
    dt: float
    horizon: int
    rollouts: int
    duration: float
    control_hz: float
    init_lo: tuple
    init_hi: tuple
    queries: int
    design: tuple            # pendulum: grid counts; cartpole: (n_samples,)
    rollout_seed: int | None  # None: the run's seed draws the start states
    swing_up_gate: int | None = None  # pendulum: wins needed out of rollouts


_PENDULUM_BOX = dict(init_lo=(-np.pi, -8.0), init_hi=(np.pi, 8.0))
_CARTPOLE_BOX = dict(init_lo=(0.0, -2.0, -np.pi, -6.0), init_hi=(0.0, 2.0, np.pi, 6.0))

# Criterion-5 settings.  Its 50 start states are the criterion's own design
# (seed 0): on other seeded start sets the swing-up count ranges 38-45 of 50,
# so a per-seed gate at 40 would fail for sampling reasons alone.  The run's
# seed draws the policy-query states.
PENDULUM = {
    "full": LibraryConfig("pendulum", KernelSpec("smoothed-laplace", 25.0), 1e-12,
                          dt=0.02, horizon=500, rollouts=50, duration=5.0,
                          control_hz=50.0, queries=12000, design=(50, 50),
                          rollout_seed=0, swing_up_gate=40, **_PENDULUM_BOX),
    "smoke": LibraryConfig("pendulum", KernelSpec("smoothed-laplace", 25.0), 1e-12,
                           dt=0.02, horizon=20, rollouts=4, duration=1.0,
                           control_hz=50.0, queries=2000, design=(12, 12),
                           rollout_seed=0, **_PENDULUM_BOX),
}

# Criterion-6 data and model with a shortened horizon and fewer rollouts so
# that one run fits the benchmark's time budget.  The run's seed draws the
# Latin-hypercube design, the rollout start states and the query states.
CARTPOLE = {
    "full": LibraryConfig("cartpole", KernelSpec("smoothed-laplace", 15.0), 1e-12,
                          dt=0.01, horizon=200, rollouts=8, duration=10.0,
                          control_hz=200.0, queries=16000, design=(4000,),
                          rollout_seed=None, **_CARTPOLE_BOX),
    "smoke": LibraryConfig("cartpole", KernelSpec("smoothed-laplace", 15.0), 1e-12,
                           dt=0.01, horizon=10, rollouts=2, duration=1.0,
                           control_hz=200.0, queries=2000, design=(300,),
                           rollout_seed=None, **_CARTPOLE_BOX),
}


def library_setup(run: Run, cfg: LibraryConfig) -> dict:
    bench = make_benchmark(cfg.system)
    with run.tracer.span("dynamics.gen") as s:
        if cfg.system == "pendulum":
            grid = pendulum_default_grid(*cfg.design)
            ds = generate_dataset(bench.system, grid, bench.stage_cost)
        else:
            grid = cartpole_default_grid()
            X = grid.sample_states(cfg.design[0], seed=run.seed)
            ds = dataset_from_states(bench.system, X, bench.stage_cost)
    run.layers["dynamics.gen_s"] = s.seconds
    return {"bench": bench, "grid": grid, "ds": ds}


def library_main(run: Run, cfg: LibraryConfig, st: dict) -> None:
    bench, grid, ds = st["bench"], st["grid"], st["ds"]
    tr, pen = run.tracer, bench.pen
    hjb_cfg = HjbConfig(dt=cfg.dt, horizon_steps=cfg.horizon)
    run.params.update(N=ds.n_points, n_x=ds.n_x, n_u=ds.n_u, horizon=cfg.horizon,
                      rollouts=cfg.rollouts, control_hz=cfg.control_hz,
                      rollout_seed=run.seed if cfg.rollout_seed is None
                      else cfg.rollout_seed)

    with tr.span("generator.fit") as s_fit:
        model = fit(ds, cfg.kernel, cfg.gamma, bench.system.epsilon)
    with tr.span("hjb.solve") as s_solve:
        sol = solve_fvp(model, pen, hjb_cfg)
    run.stages["train_s"] = s_fit.seconds + s_solve.seconds
    run.layers["generator.fit_s"] = s_fit.seconds

    def controller(q):
        return smoothed_policy_at(sol, pen, grid.embed_point(q))

    def stage_cost(q):
        return bench.stage_cost(grid.embed_point(q))

    # policy-query blocks run after the solve, then one every few rollouts
    # through both benches and between them, and any left at the end
    Q = _uniform(run.seed, 1, cfg.init_lo, cfg.init_hi, cfg.queries)
    blocks = [Q[i:i + QUERY_BLOCK] for i in range(0, len(Q), QUERY_BLOCK)]

    def next_block():
        if blocks:
            run.query_blocks(controller, blocks.pop(0))

    next_block()
    n_u = bench.sim_system.n_u
    bspec = CostBenchSpec(system=bench.sim_system, stage_cost=stage_cost, pen=pen,
                          init_lo=cfg.init_lo, init_hi=cfg.init_hi,
                          duration=cfg.duration, control_hz=cfg.control_hz,
                          n_rollouts=cfg.rollouts, sim_dt=1e-3,
                          seed=run.params["rollout_seed"])
    learned, base, eval_s = cost_benches(
        run, bspec, controller, lambda q: np.zeros(n_u), between=next_block,
        every=max(1, round(2 * cfg.rollouts / max(1, len(blocks)))))
    run.stages["eval_s"] = eval_s
    while blocks:
        next_block()
    U = run.finish_queries()
    run.finish_workload()

    ratio = learned["mean"] / base["mean"]
    run.accuracy["cost_ratio"] = ratio
    run.accuracy["learned_mean_cost"] = learned["mean"]
    run.accuracy["zero_policy_mean_cost"] = base["mean"]
    finite = all(np.all(np.isfinite(a)) for a in (sol.v0, sol.bv0, learned["costs"],
                                                  base["costs"], U))
    run.check("outputs_finite", finite, "value coefficients, rollout costs and "
              "policy outputs are finite")
    if cfg.system == "pendulum":
        wins = oracles.swing_ups(learned["final_states"])
        run.accuracy["swingup_wins"] = wins
        gate = cfg.swing_up_gate
        run.check("swingup_wins", gate is not None and wins >= gate,
                  f"{wins}/{cfg.rollouts} swing-ups, need >= {gate}",
                  gated=gate is not None)
        run.check("cost_ratio_below_1", ratio < 1.0, f"cost_ratio {ratio:.4g}",
                  gated=run.full)
    else:
        # the known-red criterion 6: reported as measured, never gated
        run.check("cost_ratio_reported", True, f"cost_ratio {ratio:.4g} (not gated)",
                  gated=False)

    if tr.enabled:
        Xq = grid.embed(Q)
        layer_probes(run, ds, model, sol, pen, hjb_cfg, s_solve.seconds, Xq)


# -- linear-cli: the genhjb CLI in-process ----------------------------------

@dataclass(frozen=True)
class CliConfig:
    counts: tuple
    horizon: int
    rmse_points: int
    sweep_values: tuple
    queries: int
    probe_rollouts: int = 2
    probe_duration: float = 2.0


LINEAR_CLI = {
    "full": CliConfig(counts=(30, 30), horizon=1000, rmse_points=2000,
                      sweep_values=(1.0, 2.0, 3.0, 5.0, 8.0), queries=12000),
    "smoke": CliConfig(counts=(10, 10), horizon=100, rmse_points=200,
                       sweep_values=(2.0, 3.0), queries=2000,
                       probe_rollouts=1, probe_duration=0.5),
}

RMSE_BOUND = 0.15   # criterion 2
_LINEAR_A = [[0.0, 1.0], [0.0, 0.0]]
_LINEAR_B = [[0.0], [1.0]]


def linear_cli_config(cfg: CliConfig, out_dir: str) -> dict:
    """A linear-2d experiment (criterion-2 settings) as the CLI reads it."""
    return {
        "system": {"name": "linear-2d", "epsilon": 0.01},
        "cost": {"params": {"q_weight": 1.0, "r_weight": 0.5}},
        "grid": {"bounds": [[-2.0, 2.0], [-2.0, 2.0]], "counts": list(cfg.counts)},
        "kernel": {"family": "squared-exponential", "sigma": 3.0},
        "gamma": 1e-8,
        "dt": 0.01,
        "horizon_steps": cfg.horizon,
        "out_dir": out_dir,
        "eval": {
            "rmse": {"n_points": cfg.rmse_points},
            "sweep": {"variable": "lengthscale", "values": list(cfg.sweep_values),
                      "n_points": 1000},
        },
    }


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(run: Run, span: str, argv: list, expect: int = 0) -> float:
    """One in-process CLI command; a different exit code counts as failed."""
    buf = io.StringIO()
    with run.tracer.span(span) as s, contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    run.params.setdefault("cli_output", []).append(buf.getvalue().strip())
    run.ops("cli_command", 1, 0 if code == expect else 1)
    if code != expect:
        run.checks.append({"name": f"exit:{span}", "ok": False, "gated": True,
                           "detail": f"exit code {code}, expected {expect}"})
    return s.seconds


def linear_cli_setup(run: Run, cfg: CliConfig) -> dict:
    raw = linear_cli_config(cfg, run.workdir)
    path = os.path.join(run.workdir, "experiment.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    argv = ["--config", path, "--seed", str(run.seed)]
    _cli(run, "cli.gen_data", ["gen-data"] + argv)
    return {"raw": raw, "path": path, "argv": argv}


def linear_cli_main(run: Run, cfg: CliConfig, st: dict) -> None:
    tr, raw, argv = run.tracer, st["raw"], st["argv"]
    # the sweep runs its five pipelines one after another: at --jobs nproc
    # two sweep threads each drive a multi-threaded BLAS, and the time
    # measured the scheduler (see README); the traced run times that too
    jobs = 1
    run.params.update(N=cfg.counts[0] * cfg.counts[1], n_x=2, n_u=1,
                      horizon=cfg.horizon, rollouts=0, control_hz=0,
                      sweep_values=list(cfg.sweep_values), sweep_jobs=jobs)
    # the policy-query blocks run on the solution loaded from the archives
    # of the first fit + solve, spread over the run: after each fit + solve,
    # after eval rmse, and the rest after the sweep
    out = run.workdir
    bench = make_benchmark("linear-2d")
    pen = bench.pen
    Q = _uniform(run.seed, 1, [-1.0, -1.0], [1.0, 1.0], cfg.queries)
    blocks = [Q[i:i + QUERY_BLOCK] for i in range(0, len(Q), QUERY_BLOCK)]
    per_point = max(1, len(blocks) // (TRAIN_REPEATS + 2))

    def controller(x):
        return policy_at(sol, pen, x)

    def query_point():
        for _ in range(per_point):
            if blocks:
                run.query_blocks(controller, blocks.pop(0))

    # fit + solve take under 3 s here, so they run TRAIN_REPEATS times and
    # train_s is the median; every repeat must write byte-identical archives
    train, digests = [], set()
    for i in range(TRAIN_REPEATS):
        fit_s = _cli(run, "cli.fit", ["fit"] + argv)
        solve_s = _cli(run, "cli.solve", ["solve"] + argv)
        train.append(fit_s + solve_s)
        digests.add(tuple(_sha256(os.path.join(out, name))
                          for name in ("model.npz", "solution.npz")))
        if i == 0:
            with tr.span("generator.load_model"):
                model, model_meta = load_model(os.path.join(out, "model.npz"))
            with tr.span("hjb.load_solution"):
                sol, sol_meta = load_solution(os.path.join(out, "solution.npz"), model)
        query_point()
    run.stages["train_s"] = float(np.median(train))
    run.params["train_samples_s"] = train
    run.check("archives_byte_stable", len(digests) == 1,
              f"{TRAIN_REPEATS} fit+solve repeats wrote {len(digests)} distinct "
              "model/solution archive pairs")

    rmse_s = _cli(run, "cli.eval_rmse", ["eval", "--mode", "rmse"] + argv)
    query_point()
    sweep_s = _cli(run, "cli.eval_sweep",
                   ["eval", "--mode", "sweep", "--jobs", str(jobs)] + argv)
    run.params["eval_wall_s"] = [rmse_s, sweep_s]
    run.stages["eval_s"] = rmse_s + sweep_s
    while blocks:
        run.query_blocks(controller, blocks.pop(0))
    U = run.finish_queries()
    run.finish_workload()

    # independent Riccati oracle on the query states
    ref = oracles.care_feedback(_LINEAR_A, _LINEAR_B, np.eye(2), [[0.5]],
                                pen.u_min, pen.u_max)
    err = oracles.rmse(U, ref(Q))
    run.accuracy["rmse"] = err
    run.check("rmse_to_care", err <= RMSE_BOUND,
              f"rmse {err:.6g} against the CARE feedback, bound {RMSE_BOUND}",
              gated=run.full)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    run.accuracy["cli_rmse"] = summary["rmse"]
    run.check("cli_rmse_bound", summary["rmse"] <= RMSE_BOUND,
              f"eval --mode rmse reports {summary['rmse']:.6g}", gated=run.full)
    sweep = np.genfromtxt(os.path.join(out, "sweep.csv"), delimiter=",",
                          skip_header=2, ndmin=2)
    run.ops("sweep_pipeline", len(cfg.sweep_values),
            len(cfg.sweep_values) - int(np.count_nonzero(np.isfinite(sweep[:, 2]))))
    run.accuracy["sweep_rmse"] = sweep[:, 2].tolist()

    # config-hash round trip: every artifact carries the hash of this config
    want = oracles.config_hash(raw)
    found = {
        "dataset.csv": oracles.csv_header_hash(os.path.join(out, "dataset.csv")),
        "value_policy.csv": oracles.csv_header_hash(os.path.join(out, "value_policy.csv")),
        "sweep.csv": oracles.csv_header_hash(os.path.join(out, "sweep.csv")),
        "summary.json": summary.get("config_hash"),
        "model.npz": model_meta.get("config_hash"),
        "solution.npz": sol_meta.get("config_hash"),
    }
    bad = sorted(k for k, v in found.items() if v != want)
    run.check("config_hash_round_trip", not bad,
              f"hash {want}; mismatched artifacts: {bad or 'none'}")
    tampered = dict(raw, gamma=2 * raw["gamma"])
    path = os.path.join(out, "tampered.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(tampered, fh)
    _cli(run, "cli.refuse_mismatch", ["solve", "--config", path], expect=2)

    run.accuracy["artifact_bytes"] = {
        name: os.path.getsize(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    if tr.enabled:
        linear_cli_probes(run, cfg, raw, argv, model, sol, pen, bench, Q)


def linear_cli_probes(run: Run, cfg: CliConfig, raw, argv, model, sol, pen, bench,
                      Q) -> None:
    """Layers the CLI runs internally, timed directly at the same size, and
    the sweep on genhjb's thread pool with --jobs nproc."""
    tr, L = run.tracer, run.layers
    jobs = os.cpu_count() or 1
    run.params["sweep_pool_jobs"] = jobs
    run.params["sweep_pool_s"] = _cli(
        run, "cli.eval_sweep_pool", ["eval", "--mode", "sweep", "--jobs", str(jobs)] + argv)
    with tr.span("dynamics.read_dataset"):
        ds, _ = read_dataset(os.path.join(run.workdir, "dataset.csv"))
    grid = StateGridSpec(bounds=tuple(map(tuple, raw["grid"]["bounds"])),
                         counts=tuple(cfg.counts))
    with tr.span("dynamics.gen") as s:
        generate_dataset(bench.system, grid, bench.stage_cost)
    L["dynamics.gen_s"] = s.seconds
    kernel = KernelSpec(raw["kernel"]["family"], raw["kernel"]["sigma"])
    with tr.span("generator.fit") as s:
        direct = fit(ds, kernel, raw["gamma"], raw["system"]["epsilon"])
    L["generator.fit_s"] = s.seconds
    hjb_cfg = HjbConfig(dt=raw["dt"], horizon_steps=cfg.horizon)
    with tr.span("hjb.solve") as s_solve:
        solve_fvp(direct, pen, hjb_cfg)
    bspec = CostBenchSpec(system=bench.sim_system, stage_cost=bench.stage_cost,
                          pen=pen, init_lo=(-1.0, -1.0), init_hi=(1.0, 1.0),
                          duration=cfg.probe_duration, control_hz=50.0,
                          n_rollouts=cfg.probe_rollouts, sim_dt=1e-3, seed=run.seed)
    cost_benches(run, bspec, lambda x: policy_at(sol, pen, x), lambda x: np.zeros(1))
    layer_probes(run, ds, model, sol, pen, hjb_cfg, s_solve.seconds, Q)


@dataclass(frozen=True)
class Workload:
    setup: object
    main: object
    sizes: dict


WORKLOADS = {
    "pendulum": Workload(library_setup, library_main, PENDULUM),
    "cartpole-4000": Workload(library_setup, library_main, CARTPOLE),
    "linear-cli": Workload(linear_cli_setup, linear_cli_main, LINEAR_CLI),
}
