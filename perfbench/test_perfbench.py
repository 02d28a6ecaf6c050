"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run every workload at its smoke size, check the result line against
BENCHMARK.json, and check that the oracle checks fire on broken inputs.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from genhjb import CostBenchSpec, make_benchmark, run_cost_bench  # noqa: E402
from genhjb.cli import ExperimentConfig  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_schema(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for name, m in line["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pendulum", "--seed", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _run(tmp_path):
    return workloads.Run(seed=0, size="smoke", traced=True, workdir=str(tmp_path))


def test_nan_policy_queries_count_as_failed(tmp_path):
    r = _run(tmp_path)
    states = np.zeros((20, 2))
    r.query_blocks(lambda x: np.array([np.nan]), states)
    r.query_blocks(lambda x: np.zeros(1), states)
    r.finish_queries()
    assert (r.attempted, r.failed) == (40, 20)


def test_nan_policy_rollouts_count_as_failed(tmp_path):
    r = _run(tmp_path)
    bench = make_benchmark("linear-2d")
    spec = CostBenchSpec(system=bench.sim_system, stage_cost=bench.stage_cost,
                         pen=bench.pen, init_lo=(-1.0, -1.0), init_hi=(1.0, 1.0),
                         duration=0.1, control_hz=50.0, n_rollouts=3)
    workloads.cost_benches(r, spec, lambda x: np.array([np.nan]),
                           lambda x: np.zeros(1))
    assert r.op_tally["rollout"] == [3, 3]
    assert r.op_tally["baseline_rollout"] == [3, 0]


def test_rollout_clock_times_each_rollout():
    bench = make_benchmark("linear-2d")
    spec = CostBenchSpec(system=bench.sim_system, stage_cost=bench.stage_cost,
                         pen=bench.pen, init_lo=(-1.0, -1.0), init_hi=(1.0, 1.0),
                         duration=0.105, control_hz=50.0, n_rollouts=4)
    between = []
    clock = workloads.RolloutClock(lambda x: np.zeros(1), spec,
                                   lambda: between.append(1), every=2)
    assert clock.calls_per_rollout == 6  # 105 steps, a query every 20
    t0 = time.perf_counter()
    run_cost_bench(spec, clock)
    clock.stop()
    times = clock.rollout_times()
    assert len(times) == 4 and min(times) > 0.0
    assert sum(times) <= time.perf_counter() - t0
    assert len(between) == 1  # at the boundary before rollout 2
    assert len(clock.cal) == 5 and all(len(c) == workloads.CAL_POINT for c in clock.cal)
    assert clock.bench_seconds(1.0) > 0.0
    clock.calls += 1  # a diverged rollout leaves the calls off the count
    assert clock.rollout_times() is None
    cal = sum(clock.cal, [])
    assert clock.bench_seconds(1.0) == calibration.at_reference(1.0, cal, "rollout")


def test_reference_speed_cancels_a_uniform_slowdown():
    cal = [0.004, 0.005, 0.006]
    ref = calibration.REF_S["rollout"]
    assert calibration.at_reference(2.0, cal, "rollout") == pytest.approx(2.0 * ref / 0.005)
    # the same pieces on a machine 1.6 times slower read the same
    fast = calibration.total_at_reference([1.0, 1.2, 1.1], [cal] * 3, "rollout")
    slow = calibration.total_at_reference([1.6, 1.92, 1.76],
                                          [[1.6 * c for c in cal]] * 3, "rollout")
    assert slow == pytest.approx(fast)
    assert fast == pytest.approx(3 * 1.1 * ref / 0.005)


@pytest.mark.parametrize("kind", sorted(calibration.UNITS))
def test_calibration_units_take_milliseconds(kind):
    t = calibration.sample(kind, 3)
    assert len(t) == 3 and all(1e-4 < x < 0.5 for x in t)


def test_rmse_oracle_fires_on_nan_output(tmp_path):
    r = _run(tmp_path)
    ref = oracles.care_feedback(workloads._LINEAR_A, workloads._LINEAR_B,
                                np.eye(2), [[0.5]], [-5.0], [5.0])
    X = np.random.default_rng(0).uniform(-1, 1, size=(50, 2))
    U = ref(X)
    assert oracles.rmse(U, ref(X)) == 0.0
    U[7] = np.nan
    err = oracles.rmse(U, ref(X))
    r.check("rmse_to_care", err <= workloads.RMSE_BOUND, f"rmse {err}")
    assert r.failed == 1 and not r.checks[0]["ok"]


def test_care_feedback_matches_double_integrator_gain():
    # Q = I, R = r = 1/2: the CARE solves by hand to the gain
    # [1 / sqrt r, sqrt((2 sqrt r + 1) / r)] = [sqrt 2, sqrt(2 + 2 sqrt 2)]
    ref = oracles.care_feedback(workloads._LINEAR_A, workloads._LINEAR_B,
                                np.eye(2), [[0.5]], [-50.0], [50.0])
    U = ref(np.eye(2))
    np.testing.assert_allclose(-U[:, 0], [math.sqrt(2.0), math.sqrt(2.0 + 2.0 * math.sqrt(2.0))],
                               rtol=1e-10)


def test_swing_up_count():
    finals = np.array([[0.1, 0.0], [2 * np.pi + 0.05, 0.1], [np.pi, 0.0],
                       [0.0, 1.0], [np.nan, 0.0]])
    assert oracles.swing_ups(finals) == 2


def test_config_hash_matches_cli_and_detects_change(tmp_path):
    raw = workloads.linear_cli_config(workloads.LINEAR_CLI["smoke"], str(tmp_path))
    want = ExperimentConfig(raw).config_hash
    assert oracles.config_hash(raw) == want
    assert oracles.config_hash(dict(raw, out_dir="elsewhere", seed=9)) == want
    assert oracles.config_hash(dict(raw, gamma=2e-8)) != want
    path = tmp_path / "a.csv"
    path.write_text(f"# config_hash={want}\nx\n")
    assert oracles.csv_header_hash(path) == want


def test_self_times_add_up_to_root():
    tr = Tracer(True)
    slow = tr.timed("leaf.call", lambda: sum(range(2000)))
    with tr.span("root") as root:
        with tr.span("a.child"):
            for _ in range(50):
                slow()
        with tr.span("b.child"):
            sum(range(5000))
    self_times = tr.self_times()
    assert sum(self_times.values()) == pytest.approx(root.seconds, rel=1e-9)
    assert tr.calls["leaf.call"][0] == 50
    assert [s["parent"] for s in tr.dump()] == [None, 0, 0]
    assert set(tr.layer_self_times()) == {"root", "a", "b", "leaf"}


def test_untraced_tracer_keeps_nothing():
    tr = Tracer(False)
    fn = lambda: 1  # noqa: E731
    assert tr.timed("x", fn) is fn
    with tr.span("s") as s:
        pass
    assert tr.spans == [] and s.seconds >= 0.0


def test_computed_counts_for_one_channel():
    step = workloads.hjb_step_counts(1000, 1)
    assert step["bytes"] == 5 * 8 * 1000 ** 2  # about 5 N^2 doubles per step
    assert step["flop"] / step["bytes"] == pytest.approx(0.2)
    fc = workloads.fit_counts(1000, 1)
    assert fc["flop"] == pytest.approx((1 / 3 + 4) * 1e9)
