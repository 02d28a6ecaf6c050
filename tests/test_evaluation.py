"""Pipelines, policy accuracy metrics, sweeps, and rollout benchmarks."""
import json
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genhjb import KernelSpec, fit, make_benchmark
from genhjb.dynamics import (ControlAffineSystem, StateGridSpec,
                             generate_dataset)
from genhjb.errors import ConfigError
from genhjb.evaluation import (CostBenchSpec, PipelineSpec, SweepSpec,
                               rmse_to_reference, run_cost_bench,
                               run_pipeline, run_sweep, write_costs_csv,
                               write_summary_json, write_sweep_csv)
from genhjb.hjb import HjbConfig, policy_on, solve_fvp
from genhjb.kernels import BLOCK_ROWS
from genhjb.penalty import symmetric_box_penalty
from genhjb.systems import lqr_feedback

SE1 = KernelSpec("squared-exponential", 1.0)
PEN = symmetric_box_penalty([0.5], 5.0)
# dx = (x + u) dt, q(x) = 1.5 x^2, r(u) = u^2 / 2 on |u| <= 5: feedback -3x
LINEAR_1D = make_benchmark("linear-1d")


def _spec(grid=StateGridSpec(bounds=((-2.0, 2.0),), counts=(40,)), horizon_steps=400,
          gamma=1e-8):
    return PipelineSpec(bench=replace(LINEAR_1D, grid=grid), kernel=SE1, gamma=gamma,
                        hjb=HjbConfig(dt=0.01, horizon_steps=horizon_steps))


def test_rmse_identical_policies_is_zero():
    f = lambda x: -2.0 * x
    assert rmse_to_reference(f, f, [-1.0], [1.0], n_points=50) == 0.0


def test_rmse_constant_offset():
    f = lambda X: np.zeros((len(X), 1))
    g = lambda X: np.full((len(X), 1), 0.1)
    got = rmse_to_reference(f, g, [-1.0], [1.0], n_points=200)
    assert got == pytest.approx(0.1, rel=1e-12)
    assert rmse_to_reference(g, f, [-1.0], [1.0], n_points=200) == got


def test_rmse_vector_channels_combine_in_quadrature():
    f = lambda X: np.tile([0.3, -0.4], (len(X), 1))
    g = lambda X: np.zeros((len(X), 2))
    got = rmse_to_reference(f, g, [-1.0, -1.0], [1.0, 1.0], n_points=64)
    assert got == pytest.approx(0.5, rel=1e-12)


def test_rmse_seed_controls_the_sample():
    f = lambda x: x
    g = lambda x: x * x
    a = rmse_to_reference(f, g, [0.0], [2.0], n_points=30, seed=1)
    b = rmse_to_reference(f, g, [0.0], [2.0], n_points=30, seed=1)
    c = rmse_to_reference(f, g, [0.0], [2.0], n_points=30, seed=2)
    assert a == b
    assert a != c


def test_rmse_validation():
    f = lambda x: x
    g = lambda x: x * x
    with pytest.raises(ValueError):
        rmse_to_reference(f, f, [1.0], [-1.0])
    with pytest.raises(ValueError):
        rmse_to_reference(f, f, [0.0], [1.0], n_points=0)
    with pytest.raises(ValueError):
        rmse_to_reference(f, f, [0.0, 0.0], [1.0])
    with pytest.raises(ConfigError, match="n_points must be an integer"):
        rmse_to_reference(f, f, [0.0], [1.0], n_points=5.5)
    # an integral float is the int it equals, not an untyped TypeError
    assert rmse_to_reference(f, g, [0.0], [1.0], n_points=5.0) \
        == rmse_to_reference(f, g, [0.0], [1.0], n_points=5)


@pytest.mark.parametrize("policy, reference, message", [
    (lambda X: X[:, 0], lambda X: X, r"^policy must map 7 states to a \(7, n_u\) array, "
                                     r"got shape \(7,\)"),
    (lambda X: X, lambda X: X[:1], r"^reference must map 7 states .* got shape \(1, 1\)"),
    (lambda X: X, lambda X: np.zeros((len(X), 2)),
     r"^policy returned shape \(7, 1\) but reference returned \(7, 2\)"),
], ids=["flat-policy", "short-reference", "channel-mismatch"])
def test_rmse_rejects_a_misshapen_batch(policy, reference, message):
    # a flat (M,) output would broadcast against (M, 1) into an (M, M)
    # error matrix and give a wrong rmse without any error
    with pytest.raises(ValueError, match=message):
        rmse_to_reference(policy, reference, [0.0], [1.0], n_points=7)


def _affine(W, b):
    """X -> X W' + b by elementwise terms, so a row's bits do not depend on
    the other rows of its batch."""
    W, b = np.asarray(W), np.asarray(b)
    return lambda X: b + sum(X[:, i:i + 1] * W[:, i] for i in range(W.shape[1]))


@st.composite
def _scoring_cases(draw):
    """Two affine maps with n_u in {1, 2} and a box, on 1 to 3 states."""
    n_x, n_u = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    entries = hnp.arrays(float, (2, n_u, n_x + 1), elements=st.floats(-3.0, 3.0))
    Wb = draw(entries)
    lo = draw(hnp.arrays(float, n_x, elements=st.floats(-3.0, 3.0)))
    width = draw(hnp.arrays(float, n_x, elements=st.floats(0.0, 4.0)))
    maps = [_affine(Wb[k, :, :n_x], Wb[k, :, n_x]) for k in range(2)]
    return maps, lo, lo + width


@pytest.mark.parametrize("n_points", [BLOCK_ROWS, 3 * BLOCK_ROWS, BLOCK_ROWS + 1, 7, 100])
@settings(max_examples=40, deadline=None)
@given(case=_scoring_cases(), seed=st.integers(0, 2**16))
def test_batched_rmse_matches_a_per_point_loop(n_points, case, seed):
    (policy, reference), lo, hi = case
    got = rmse_to_reference(policy, reference, lo, hi, n_points=n_points, seed=seed)
    # the same sample, scored one state at a time
    X = np.random.default_rng(seed).uniform(lo, hi, size=(n_points, lo.size))
    err2 = 0.0
    for x in X:
        d = policy(x[None, :])[0] - reference(x[None, :])[0]
        err2 += float(d @ d)
    assert got == pytest.approx(math.sqrt(err2 / n_points), rel=1e-12, abs=0.0)


def test_scoring_holds_one_block_of_the_cross_kernel_at_a_time():
    # 20 000 states against a 900-point model: the whole cross-kernel matrix
    # would be 144 MB, and scoring holds BLOCK_ROWS of its rows at a time
    bench = make_benchmark("linear-2d")
    sol = run_pipeline(PipelineSpec(bench=bench, kernel=KernelSpec("squared-exponential", 3.0),
                                    gamma=1e-8, hjb=HjbConfig(dt=0.01, horizon_steps=5)))
    assert sol.model.n_points == 900
    policy, reference = partial(policy_on, sol, bench.pen), bench.reference_policy()
    n_points = 20_000
    tracemalloc.start()
    try:
        got = rmse_to_reference(policy, reference, [-1.0, -1.0], [1.0, 1.0],
                                n_points=n_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(got)
    assert peak < 0.05 * 900 * n_points * 8


def test_run_pipeline_matches_manual_composition():
    spec = _spec(horizon_steps=100)
    sol = run_pipeline(spec)
    bench = spec.bench
    ds = generate_dataset(bench.system, bench.grid, bench.stage_cost)
    model = fit(ds, spec.kernel, spec.gamma, bench.system.epsilon)
    ref = solve_fvp(model, bench.pen, HjbConfig(dt=0.01, horizon_steps=100))
    np.testing.assert_array_equal(sol.v0, ref.v0)
    np.testing.assert_array_equal(sol.bv0, ref.bv0)


def test_linear_1d_reference_is_the_riccati_feedback():
    # the sweeps score against the benchmark's LQR feedback, which for this
    # plant is the closed form -3x
    reference = LINEAR_1D.reference_policy()
    for x in np.linspace(-1.0, 1.0, 11):
        np.testing.assert_allclose(reference([x]), [-3.0 * x], rtol=0, atol=1e-14)


def test_lqr_feedback_on_a_batch_equals_its_rows():
    # a three-state, two-input plant whose box clips both channels
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -2.0, 0.5]])
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    reference = lqr_feedback(A, B, np.eye(3), np.eye(2), [-2.0, -3.0], [2.0, 3.0])
    X = np.random.default_rng(1).uniform(-3.0, 3.0, size=(200, 3))
    U = reference(X)
    assert U.shape == (200, 2)
    assert np.any(np.abs(U) == [2.0, 3.0], axis=0).all()
    np.testing.assert_allclose(U, [reference(x) for x in X], rtol=1e-14, atol=1e-14)
    reference = make_benchmark("linear-2d").reference_policy()
    X = X[:, :2]
    np.testing.assert_allclose(reference(X), [reference(x) for x in X],
                               rtol=1e-14, atol=1e-14)


def test_regularization_bias_grows_with_gamma():
    # heavier ridge drags the fitted generator toward zero, so the policy
    # drifts away from the true linear feedback
    reference = lambda x: np.clip(-3.0 * x, -5.0, 5.0)
    err = {}
    for gamma in (1e-8, 1e-2):
        sol = run_pipeline(_spec(gamma=gamma))
        err[gamma] = rmse_to_reference(partial(policy_on, sol, PEN),
                                       reference, [-1.0], [1.0], n_points=300)
    assert err[1e-8] < 0.1
    assert err[1e-2] > 2.0 * err[1e-8]


def test_sweep_spec_validation():
    kw = dict(base=_spec(), values=(1.0,), region_lo=np.array([-1.0]),
              region_hi=np.array([1.0]))
    with pytest.raises(ConfigError):
        SweepSpec(variable="bandwidth", **kw)
    with pytest.raises(ConfigError):
        SweepSpec(base=_spec(), variable="lengthscale", values=(),
                  region_lo=np.array([-1.0]), region_hi=np.array([1.0]))
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(variable="lengthscale", **kw), jobs=0)


def test_sweep_needs_a_benchmark_with_a_reference():
    # the pendulum has no closed-form feedback to score against, which the
    # spec says before any pipeline runs
    base = replace(_spec(), bench=make_benchmark("pendulum"))
    with pytest.raises(ConfigError, match="closed-form reference"):
        SweepSpec(base=base, variable="lengthscale", values=(1.0,),
                  region_lo=-np.ones(3), region_hi=np.ones(3))


@pytest.mark.parametrize("change, message", [
    ({"values": (1.0, "x")}, "must be a number"),
    ({"values": (True, 2.0)}, "must be a number"),
    ({"values": (-1.0,)}, "must be positive"),
    ({"values": (float("inf"),)}, "must be finite"),
    ({"variable": "dataset_size", "values": (25, 2.5)}, "must be an integer"),
    ({"variable": "dataset_size", "values": (0,)}, "must be >= 1"),
    ({"n_points": 0}, "n_points must be >= 1"),
    ({"region_hi": np.array([1.0, 1.0])}, "region_hi must have 1 entries, got 2"),
    ({"region_lo": np.array([2.0])}, "region_lo must not exceed region_hi"),
])
def test_sweep_spec_rejects_what_a_run_would_trip_over(change, message):
    kw = dict(base=_spec(), variable="lengthscale", values=(1.0,),
              region_lo=np.array([-1.0]), region_hi=np.array([1.0]))
    with pytest.raises(ConfigError, match=message):
        SweepSpec(**{**kw, **change})


def test_single_value_sweep_equals_direct_pipeline():
    base = _spec(horizon_steps=200)
    spec = SweepSpec(base=base, variable="lengthscale", values=(0.7,),
                     region_lo=np.array([-1.0]), region_hi=np.array([1.0]),
                     n_points=100, seed=3)
    rows = run_sweep(spec)
    assert len(rows) == 1
    assert rows[0]["value"] == 0.7
    assert rows[0]["n_points"] == 40
    assert rows[0]["error"] is None
    direct = run_pipeline(replace(base, kernel=KernelSpec(
        "squared-exponential", 0.7)))
    want = rmse_to_reference(partial(policy_on, direct, PEN),
                             LINEAR_1D.reference_policy(), [-1.0], [1.0],
                             n_points=100, seed=3)
    assert rows[0]["rmse"] == want


def test_dataset_size_sweep_resizes_the_grid():
    spec = SweepSpec(base=_spec(horizon_steps=50), variable="dataset_size",
                     values=(25, 40), region_lo=np.array([-1.0]),
                     region_hi=np.array([1.0]), n_points=20)
    rows = run_sweep(spec)
    assert [r["n_points"] for r in rows] == [25, 40]
    assert all(r["error"] is None for r in rows)
    assert all(math.isfinite(r["rmse"]) for r in rows)


def test_sweep_failure_becomes_nan_row():
    # a grid collapsed to one repeated point makes the ridge system singular
    bad = _spec(grid=StateGridSpec(bounds=((0.0, 0.0),), counts=(2,)),
                gamma=1e-18)
    spec = SweepSpec(base=bad, variable="lengthscale", values=(1.0,),
                     region_lo=np.array([-1.0]), region_hi=np.array([1.0]),
                     n_points=10)
    row = run_sweep(spec)[0]
    assert math.isnan(row["rmse"])
    assert "ConditioningError" in row["error"]


def test_parallel_sweep_matches_serial():
    spec = SweepSpec(base=_spec(horizon_steps=50), variable="lengthscale",
                     values=(0.5, 1.0, 2.0), region_lo=np.array([-1.0]),
                     region_hi=np.array([1.0]), n_points=20)
    assert run_sweep(spec, jobs=2) == run_sweep(spec, jobs=1)


def _integrator(f=None):
    f = f or (lambda x: [0.0])
    return ControlAffineSystem(
        name="toy", n_x=1, n_u=1, field=lambda x: (f(x), [[1.0]]),
        u_min=[-5.0], u_max=[5.0], epsilon=0.0,
    )


def test_cost_bench_constant_stage_cost():
    # q = 1, zero feedback, zero drift: every rollout costs exactly the
    # duration
    spec = CostBenchSpec(system=_integrator(), stage_cost=lambda x: 1.0,
                         pen=PEN, init_lo=(-1.0,), init_hi=(1.0,),
                         duration=0.5, control_hz=10.0, n_rollouts=4)
    out = run_cost_bench(spec, lambda x: np.zeros(1))
    assert out["costs"].shape == (4,)
    assert out["final_states"].shape == (4, 1)
    np.testing.assert_allclose(out["costs"], 0.5, rtol=1e-12)
    assert out["mean"] == pytest.approx(0.5, rel=1e-12)
    assert out["std"] == pytest.approx(0.0, abs=1e-13)
    assert out["n_excluded"] == 0
    assert out["n_rollouts"] == 4
    assert out["max_abs_input"] == 0.0


def test_cost_bench_deterministic_and_seeded():
    spec = dict(system=_integrator(lambda x: [-x[0]]), stage_cost=lambda x: float(x @ x),
                pen=PEN, init_lo=(-1.0,), init_hi=(1.0,), duration=0.3,
                control_hz=20.0, n_rollouts=3)
    pol = lambda x: np.clip(-x, -5.0, 5.0)
    a = run_cost_bench(CostBenchSpec(**spec), pol)
    b = run_cost_bench(CostBenchSpec(**spec), pol)
    np.testing.assert_array_equal(a["costs"], b["costs"])
    c = run_cost_bench(CostBenchSpec(seed=7, **spec), pol)
    assert not np.array_equal(a["costs"], c["costs"])


def test_cost_bench_policy_queried_at_control_rate():
    calls = []
    def pol(x):
        calls.append(float(x[0]))
        return np.zeros(1)
    spec = CostBenchSpec(system=_integrator(), stage_cost=lambda x: 0.0,
                         pen=PEN, init_lo=(0.0,), init_hi=(0.0,),
                         duration=0.2, control_hz=10.0, n_rollouts=1)
    out = run_cost_bench(spec, pol)
    # 200 substeps at 1 kHz, held over 100-step windows: two queries
    assert len(calls) == 2
    assert out["max_abs_input"] == 0.0


def test_cost_bench_input_respects_simulator_box():
    spec = CostBenchSpec(system=_integrator(), stage_cost=lambda x: 0.0,
                         pen=PEN, init_lo=(1.0,), init_hi=(2.0,),
                         duration=0.1, control_hz=100.0, n_rollouts=2)
    out = run_cost_bench(spec, lambda x: np.array([50.0]))
    assert out["max_abs_input"] <= 5.0 + 1e-12


def test_cost_bench_counts_diverged_rollouts():
    # dx/dt = x^2 from x0 >= 2 escapes in finite time
    blow = ControlAffineSystem(name="blow", n_x=1, n_u=1,
                               field=lambda x: ([x[0] * x[0]], [[1.0]]),
                               u_min=[-1.0], u_max=[1.0], epsilon=0.0)
    spec = CostBenchSpec(system=blow, stage_cost=lambda x: 1.0, pen=None,
                         init_lo=(2.0,), init_hi=(3.0,), duration=2.0,
                         control_hz=10.0, n_rollouts=3)
    out = run_cost_bench(spec, lambda x: np.zeros(1))
    assert out["n_excluded"] == 3
    assert np.all(np.isnan(out["costs"]))
    assert math.isnan(out["mean"])


def test_cost_bench_spec_validation():
    ok = dict(system=_integrator(), stage_cost=lambda x: 0.0, pen=PEN,
              init_lo=(0.0,), init_hi=(1.0,), duration=1.0, control_hz=10.0,
              n_rollouts=2)
    CostBenchSpec(**ok)
    for bad in (dict(init_lo=(0.0, 0.0)), dict(init_hi=(-1.0,)),
                dict(duration=0.0), dict(duration=4e-4), dict(control_hz=0.0),
                dict(sim_dt=0.0),
                dict(n_rollouts=0)):
        with pytest.raises(ValueError):
            CostBenchSpec(**{**ok, **bad})
    with pytest.raises(ConfigError, match="n_rollouts"):
        CostBenchSpec(**{**ok, "n_rollouts": 2.9})
    assert CostBenchSpec(**{**ok, "n_rollouts": 2.0}).n_rollouts == 2


@pytest.mark.parametrize("lo, hi, name", [
    ([np.nan], [1.0], "lo"), ([0.0], [np.inf], "hi"), ([-np.inf], [1.0], "lo"),
], ids=["nan-lo", "inf-hi", "minus-inf-lo"])
def test_nonfinite_box_bound_is_a_config_error(lo, hi, name):
    # a non-finite bound would reach numpy's sampler, which raises an
    # untyped OverflowError for an infinite range
    with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
        rmse_to_reference(lambda x: x, lambda x: x, lo, hi, n_points=5)
    with pytest.raises(ConfigError, match=rf"^init_{name} must be finite"):
        CostBenchSpec(system=_integrator(), stage_cost=lambda x: 0.0, pen=PEN,
                      init_lo=lo, init_hi=hi, duration=1.0, control_hz=10.0,
                      n_rollouts=2)
    with pytest.raises(ConfigError, match=rf"^region_{name} must be finite"):
        SweepSpec(base=_spec(), variable="lengthscale", values=(1.0,),
                  region_lo=np.array(lo), region_hi=np.array(hi))


def test_sweep_csv_format(tmp_path):
    rows = [{"value": 0.5, "n_points": 25, "rmse": 0.125, "error": None},
            {"value": 2.0, "n_points": 25, "rmse": float("nan"),
             "error": "ConditioningError: x"}]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows, config_hash="abcd")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abcd"
    assert lines[1] == "value,n_points,rmse"
    assert lines[2] == "0.5,25,0.125"
    assert lines[3].startswith("2,25,")
    assert math.isnan(float(lines[3].split(",")[2]))


def test_costs_csv_format(tmp_path):
    result = {"costs": np.array([1.5, float("nan")])}
    path = tmp_path / "costs.csv"
    write_costs_csv(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "rollout,cost"
    assert lines[1] == "0,1.5"
    assert lines[2].split(",")[0] == "1"
    assert math.isnan(float(lines[2].split(",")[1]))


def test_summary_json_format(tmp_path):
    path = tmp_path / "summary.json"
    write_summary_json(path, {"b": 2, "a": 1.5, "c": float("nan"), "d": -float("inf")},
                       config_hash="beef")
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text, parse_constant=pytest.fail)  # NaN and Infinity are not JSON
    assert doc == {"a": 1.5, "b": 2, "c": None, "d": None, "config_hash": "beef"}
    assert list(doc) == sorted(doc)
