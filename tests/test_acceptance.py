"""Acceptance gate: seven end-to-end checks against independent oracles.

Each test prints one pass/fail line.  Expected wall times on one desktop
core: under a minute each for 1 through 4 and 7, about half a minute for
the pendulum, and a few minutes for the cartpole run.
"""
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from genhjb import KernelSpec, dataset_from_states, fit, make_benchmark
from genhjb.dynamics import StateGridSpec, generate_dataset, write_dataset
from genhjb.evaluation import (CostBenchSpec, PipelineSpec, SweepSpec,
                               rmse_to_reference, run_cost_bench,
                               run_pipeline, run_sweep)
from genhjb.generator import solve_regularized, target_kernel_matrix
from genhjb.hjb import (HjbConfig, policy_on, smoothed_policy_at, solve_fvp,
                        value_on)
from genhjb.kernels import fd_check_derivatives
from genhjb.penalty import dual_value, symmetric_box_penalty
from genhjb.systems import cartpole_default_grid, linear_1d_system, lqr_feedback

pytestmark = pytest.mark.acceptance

PEN5 = symmetric_box_penalty([0.5], 5.0)


def _linear_1d_base(sigma):
    # dx = (x + u) dt on a 200-point grid over [-2, 2], q = 1.5 x^2, r = u^2/2
    return PipelineSpec(bench=make_benchmark("linear-1d"),
                        kernel=KernelSpec("squared-exponential", sigma),
                        gamma=1e-8, hjb=HjbConfig(dt=0.01, horizon_steps=1000))


def test_criterion_1_linear_1d_tracks_riccati_policy():
    # dx = (x + u) dt, q = 1.5 x^2, r = u^2/2: the stationary HJB gives
    # p^2 - 2p - 3 = 0, p = 3, optimal feedback u*(x) = -3x
    t0 = time.perf_counter()
    sol = run_pipeline(_linear_1d_base(1.0))
    rmse = rmse_to_reference(partial(policy_on, sol, PEN5),
                             lambda X: -3.0 * X, [-1.0], [1.0],
                             n_points=1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rmse <= 0.1
    print(f"criterion 1: {'PASS' if ok else 'FAIL'} rmse={rmse:.6f} "
          f"(bound 0.1, {elapsed:.1f}s)")
    assert ok
    assert elapsed < 60.0


def test_criterion_2_linear_2d_tracks_care_feedback():
    # double integrator, q = |x|^2, r = u^2/2; the continuous-time Riccati
    # equation is solved independently and the gain compared on [-1,1]^2
    t0 = time.perf_counter()
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    reference = lqr_feedback(A, B, np.eye(2), [[0.5]], u_min=[-5.0],
                             u_max=[5.0])
    # linear-2d is that plant on a 30x30 grid over [-2, 2]^2 with |u| <= 5
    spec = PipelineSpec(bench=make_benchmark("linear-2d"),
                        kernel=KernelSpec("squared-exponential", 3.0),
                        gamma=1e-8, hjb=HjbConfig(dt=0.01, horizon_steps=1000))
    sol = run_pipeline(spec)
    rmse = rmse_to_reference(partial(policy_on, sol, PEN5), reference,
                             [-1.0, -1.0], [1.0, 1.0], n_points=2000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rmse <= 0.15
    print(f"criterion 2: {'PASS' if ok else 'FAIL'} rmse={rmse:.6f} "
          f"(bound 0.15, {elapsed:.1f}s)")
    assert ok
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def lengthscale_rows():
    values = tuple(np.geomspace(0.5, 300.0, 5))  # spans 2.8 decades
    # scored against the benchmark's LQR feedback, -3x
    spec = SweepSpec(base=_linear_1d_base(1.0), variable="lengthscale",
                     values=values, region_lo=np.array([-1.0]),
                     region_hi=np.array([1.0]), n_points=2000, seed=0)
    return run_sweep(spec)


def test_criterion_3_lengthscale_sweep_is_u_shaped(lengthscale_rows):
    rows = lengthscale_rows
    rmse = [r["rmse"] for r in rows]
    i = int(np.nanargmin(rmse))
    interior = 0 < i < len(rows) - 1
    left = rmse[0] / rmse[i]
    right = rmse[-1] / rmse[i]
    ok = interior and left >= 5.0 and right >= 5.0
    print(f"criterion 3: {'PASS' if ok else 'FAIL'} argmin sigma="
          f"{rows[i]['value']:.4g} rmse={rmse[i]:.6f} endpoint ratios "
          f"{left:.1f}x / {right:.1f}x (need interior min, >= 5x)")
    assert ok


def test_criterion_4_rmse_is_flat_in_dataset_size(lengthscale_rows):
    best = min((r for r in lengthscale_rows if np.isfinite(r["rmse"])),
               key=lambda r: r["rmse"])
    spec = SweepSpec(
        base=replace(_linear_1d_base(1.0),
                     kernel=KernelSpec("squared-exponential", best["value"])),
        variable="dataset_size", values=(25, 400), region_lo=np.array([-1.0]),
        region_hi=np.array([1.0]), n_points=2000, seed=0)
    rows = run_sweep(spec)
    r25, r400 = rows[0]["rmse"], rows[1]["rmse"]
    ok = r400 <= r25 and r25 <= 3.0 * r400
    print(f"criterion 4: {'PASS' if ok else 'FAIL'} rmse(N=25)={r25:.6f} "
          f"rmse(N=400)={r400:.6f} ratio={r25 / r400:.2f} (need <= 3, "
          f"non-increasing)")
    assert ok


def test_criterion_5_pendulum_swing_up():
    # 50x50 grid on [0.99 pi, 10], smoothed Laplace sigma=25, gamma=1e-12,
    # dt=0.02 for 500 steps; 50 rollouts of 5 s at 50 Hz from [-pi,pi]x[-8,8]
    t0 = time.perf_counter()
    bench = make_benchmark("pendulum")
    spec = PipelineSpec(bench=bench, kernel=KernelSpec("smoothed-laplace", 25.0),
                        gamma=1e-12, hjb=HjbConfig(dt=0.02, horizon_steps=500))
    sol = run_pipeline(spec)
    policy = lambda q: smoothed_policy_at(sol, bench.pen,
                                          bench.grid.embed_point(q))
    stage = lambda q: bench.stage_cost(bench.grid.embed_point(q))
    bspec = CostBenchSpec(
        system=bench.sim_system, stage_cost=stage, pen=bench.pen,
        init_lo=(-np.pi, -8.0), init_hi=(np.pi, 8.0), duration=5.0,
        control_hz=50.0, n_rollouts=50, sim_dt=1e-3, seed=0,
    )
    res = run_cost_bench(bspec, policy)
    base = run_cost_bench(bspec, lambda q: np.zeros(1))
    finals = res["final_states"]
    ang = np.abs(np.arctan2(np.sin(finals[:, 0]), np.cos(finals[:, 0])))
    wins = int(((ang < 0.2) & (np.abs(finals[:, 1]) < 0.5)).sum())
    elapsed = time.perf_counter() - t0
    ok = (wins >= 40 and res["n_excluded"] == 0
          and res["mean"] < base["mean"])
    print(f"criterion 5: {'PASS' if ok else 'FAIL'} success {wins}/50 "
          f"(need >= 40), cost {res['mean']:.1f} vs zero-policy "
          f"{base['mean']:.1f} ({elapsed:.0f}s)")
    assert wins >= 40
    assert res["mean"] < base["mean"]
    assert elapsed < 900.0


def test_criterion_6_cartpole_beats_zero_policy():
    """Known to fail at this dataset scale; kept red on purpose.

    4000 sample points cannot resolve the 5-dimensional embedded cartpole
    well enough: the fitted generator's bias saturates the costate, the
    policy goes bang-bang in the cart channel, and the cart runs away,
    which costs far more than applying no force at all.  Every in-budget
    design tried (tensor grids from 3025 to 3969 points, stratified
    samples at 4000, and an over-budget 5929 run) loses to the zero-force
    baseline by two orders of magnitude, insensitive to the ridge
    parameter.  The test encodes the intended property and documents the
    shortfall honestly rather than loosening the bound.
    """
    # 4000 stratified sample points over [2.5, 3, 0.99 pi, 8], smoothed
    # Laplace sigma=15, gamma=1e-12, dt=0.01 for 3000 steps; 20 rollouts of
    # 10 s at 200 Hz from the [0, 2, pi, 6] box
    t0 = time.perf_counter()
    bench = make_benchmark("cartpole")
    grid = cartpole_default_grid()
    X = grid.sample_states(4000, seed=0)
    ds = dataset_from_states(bench.system, X, bench.stage_cost)
    model = fit(ds, KernelSpec("smoothed-laplace", 15.0), 1e-12, 0.01)
    sol = solve_fvp(model, bench.pen, HjbConfig(dt=0.01, horizon_steps=3000))
    policy = lambda q: smoothed_policy_at(sol, bench.pen, grid.embed_point(q))
    stage = lambda q: bench.stage_cost(grid.embed_point(q))
    bspec = CostBenchSpec(
        system=bench.sim_system, stage_cost=stage, pen=bench.pen,
        init_lo=(0.0, -2.0, -np.pi, -6.0), init_hi=(0.0, 2.0, np.pi, 6.0),
        duration=10.0, control_hz=200.0, n_rollouts=20, sim_dt=1e-3, seed=0,
    )
    res = run_cost_bench(bspec, policy)
    base = run_cost_bench(bspec, lambda q: np.zeros(1))
    elapsed = time.perf_counter() - t0
    ok = res["mean"] < base["mean"]
    print(f"criterion 6: {'PASS' if ok else 'FAIL'} learned mean "
          f"{res['mean']:.1f} vs zero-policy {base['mean']:.1f} over "
          f"{res['n_rollouts']} rollouts, excluded {res['n_excluded']} "
          f"({elapsed:.0f}s)")
    assert ok


def test_criterion_7_module_invariant_spot_checks(tmp_path):
    t0 = time.perf_counter()

    # kernel derivative identities against central differences
    for spec in (KernelSpec("squared-exponential", 1.3),
                 KernelSpec("smoothed-laplace", 2.0)):
        errs = fd_check_derivatives(spec, [0.3, -0.7], [-0.2, 0.5])
        assert errs["grad_rel_err"] <= 1e-5
        assert errs["hess_trace_rel_err"] <= 1e-5

    # generator target matrix hand example at machine precision
    k1 = KernelSpec("squared-exponential", 1.0)
    X = np.array([[0.0], [1.0]])
    got = target_kernel_matrix(k1, X, np.array([[0.0], [1.0]]), 0.0)
    want = np.array([[0.0, 0.0], [-2.0 * np.exp(-1.0), 0.0]])
    np.testing.assert_allclose(got, want, atol=1e-12)

    # dual function against a brute-force grid minimum
    pen = symmetric_box_penalty([0.5], 1.0)
    for lam in (-2.5, -0.4, 0.0, 0.7, 3.0):
        grid = np.linspace(-1.0, 1.0, 10001)
        brute = np.min(0.5 * grid ** 2 + lam * grid)
        assert abs(dual_value(pen, np.array([lam])) - brute) <= 1e-7

    # ridge-regression residual identity on a fitted model
    sys_ = linear_1d_system(a=-1.0, epsilon=0.01)
    gs = StateGridSpec(bounds=((-2.0, 2.0),), counts=(60,))
    ds = generate_dataset(sys_, gs, lambda x: 1.5 * float(x[0]) ** 2)
    model = fit(ds, k1, 1e-6, 0.01)
    kgamma = model.K + 60 * 1e-6 * np.eye(60)
    k0 = target_kernel_matrix(k1, model.X, ds.drift_labels[0], 0.01)
    A_hat = solve_regularized(model, model.A_target)
    assert np.max(np.abs(kgamma @ A_hat - k0)) <= 1e-8

    # semi-implicit two-step recursion against hand-computed iterates; with
    # K = 1 and K_gamma = 2, the stage cost 2.0 is the cost coefficient 1.
    # The steps read the input block as K B-hat = 2; at one point an input
    # map's target is zero, so G is too
    from genhjb.generator import GeneratorModel
    toy = GeneratorModel(
        kernel=k1, X=np.array([[0.0]]), gamma=1.0, epsilon=0.0,
        A_target=np.array([[-1.0]]), G=np.zeros((1, 1, 1)),
        KB_hat=np.array([[[2.0]]]), q=np.array([2.0]),
    )
    sol = solve_fvp(toy, symmetric_box_penalty([0.5], 1.0),
                    HjbConfig(dt=0.1, horizon_steps=2))
    assert sol.v0[0] == pytest.approx(0.18507720548536874, rel=1e-14)

    # byte-stable artifacts under a fixed seed
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(p1, ds, config_hash="00")
    write_dataset(p2, ds, config_hash="00")
    assert p1.read_bytes() == p2.read_bytes()
    s1 = solve_fvp(model, PEN5, HjbConfig(dt=0.02, horizon_steps=100))
    s2 = solve_fvp(model, PEN5, HjbConfig(dt=0.02, horizon_steps=100))
    assert np.array_equal(value_on(s1, model.X), value_on(s2, model.X))

    elapsed = time.perf_counter() - t0
    print(f"criterion 7: PASS kernel FD, target-matrix, dual, residual, "
          f"recursion, determinism spot checks ({elapsed:.1f}s)")
    assert elapsed < 120.0
