"""Backward recursion for the value coefficients, policies, serialization."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from genhjb import KernelSpec, fit, hjb, kernels
from genhjb.dynamics import StateGridSpec, generate_dataset
from genhjb.errors import DivergenceError, StepSizeError
from genhjb.generator import GeneratorModel
from genhjb.hjb import (HjbConfig, HjbSolution, load_solution, policy_at,
                        policy_on, save_solution, smoothed_policy_at,
                        solve_fvp, value_at, value_on, write_value_policy_csv)
from genhjb.penalty import ControlPenalty, symmetric_box_penalty
from genhjb.systems import linear_1d_system

SE1 = KernelSpec("squared-exponential", 1.0)


def _toy_model(a, b=0.0, q=0.0):
    """One-point model with K = 1, gamma = 1 (so K_gamma = 2), the scalar
    blocks A-hat = a, B-hat = b and the cost coefficient q, which puts the
    stage cost K_gamma q at the point."""
    K, kgamma = 1.0, 2.0
    return GeneratorModel(
        kernel=SE1, X=np.array([[0.0]]), gamma=1.0, epsilon=0.0,
        A_target=np.array([[kgamma * a]]), B_hat=np.array([[[float(b)]]]),
        KB_hat=np.array([[[K * b]]]), q=np.array([kgamma * q]),
    )


def _fitted(a=-1.0, gamma=1e-6):
    sys_ = linear_1d_system(a=a, epsilon=0.01)
    grid = StateGridSpec(bounds=((-2.0, 2.0),), counts=(60,))
    ds = generate_dataset(sys_, grid, lambda x: 1.5 * float(x[0]) ** 2)
    return fit(ds, SE1, gamma, 0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        HjbConfig(dt=0.0, horizon_steps=10)
    with pytest.raises(ValueError):
        HjbConfig(dt=0.1, horizon_steps=0)
    with pytest.raises(ValueError, match="horizon_steps must be an integer"):
        HjbConfig(dt=0.1, horizon_steps=1.9)
    assert HjbConfig(dt=0.1, horizon_steps=2.0).horizon_steps == 2
    for flag in (True, np.True_):  # a boolean is not read as 1
        with pytest.raises(ValueError, match="horizon_steps must be an integer"):
            HjbConfig(dt=0.1, horizon_steps=flag)


def test_zero_cost_zero_control_stays_zero():
    model = _toy_model(a=-0.3, b=0.0, q=0.0)
    sol = solve_fvp(model, symmetric_box_penalty([0.5], 1.0),
                    HjbConfig(dt=0.1, horizon_steps=50))
    np.testing.assert_array_equal(sol.v0, [0.0])


def test_single_step_hand_example():
    model = _toy_model(a=0.0, q=1.0)
    sol = solve_fvp(model, None, HjbConfig(dt=0.1, horizon_steps=1))
    assert sol.v0[0] == pytest.approx(0.1, rel=1e-15)


def test_linear_recursion_fixed_point():
    # -v' = -v + 1 has the stationary solution v = 1
    model = _toy_model(a=-1.0, q=1.0)
    sol = solve_fvp(model, None, HjbConfig(dt=0.1, horizon_steps=2000))
    assert sol.v0[0] == pytest.approx(1.0, abs=1e-12)


def test_semi_implicit_two_steps_hand_recursion():
    # K=1, K_gamma=2, A=-0.5, B=2, q=1, r(u)=u^2/2 on [-1,1], dt=0.1;
    # iterates computed by hand: w1 = 0.1/1.05, w2 = (w1 + 0.1(1 + d))/1.05
    # with d = -lam^2/4 after the interior minimization, lam = 2 w1
    model = _toy_model(a=-0.5, b=2.0, q=1.0)
    pen = symmetric_box_penalty([0.5], 1.0)
    w1, w2 = (solve_fvp(model, pen, HjbConfig(dt=0.1, horizon_steps=m)) for m in (1, 2))
    assert w1.v0[0] == pytest.approx(0.09523809523809523, rel=1e-14)
    assert w2.v0[0] == pytest.approx(0.18507720548536874, rel=1e-14)
    assert w2.bv0[0, 0] == pytest.approx(2.0 * w2.v0[0], rel=1e-15)


def test_step_size_error_on_singular_step_matrix():
    model = _toy_model(a=100.0, q=1.0)
    with pytest.raises(StepSizeError):
        solve_fvp(model, None, HjbConfig(dt=0.01, horizon_steps=10))


def test_step_size_error_on_inaccurate_inverse():
    # the points are 100 apart, so K = I exactly; N gamma = 1, so
    # K_gamma = 2 I and K_gamma - dt T_A = 2 S.
    # 2 S passes the pivot check (smallest pivot about 1e-13) but its
    # condition number is about 1e14, so refining the solve of
    # (K_gamma - dt T_A) c = dt K_gamma q corrects c by far more than 1e-6
    dt = 0.1
    S = np.array([[0.1, 0.7], [0.3, 2.1 + 3e-13]])
    model = GeneratorModel(
        kernel=SE1, X=np.array([[0.0], [100.0]]), gamma=0.5, epsilon=0.0,
        A_target=2.0 * (np.eye(2) - S) / dt, B_hat=np.zeros((1, 2, 2)),
        KB_hat=np.zeros((1, 2, 2)), q=np.array([2.0, 6.0]),
    )
    with pytest.raises(StepSizeError, match="ill-conditioned"):
        solve_fvp(model, None, HjbConfig(dt=dt, horizon_steps=3))


def test_step_size_error_on_nonfinite_step_matrix():
    model = _toy_model(a=np.nan, q=1.0)
    with pytest.raises(StepSizeError, match="numerically singular"):
        solve_fvp(model, None, HjbConfig(dt=0.01, horizon_steps=10))


def test_divergence_error_on_unstable_recursion():
    # dt * a = 1.5 puts the implicit multiplier at -2 per step
    model = _toy_model(a=150.0, q=1.0)
    with pytest.raises(DivergenceError):
        solve_fvp(model, None, HjbConfig(dt=0.01, horizon_steps=2500))


def test_control_term_overflow_raises_divergence():
    # lambda = b w overflows at the third step: w2 is about -4.5e297, so
    # b w2 = -inf, the dual is -inf and the iterate is non-finite
    model = _toy_model(a=-0.5, b=1e300, q=1.0)
    with pytest.raises(DivergenceError) as info:
        solve_fvp(model, symmetric_box_penalty([0.5], 1.0),
                  HjbConfig(dt=0.1, horizon_steps=10))
    assert info.value.step == 2


def _imex_oracle(model, pen, dt, steps):
    """The IMEX recursion with dense solves on I - dt A and on K_gamma:
    (I - dt A) w_{m+1} = w_m + dt K_gamma^{-1} (q(X) + D_r(K B_j w_m)),
    with A = K_gamma^{-1} T_A from one more dense solve."""
    N = model.n_points
    Kg = model.K + N * model.gamma * np.eye(N)
    S = np.eye(N) - dt * np.linalg.solve(Kg, model.A_target)
    q = np.linalg.solve(Kg, model.q)
    w = np.zeros(N)
    for _ in range(steps):
        rhs = w + dt * q
        if pen is not None:
            lam = np.stack([model.K @ (B @ w) for B in model.B_hat], axis=1)
            u = np.clip(-lam / (2.0 * pen.weights), pen.u_min, pen.u_max)
            dr = np.sum(pen.weights * u**2 + lam * u, axis=1)
            rhs = rhs + dt * np.linalg.solve(Kg, dr)
        w = np.linalg.solve(S, rhs)
    return w


def _random_two_input_model(N=40, gamma=1e-3, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(N, 2))
    K = kernels.gram_matrix(SE1, X)
    Kg = K + N * gamma * np.eye(N)
    A = -np.eye(N) + 0.3 * rng.standard_normal((N, N)) / np.sqrt(N)
    B = rng.standard_normal((2, N, N)) / np.sqrt(N)
    return GeneratorModel(
        kernel=SE1, X=X, gamma=gamma, epsilon=0.0,
        A_target=Kg @ A, B_hat=B, KB_hat=K @ B, q=Kg @ rng.uniform(0.5, 1.5, N),
    )


@pytest.mark.parametrize("with_penalty", [False, True])
def test_solve_matches_dense_oracle_on_fitted_model(with_penalty):
    model = _fitted()
    pen = symmetric_box_penalty([0.5], 5.0) if with_penalty else None
    sol = solve_fvp(model, pen, HjbConfig(dt=0.02, horizon_steps=100))
    want = _imex_oracle(model, pen, 0.02, 100)
    assert np.max(np.abs(sol.v0 - want)) <= 1e-10 * np.max(np.abs(want))


def test_solve_matches_dense_oracle_with_two_inputs():
    model = _random_two_input_model()
    pen = ControlPenalty(weights=[0.5, 2.0], u_min=[-0.5, -2.0], u_max=[1.0, 0.3])
    sol = solve_fvp(model, pen, HjbConfig(dt=0.05, horizon_steps=60))
    want = _imex_oracle(model, pen, 0.05, 60)
    assert np.max(np.abs(sol.v0 - want)) <= 1e-10 * np.max(np.abs(want))
    np.testing.assert_allclose(sol.bv0, model.B_hat @ sol.v0, rtol=1e-12)
    # both channels reach the box and both are interior somewhere
    U = np.clip(-(model.K @ sol.bv0.T) / (2.0 * pen.weights), pen.u_min, pen.u_max)
    for j in range(2):
        on_box = (U[:, j] == pen.u_min[j]) | (U[:, j] == pen.u_max[j])
        assert on_box.any() and not on_box.all()


@pytest.mark.parametrize("with_penalty", [False, True])
def test_solve_by_small_panels_matches_dense_oracle_on_fitted_model(with_penalty,
                                                                     monkeypatch):
    # 60 points in four panels of 15 rows: every off-diagonal branch runs
    monkeypatch.setattr(hjb, "PANEL_ROWS", 16)
    assert len(hjb._panels(60)) == 4
    test_solve_matches_dense_oracle_on_fitted_model(with_penalty)


def test_solve_by_small_panels_matches_dense_oracle_with_two_inputs(monkeypatch):
    monkeypatch.setattr(hjb, "PANEL_ROWS", 16)
    assert [e - s for s, e in hjb._panels(40)] == [13, 13, 14]
    test_solve_matches_dense_oracle_with_two_inputs()


@pytest.mark.parametrize("N", [1] + [hjb.PANEL_ROWS + d for d in (-1, 0, 1)]
                         + [2 * hjb.PANEL_ROWS + 3])
def test_panel_solve_matches_lu_solve(N):
    # N at and around the panel height, on random nonsymmetric matrices
    # whose partial pivoting swaps rows
    rng = np.random.default_rng(N)
    F = rng.standard_normal((N, N))
    lu_piv = scipy.linalg.lu_factor(F.T)
    assert N == 1 or np.count_nonzero(lu_piv[1] != np.arange(N)) > N // 2
    r = rng.standard_normal(N)
    x = hjb._panel_solver(lu_piv)(r)
    resid = np.linalg.norm(F @ x - r, np.inf) / (
        np.linalg.norm(F, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(r, np.inf))
    assert resid <= 10 * np.finfo(float).eps
    want = scipy.linalg.lu_solve(lu_piv, r, trans=1)
    assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want))


def test_fit_and_solve_hold_four_n_squared_arrays_at_most():
    # the fit peaks at the two targets, B-hat and the Cholesky factor, built
    # in K's own buffer, and the model keeps no factor, only T_A, B-hat and
    # K B-hat; the HJB setup adds F and the copies of
    # its diagonal panel blocks, and the steps only vectors
    sys_ = linear_1d_system(a=-1.0, epsilon=0.01)
    grid = StateGridSpec(bounds=((-2.0, 2.0),), counts=(600,))
    ds = generate_dataset(sys_, grid, lambda x: 1.5 * float(x[0]) ** 2)
    N = ds.n_points
    n2 = 8.0 * N * N
    pen = symmetric_box_penalty([0.5], 5.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = fit(ds, SE1, 1e-6, 0.01)
        held, fit_peak = (m - base for m in tracemalloc.get_traced_memory())
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve_fvp(model, pen, HjbConfig(dt=0.02, horizon_steps=5))
        solve_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fit_peak <= 4.25 * n2
    assert held <= 3.0 * n2 + 8.0 * 64 * N
    blocks = sum((e - s) ** 2 for s, e in hjb._panels(N))
    assert solve_peak <= 8.0 * (N * N + blocks) + 8.0 * 64 * N


def test_penalty_channel_mismatch_rejected():
    model = _fitted()
    with pytest.raises(ValueError):
        solve_fvp(model, symmetric_box_penalty([0.5, 0.5], 1.0),
                  HjbConfig(dt=0.01, horizon_steps=5))


def test_uncontrolled_value_nondecreasing_in_horizon():
    # the solve at horizon m ends on the m-th iterate of any longer solve
    model = _fitted()
    V = [np.zeros(model.n_points)]  # value at the data points per horizon
    for m in range(1, 151):
        V.append(solve_fvp(model, None, HjbConfig(dt=0.02, horizon_steps=m)).v0 @ model.K)
    assert np.min(np.diff(V, axis=0)) >= -1e-10


def test_control_never_increases_value():
    model = _fitted()
    pen = symmetric_box_penalty([0.5], 5.0)
    cfg = HjbConfig(dt=0.02, horizon_steps=150)
    vu = value_on(solve_fvp(model, None, cfg), model.X)
    vc = value_on(solve_fvp(model, pen, cfg), model.X)
    assert np.max(vc - vu) <= 1e-8


def test_step_halving_is_first_order():
    model = _fitted()
    pen = symmetric_box_penalty([0.5], 5.0)
    vals = {}
    for dt, H in ((0.04, 50), (0.02, 100), (0.01, 200)):
        sol = solve_fvp(model, pen, HjbConfig(dt=dt, horizon_steps=H))
        vals[dt] = value_on(sol, model.X)
    ratio = np.mean(np.abs(vals[0.04] - vals[0.02])) \
        / np.mean(np.abs(vals[0.02] - vals[0.01]))
    assert 1.5 <= ratio <= 2.5


def test_solve_is_deterministic():
    model = _fitted()
    pen = symmetric_box_penalty([0.5], 5.0)
    cfg = HjbConfig(dt=0.02, horizon_steps=100)
    s1 = solve_fvp(model, pen, cfg)
    s2 = solve_fvp(model, pen, cfg)
    np.testing.assert_array_equal(s1.v0, s2.v0)
    np.testing.assert_array_equal(s1.bv0, s2.bv0)


def test_value_at_dataset_points_is_gram_product():
    model = _fitted()
    sol = solve_fvp(model, None, HjbConfig(dt=0.02, horizon_steps=50))
    # kernel sections rebuilt at the data points reproduce the Gram rows;
    # the dot with v0 (entries ~1e2) amplifies roundoff, hence 1e-9
    Kv = model.K @ sol.v0
    for i in (0, 17, 59):
        assert value_at(sol, model.X[i]) == pytest.approx(Kv[i], rel=1e-9)
    np.testing.assert_allclose(value_on(sol, model.X), Kv, rtol=1e-9)


def test_value_symmetry_on_even_problem():
    # odd drift, even cost, symmetric grid: the value function is even and
    # the policy odd
    sys_ = linear_1d_system(epsilon=0.01)
    grid = StateGridSpec(bounds=((-2.0, 2.0),), counts=(60,))
    ds = generate_dataset(sys_, grid, lambda x: 1.5 * float(x[0]) ** 2)
    model = fit(ds, SE1, 1e-8, 0.01)
    pen = symmetric_box_penalty([0.5], 5.0)
    sol = solve_fvp(model, pen, HjbConfig(dt=0.01, horizon_steps=1000))
    for x in np.linspace(0.1, 1.5, 8):
        assert value_at(sol, [x]) == pytest.approx(value_at(sol, [-x]), abs=1e-6)
        assert policy_at(sol, pen, [x])[0] == pytest.approx(
            -policy_at(sol, pen, [-x])[0], abs=1e-6)


def test_policy_respects_box_everywhere():
    model = _fitted(a=1.0, gamma=1e-8)
    pen = symmetric_box_penalty([0.5], 0.3)
    sol = solve_fvp(model, pen, HjbConfig(dt=0.01, horizon_steps=300))
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(200, 1))
    U = policy_on(sol, pen, X)
    assert np.all(U >= -0.3) and np.all(U <= 0.3)
    np.testing.assert_allclose(U[:5],
                               np.stack([policy_at(sol, pen, x) for x in X[:5]]))


def test_smoothed_policy_hand_value_and_bounds():
    # raw policy saturated at 1.5 maps to (3/pi) arctan(1.5)
    model = _toy_model(a=0.0, b=1.0, q=0.0)
    pen = symmetric_box_penalty([0.5], 1.5)
    sol = HjbSolution(model=model, config=HjbConfig(dt=0.1, horizon_steps=1),
                      v0=np.zeros(1), bv0=np.array([[-10.0]]))
    assert policy_at(sol, pen, [0.0])[0] == pytest.approx(1.5, rel=1e-15)
    got = smoothed_policy_at(sol, pen, [0.0])[0]
    assert got == pytest.approx(0.9384988745670035, rel=1e-14)
    assert abs(got) < 1.5
    zero = HjbSolution(model=model, config=sol.config, v0=np.zeros(1),
                       bv0=np.zeros((1, 1)))
    assert smoothed_policy_at(zero, pen, [0.0])[0] == 0.0


def test_value_policy_csv_roundtrip(tmp_path):
    model = _fitted()
    pen = symmetric_box_penalty([0.5], 5.0)
    sol = solve_fvp(model, pen, HjbConfig(dt=0.02, horizon_steps=50))
    path = tmp_path / "vp.csv"
    write_value_policy_csv(path, sol, pen, model.X[:7], config_hash="feed")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=feed"
    assert lines[1] == "x_1,v,u_1"
    assert len(lines) == 9
    # 17 significant digits round-trip doubles exactly, so the parsed rows
    # must match a fresh batched evaluation bit for bit
    row = [float(v) for v in lines[2].split(",")]
    assert row[0] == model.X[0, 0]
    assert row[1] == value_on(sol, model.X[:7])[0]
    assert row[2] == policy_on(sol, pen, model.X[:7])[0, 0]


def test_solution_archive_roundtrip(tmp_path):
    model = _fitted()
    pen = symmetric_box_penalty([0.5], 5.0)
    sol = solve_fvp(model, pen, HjbConfig(dt=0.02, horizon_steps=30))
    p1, p2 = tmp_path / "s1.npz", tmp_path / "s2.npz"
    save_solution(p1, sol, config_hash="f00d")
    back, meta = load_solution(p1, model)
    assert meta["config_hash"] == "f00d"
    assert back.config.dt == sol.config.dt
    assert back.config.horizon_steps == sol.config.horizon_steps
    np.testing.assert_array_equal(back.v0, sol.v0)
    np.testing.assert_array_equal(back.bv0, sol.bv0)
    save_solution(p2, back, config_hash="f00d")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("name", ["v0", "bv0"])
def test_load_solution_names_a_missing_or_misshapen_array(tmp_path, name):
    from genhjb.npzio import load_arrays, save_arrays
    model = _fitted()
    sol = solve_fvp(model, symmetric_box_penalty([0.5], 5.0),
                    HjbConfig(dt=0.02, horizon_steps=5))
    save_solution(tmp_path / "s.npz", sol)
    arrays, meta = load_arrays(tmp_path / "s.npz")
    bad = dict(arrays)
    bad[name] = arrays[name][..., :-1]
    save_arrays(tmp_path / "short.npz", bad, meta=meta)
    with pytest.raises(ValueError, match=f"array '{name}' has shape"):
        load_solution(tmp_path / "short.npz", model)
    del bad[name]
    save_arrays(tmp_path / "missing.npz", bad, meta=meta)
    with pytest.raises(ValueError, match=f"no array '{name}'"):
        load_solution(tmp_path / "missing.npz", model)


def test_load_solution_rejects_other_archives(tmp_path):
    from genhjb.npzio import save_arrays
    p = tmp_path / "x.npz"
    save_arrays(p, {"v0": np.zeros(3)}, meta={"kind": "generator-model"})
    with pytest.raises(ValueError):
        load_solution(p, _toy_model(a=0.0))
