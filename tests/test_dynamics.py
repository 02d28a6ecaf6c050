"""Systems, state grids, drift datasets, simulation, and the CSV format."""
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genhjb.dynamics import (BLOWUP_NORM, ControlAffineSystem, StateGridSpec,
                             accumulated_cost,
                             dataset_from_states, drift_under_input,
                             generate_dataset, read_dataset,
                             simulate_closed_loop, write_dataset)
from genhjb.errors import ConfigError, DivergenceError, NumericalDomainError
from genhjb.npzio import write_csv
from genhjb.penalty import symmetric_box_penalty
from genhjb.systems import (cartpole_default_grid, cartpole_systems,
                            linear_1d_system, linear_2d_system, make_benchmark,
                            pendulum_default_grid, pendulum_systems)


def test_drift_under_input_hand_examples():
    sys_ = linear_1d_system()
    assert drift_under_input(sys_, [2.0], [0.0]) == pytest.approx([2.0])
    assert drift_under_input(sys_, [2.0], [-3.0]) == pytest.approx([-1.0])


def test_pendulum_upright_equilibrium():
    sys_, _ = pendulum_systems()
    assert drift_under_input(sys_, [1.0, 0.0, 0.0], [0.0]) == pytest.approx(
        [0.0, 0.0, 0.0])


def test_pendulum_torque_scale():
    # J = I + m lc^2 = 0.3342, so unit torque adds 1/J to the spin rate
    sys_, _ = pendulum_systems()
    d0 = drift_under_input(sys_, [1.0, 0.0, 0.0], [0.0])
    d1 = drift_under_input(sys_, [1.0, 0.0, 0.0], [1.0])
    assert d1[2] - d0[2] == pytest.approx(1.0 / 0.3342, rel=1e-12)


def test_embedded_and_intrinsic_pendulum_agree():
    sysE, sysI = pendulum_systems()
    rng = np.random.default_rng(0)
    for _ in range(50):
        th, w = rng.uniform(-np.pi, np.pi), rng.uniform(-8, 8)
        u = rng.uniform(-1.5, 1.5, size=1)
        dE = drift_under_input(sysE, [np.cos(th), np.sin(th), w], u)
        dI = drift_under_input(sysI, [th, w], u)
        assert dE[2] == pytest.approx(dI[1], rel=1e-12)
        # chain rule on the embedding: d/dt cos = -sin * w
        assert dE[0] == pytest.approx(-np.sin(th) * w, rel=1e-12, abs=1e-15)
        assert dE[1] == pytest.approx(np.cos(th) * w, rel=1e-12, abs=1e-15)


def test_embedded_and_intrinsic_cartpole_agree():
    sysE, sysI = cartpole_systems()
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, v, th, w = rng.uniform(-2, 2, size=4) * [1.0, 1.5, 1.5, 4.0]
        u = rng.uniform(-7, 7, size=1)
        dE = drift_under_input(sysE, [p, v, np.cos(th), np.sin(th), w], u)
        dI = drift_under_input(sysI, [p, v, th, w], u)
        assert dE[1] == pytest.approx(dI[1], rel=1e-12)
        assert dE[4] == pytest.approx(dI[3], rel=1e-12)


def test_pendulum_matches_hand_formula():
    # J omega' = u - b omega + m g lc sin(theta), J = I + m lc^2, lc = l / 2,
    # written out here independently of systems.py
    m, g, l, b, inertia = 1.3, 9.7, 0.8, 0.2, 0.05
    J = inertia + m * (l / 2) ** 2
    params = dict(mass=m, gravity=g, length=l, damping=b, inertia=inertia)
    sysE, sysI = pendulum_systems(**params)
    rng = np.random.default_rng(11)
    for th, w, u in rng.uniform(-1, 1, size=(200, 3)) * [np.pi, 9.0, 2.0]:
        want = (u - b * w + m * g * (l / 2) * np.sin(th)) / J
        dE = drift_under_input(sysE, [np.cos(th), np.sin(th), w], [u])
        dI = drift_under_input(sysI, [th, w], [u])
        assert dE[2] == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert dI == pytest.approx([w, want], rel=1e-12, abs=1e-12)


def test_cartpole_matches_mass_matrix_solve():
    # the 2x2 system in cartpole_systems's docstring, solved by LAPACK
    M, m, l, k, b, g, inertia = 0.9, 0.3, 1.2, 0.1, 0.02, 9.8, 0.04
    lc = l / 2
    params = dict(cart_mass=M, pole_mass=m, length=l, cart_damping=k,
                  rot_damping=b, gravity=g, inertia=inertia)
    sysE, sysI = cartpole_systems(**params)
    rng = np.random.default_rng(12)
    for p, v, th, w, u in rng.uniform(-1, 1, size=(200, 5)) * [2, 3, np.pi, 8, 7]:
        c, s = np.cos(th), np.sin(th)
        mass = np.array([[M + m, m * lc * c], [m * lc * c, inertia + m * lc**2]])
        # right-hand sides: the zero-force terms, then a unit force on the cart
        rhs = np.array([[m * lc * s * w**2 - k * v, 1.0], [m * g * lc * s - b * w, 0.0]])
        (acc_p, g_p), (acc_w, g_w) = np.linalg.solve(mass, rhs)
        fE, GE = sysE.field([p, v, c, s, w])
        fI, GI = sysI.field([p, v, th, w])
        assert fE == pytest.approx([v, acc_p, -s * w, c * w, acc_w], rel=1e-10, abs=1e-12)
        assert fI == pytest.approx([v, acc_p, w, acc_w], rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(GE, [[0.0], [g_p], [0.0], [0.0], [g_w]], rtol=1e-10)
        np.testing.assert_allclose(GI, [[0.0], [g_p], [0.0], [g_w]], rtol=1e-10)
        dI = drift_under_input(sysI, [p, v, th, w], [u])
        assert dI == pytest.approx([v, acc_p + g_p * u, w, acc_w + g_w * u], rel=1e-10,
                                   abs=1e-12)


def _chain_rule_image(grid, x, f):
    """The rows of f, a tangent in intrinsic coordinates, carried to the
    embedded state x = grid.embed(q): d/dt (cos t, sin t) = (-sin t, cos t) t'."""
    rows, k = [], 0
    for d in range(grid.n_intrinsic):
        if d in grid.angle_dims:
            rows += [-x[k + 1] * f[d], x[k] * f[d]]
            k += 2
        else:
            rows.append(f[d])
            k += 1
    return np.array(rows)


def _assert_twins_are_one_plant(sysE, sysI, grid, q):
    x = grid.embed(q)
    (fE, GE), (fI, GI) = sysE.field(x), sysI.field(q)
    np.testing.assert_array_equal(fE, _chain_rule_image(grid, x, fI))
    np.testing.assert_array_equal(GE, _chain_rule_image(grid, x, np.asarray(GI)))
    assert sysE.epsilon == sysI.epsilon and sysE.n_u == sysI.n_u
    np.testing.assert_array_equal(sysE.u_min, sysI.u_min)
    np.testing.assert_array_equal(sysE.u_max, sysI.u_max)


def _pos(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(params=st.fixed_dictionaries({
           "epsilon": _pos(0.0, 0.1), "u_max": _pos(0.1, 20.0), "mass": _pos(0.1, 5.0),
           "gravity": _pos(1.0, 20.0), "length": _pos(0.1, 3.0), "damping": _pos(0.0, 1.0),
           "inertia": _pos(1e-3, 1.0)}),
       q=hnp.arrays(float, 2, elements=_pos(-10.0, 10.0)))
def test_pendulum_twins_are_one_plant(params, q):
    _assert_twins_are_one_plant(*pendulum_systems(**params), pendulum_default_grid(), q)


@settings(max_examples=100, deadline=None)
@given(params=st.fixed_dictionaries({
           "epsilon": _pos(0.0, 0.1), "u_max": _pos(0.1, 20.0), "cart_mass": _pos(0.1, 5.0),
           "pole_mass": _pos(0.1, 5.0), "length": _pos(0.1, 3.0),
           "cart_damping": _pos(0.0, 1.0), "rot_damping": _pos(0.0, 1.0),
           "gravity": _pos(1.0, 20.0), "inertia": _pos(1e-3, 1.0)}),
       q=hnp.arrays(float, 4, elements=_pos(-10.0, 10.0)))
def test_cartpole_twins_are_one_plant(params, q):
    _assert_twins_are_one_plant(*cartpole_systems(**params), cartpole_default_grid(), q)


@pytest.mark.parametrize("system_params, cost_params, length", [
    ({"length": 2.0}, {}, 2.0),                      # the plant's own pole
    ({"length": 2.0}, {"length": 1.0}, 1.0),         # cost.params.length wins
    ({}, {}, 1.0),
])
def test_cartpole_cost_measures_the_pole_length(system_params, cost_params, length):
    # q = q_tip (p - l s)^2 + q_upright l^2 (c - 1)^2 + v^2 + w^2 at a tilt of
    # 0.3 rad with the cart at rest at the origin
    bench = make_benchmark("cartpole", system_params=system_params, cost_params=cost_params)
    th = 0.3
    want = 10.0 * (length * np.sin(th)) ** 2 + 100.0 * length**2 * (np.cos(th) - 1.0) ** 2
    x = bench.grid.embed_point([0.0, 0.0, th, 0.0])
    assert bench.stage_cost(x) == pytest.approx(want, rel=1e-13)


def test_grid_points_and_embedding():
    grid = StateGridSpec(bounds=((-1.0, 1.0), (0.0, 2.0)), counts=(3, 2))
    pts = grid.grid_points()
    assert pts.shape == (6, 2)
    np.testing.assert_allclose(pts[0], [-1.0, 0.0])
    np.testing.assert_allclose(pts[-1], [1.0, 2.0])

    ang = StateGridSpec(bounds=((-np.pi, np.pi), (-1.0, 1.0)), counts=(5, 3),
                        angle_dims=(0,))
    assert ang.n_intrinsic == 2 and ang.n_x == 3
    states = ang.states()
    assert states.shape == (15, 3)
    np.testing.assert_allclose(states[:, 0]**2 + states[:, 1]**2, 1.0, atol=1e-14)
    np.testing.assert_allclose(ang.embed_point([0.0, 0.5]), [1.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        ang.embed_point([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        ang.embed_point([[0.0, 0.5]])
    with pytest.raises(ValueError):
        ang.embed(np.zeros((1, 1, 2)))


def test_grid_validation():
    with pytest.raises(ValueError):
        StateGridSpec(bounds=((0.0, -1.0),), counts=(3,))
    with pytest.raises(ValueError):
        StateGridSpec(bounds=((0.0, 1.0),), counts=(0,))
    with pytest.raises(ValueError):
        StateGridSpec(bounds=((0.0, 1.0),), counts=(3, 3))
    with pytest.raises(ValueError):
        StateGridSpec(bounds=((0.0, 1.0),), counts=(3,), angle_dims=(1,))
    # a fractional count or angle index is refused, not truncated
    with pytest.raises(ValueError, match="grid counts"):
        StateGridSpec(bounds=((0.0, 1.0),), counts=(30.7,))
    with pytest.raises(ValueError, match="angle_dims"):
        StateGridSpec(bounds=((0.0, 1.0), (0.0, 1.0)), counts=(3, 3),
                      angle_dims=(0.5,))
    assert StateGridSpec(bounds=((0.0, 1.0),), counts=(3.0,)).counts == (3,)


def test_sample_states_latin_hypercube():
    grid = StateGridSpec(bounds=((-2.0, 2.0), (-np.pi, np.pi), (0.0, 4.0)),
                         counts=(5, 5, 5), angle_dims=(1,))
    S = grid.sample_states(128, seed=3)
    assert S.shape == (128, 4)
    # angle pair stays on the circle, other axes stay inside their bounds
    np.testing.assert_allclose(S[:, 1]**2 + S[:, 2]**2, 1.0, atol=1e-14)
    assert S[:, 0].min() >= -2.0 and S[:, 0].max() <= 2.0
    assert S[:, 3].min() >= 0.0 and S[:, 3].max() <= 4.0
    # one point per stratum along each intrinsic axis
    strata = np.floor((S[:, 0] + 2.0) / 4.0 * 128).astype(int)
    assert len(set(np.clip(strata, 0, 127))) == 128


def _scipy_lhs_states(grid, n, seed):
    """scipy's Latin hypercube draw mapped to the grid's box and embedded."""
    import scipy.stats  # here only: the package itself must not load it

    unit = scipy.stats.qmc.LatinHypercube(d=grid.n_intrinsic, seed=seed).random(n)
    lo, hi = np.array(grid.bounds).T
    return grid.embed(lo + unit * (hi - lo))


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 128, 4000])
def test_sample_states_is_scipys_latin_hypercube(d, n):
    grid = StateGridSpec(bounds=[(-1.0 - k, 2.0 + 0.5 * k) for k in range(d)],
                         counts=(3,) * d)
    for seed in (0, 1, 3, 101):
        ours = grid.sample_states(n, seed=seed)
        assert ours.tobytes() == _scipy_lhs_states(grid, n, seed).tobytes()


def test_criterion_6_design_is_scipys_latin_hypercube():
    grid = cartpole_default_grid()
    ours = grid.sample_states(4000, seed=0)
    assert ours.shape == (4000, 5)
    assert ours.tobytes() == _scipy_lhs_states(grid, 4000, 0).tobytes()


@pytest.mark.parametrize("n", [2.5, True, 0])
def test_sample_states_count_must_be_a_positive_integer(n):
    # a fraction is not truncated, and a boolean is not one point
    grid = StateGridSpec(bounds=((0.0, 1.0),), counts=(3,))
    with pytest.raises(ConfigError, match="^n must be"):
        grid.sample_states(n)


def test_generate_dataset_hand_example():
    sys_ = linear_1d_system()
    grid = StateGridSpec(bounds=((-1.0, 1.0),), counts=(3,))
    ds = generate_dataset(sys_, grid, lambda x: float(x[0]) ** 2)
    np.testing.assert_allclose(ds.X[:, 0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(ds.drift_labels[0][:, 0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(ds.drift_labels[1][:, 0], [0.0, 1.0, 2.0])
    np.testing.assert_allclose(ds.q, [1.0, 0.0, 1.0])
    assert ds.n_points == 3 and ds.n_u == 1 and ds.n_x == 1


def test_single_point_dataset():
    sys_ = linear_1d_system()
    grid = StateGridSpec(bounds=((0.5, 0.5),), counts=(1,))
    ds = generate_dataset(sys_, grid, lambda x: 5.0)
    assert ds.n_points == 1
    np.testing.assert_allclose(ds.q, [5.0])


def test_generate_dataset_rejects_mismatched_grid():
    sys_ = linear_2d_system()
    grid = StateGridSpec(bounds=((-1.0, 1.0),), counts=(3,))
    with pytest.raises(ValueError):
        generate_dataset(sys_, grid, lambda x: 0.0)


def test_channel_differences_recover_input_map_columns():
    benches = [make_benchmark(n) for n in
               ("linear-1d", "linear-2d", "pendulum", "cartpole")]
    for bench in benches:
        X = bench.grid.states()[::97]
        ds = dataset_from_states(bench.system, X, bench.stage_cost)
        for j in range(bench.system.n_u):
            cols = np.stack([np.asarray(bench.system.field(x)[1])[:, j] for x in X])
            np.testing.assert_allclose(ds.drift_labels[j + 1] - ds.drift_labels[0],
                                       cols, rtol=1e-12, atol=1e-13)


def _two_input_system():
    return ControlAffineSystem(
        name="two-input", n_x=2, n_u=2,
        field=lambda x: ([x[1], -math.sin(x[0]) - 0.3 * x[1]],
                         [[1.0, x[1]], [math.cos(x[0]), 2.0]]),
        u_min=np.array([-1.0, -2.0]), u_max=np.array([1.0, 2.0]), epsilon=0.0)


def test_dataset_labels_are_per_point_drift_under_input():
    pend, cart, lin = (make_benchmark(n) for n in ("pendulum", "cartpole", "linear-2d"))
    designs = [
        (pend.system, pend.grid.states(), pend.stage_cost),
        (cart.system, cart.grid.sample_states(500, seed=1), cart.stage_cost),
        (lin.system, lin.grid.states(), lin.stage_cost),
        (_two_input_system(), np.random.default_rng(0).uniform(-2.0, 2.0, (200, 2)),
         lambda x: float(x @ x)),
    ]
    for system, X, stage_cost in designs:
        ds = dataset_from_states(system, X, stage_cost)
        units = [np.zeros(system.n_u)] + list(np.eye(system.n_u))
        labels = np.array([[drift_under_input(system, x, u) for x in X] for u in units])
        q = np.array([float(stage_cost(x)) for x in X])
        assert ds.drift_labels.tobytes() == labels.tobytes(), system.name
        assert ds.q.tobytes() == q.tobytes(), system.name


def test_non_finite_drift_label_names_its_point():
    sys_ = linear_2d_system(epsilon=0.0)
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 2))

    def field(x):
        f, G = sys_.field(x)
        bad = np.nan if np.array_equal(x, X[7]) else 0.0
        return [f_i + bad for f_i in f], G

    broken = replace(sys_, field=field)
    with pytest.raises(NumericalDomainError, match="drift label at grid point 7$") as err:
        dataset_from_states(broken, X, lambda x: 0.0)
    assert err.value.where.tobytes() == X[7].tobytes()


def test_non_finite_stage_cost_names_its_point():
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 2))
    cost = lambda x: np.inf if np.array_equal(x, X[12]) else 1.0  # noqa: E731
    with pytest.raises(NumericalDomainError, match="stage cost at grid point 12$") as err:
        dataset_from_states(linear_2d_system(), X, cost)
    assert err.value.where.tobytes() == X[12].tobytes()


def test_simulation_hand_example_and_determinism():
    sys_ = linear_1d_system(epsilon=0.0)
    states, inputs = simulate_closed_loop(sys_, lambda x: np.zeros(1),
                                          [1.0], dt=0.1, steps=1, noise=False)
    assert states[1, 0] == pytest.approx(1.1, rel=1e-15)
    assert inputs.shape == (1, 1)

    noisy = linear_1d_system(epsilon=0.05)
    s1, _ = simulate_closed_loop(noisy, lambda x: np.zeros(1), [1.0],
                                 dt=0.01, steps=100, seed=42, noise=True)
    s2, _ = simulate_closed_loop(noisy, lambda x: np.zeros(1), [1.0],
                                 dt=0.01, steps=100, seed=42, noise=True)
    np.testing.assert_array_equal(s1, s2)
    s3, _ = simulate_closed_loop(noisy, lambda x: np.zeros(1), [1.0],
                                 dt=0.01, steps=100, seed=43, noise=True)
    assert not np.array_equal(s1, s3)


def test_constant_trajectory_without_drift_or_noise():
    sys_ = linear_1d_system(a=0.0, epsilon=0.0)
    states, _ = simulate_closed_loop(sys_, lambda x: np.zeros(1), [0.7],
                                     dt=0.1, steps=20, noise=False)
    np.testing.assert_allclose(states[:, 0], 0.7)


def test_simulation_matches_linear_closed_form():
    # global Euler error on dx = x dt is O(dt): about 0.013 at dt = 0.01 and
    # halving with dt
    sys_ = linear_1d_system(epsilon=0.0)
    errs = []
    for dt in (1e-2, 5e-3):
        steps = int(round(1.0 / dt))
        states, _ = simulate_closed_loop(sys_, lambda x: np.zeros(1), [1.0],
                                         dt=dt, steps=steps, noise=False)
        errs.append(abs(states[-1, 0] - np.e))
    assert errs[0] < 0.02
    assert 1.5 <= errs[0] / errs[1] <= 2.5


def test_simulation_clips_inputs_to_box():
    sys_ = linear_1d_system(u_max=0.5, epsilon=0.0)
    _, inputs = simulate_closed_loop(sys_, lambda x: np.array([10.0]), [0.0],
                                     dt=0.01, steps=10, noise=False)
    np.testing.assert_allclose(inputs, 0.5)


def test_zero_order_hold_interval():
    sys_ = linear_1d_system(epsilon=0.0)
    calls = []
    def policy(x):
        calls.append(float(x[0]))
        return np.zeros(1)
    simulate_closed_loop(sys_, policy, [1.0], dt=0.01, steps=10, noise=False,
                         control_interval=5)
    assert len(calls) == 2


def test_simulation_divergence_error():
    # zero input on dx = a x dt: x_k = (1 + a dt)^k x0, so the first state
    # past BLOWUP_NORM is x_first, produced by step first - 1
    a, dt, x0 = 100.0, 0.1, -0.7
    sys_ = linear_1d_system(a=a, epsilon=0.0)
    growth = 1.0 + a * dt
    first = next(k for k in range(1, 100) if growth**k * abs(x0) > BLOWUP_NORM)
    with pytest.raises(DivergenceError) as exc:
        simulate_closed_loop(sys_, lambda x: np.zeros(1), [x0], dt=dt,
                             steps=500, noise=False)
    assert exc.value.step == first - 1
    states, _ = simulate_closed_loop(sys_, lambda x: np.zeros(1), [x0], dt=dt,
                                     steps=first - 1, noise=False)
    np.testing.assert_allclose(states[:, 0], x0 * growth ** np.arange(first),
                               rtol=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_drift_diverges_at_its_step(bad):
    # a unit drift from 0 with dt = 1 visits x_k = k; the drift turns
    # non-finite at x = 3, so step 3 produces the first bad state
    sys_ = ControlAffineSystem(
        name="ramp", n_x=1, n_u=1,
        field=lambda x: ([bad if x[0] >= 3.0 else 1.0], [[1.0]]), u_min=[-1.0], u_max=[1.0],
        epsilon=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as exc:
            simulate_closed_loop(sys_, lambda x: np.zeros(1), [0.0], dt=1.0,
                                 steps=10, noise=False)
    assert exc.value.step == 3


def _misshapen(field):
    return ControlAffineSystem(name="misshapen", n_x=2, n_u=1, field=field, u_min=[-1.0],
                               u_max=[1.0], epsilon=0.0)


def _plant_2x1(drift, input_map):
    return _misshapen(lambda x: (drift(x), input_map(x)))


@pytest.mark.parametrize("drift, returned", [
    (lambda x: [x[0]], 1),
    (lambda x: [x[0], x[1], 0.0], 3),
], ids=["short", "long"])
def test_simulation_checks_the_drift_length(drift, returned):
    sys_ = _plant_2x1(drift, lambda x: [[0.0], [1.0]])
    with pytest.raises(ValueError, match=rf"^plant 'misshapen': drift returned {returned} "
                                         r"entries, expected 2$"):
        simulate_closed_loop(sys_, lambda x: np.zeros(1), [0.1, 0.2], dt=0.01, steps=3)


@pytest.mark.parametrize("input_map, rows", [
    (lambda x: [[1.0]], [1]),
    (lambda x: [[0.0], [1.0], [1.0]], [1, 1, 1]),
    (lambda x: [[0.0], [1.0, 2.0]], [1, 2]),
    (lambda x: [[0.0], []], [1, 0]),
], ids=["few-rows", "many-rows", "long-row", "empty-row"])
def test_simulation_checks_the_input_map_shape(input_map, rows):
    sys_ = _plant_2x1(lambda x: [x[1], 0.0], input_map)
    with pytest.raises(ValueError, match=rf"^plant 'misshapen': input_map returned rows of "
                                         rf"lengths \[{', '.join(map(str, rows))}\], "
                                         r"expected 2 rows of 1$"):
        simulate_closed_loop(sys_, lambda x: np.zeros(1), [0.1, 0.2], dt=0.01, steps=3)


@pytest.mark.parametrize("drift, input_map, message", [
    (lambda x: [x[0]], lambda x: [[1.0]], "drift returned 1 entries, expected 2"),
    (lambda x: [x[1], 0.0], lambda x: [[1.0]],
     r"input_map returned rows of lengths \[1\], expected 2 rows of 1"),
    (lambda x: [x[1], 0.0], lambda x: [[0.0], [1.0, 2.0]],
     r"input_map returned rows of lengths \[1, 2\], expected 2 rows of 1"),
], ids=["short-drift", "few-rows", "long-row"])
def test_drift_labels_check_the_plant_shape(drift, input_map, message):
    # numpy would broadcast a short drift or a one-row input map across the
    # state, so the labels of a misshapen plant would look well formed
    sys_ = _plant_2x1(drift, input_map)
    with pytest.raises(ValueError, match=rf"^plant 'misshapen': {message}$"):
        dataset_from_states(sys_, [[0.5, 0.5], [1.0, 1.0]], lambda x: 0.0)
    with pytest.raises(ValueError, match=rf"^plant 'misshapen': {message}$"):
        drift_under_input(sys_, [0.5, 0.5], [0.0])


@pytest.mark.parametrize("drift, input_map", [
    (lambda x: [x[1], 0.0], lambda x: [0.0, 1.0]),
    (lambda x: 0.0, lambda x: [[0.0], [1.0]]),
    (lambda x: [x[1], 0.0], lambda x: 1.0),
], ids=["flat-input-map", "scalar-drift", "scalar-input-map"])
def test_a_float_in_place_of_a_list_names_the_plant(drift, input_map):
    # len() of a float raised an untyped TypeError
    sys_ = _plant_2x1(drift, input_map)
    message = r"^plant 'misshapen': drift must return 2 floats and input_map 2 rows of 1"
    with pytest.raises(ValueError, match=message):
        simulate_closed_loop(sys_, lambda x: np.zeros(1), [0.1, 0.2], dt=0.01, steps=3)
    with pytest.raises(ValueError, match=message):
        dataset_from_states(sys_, [[0.5, 0.5]], lambda x: 0.0)
    with pytest.raises(ValueError, match=message):
        drift_under_input(sys_, [0.5, 0.5], [0.0])


@pytest.mark.parametrize("out", [
    [0.5, 0.0],
    ([0.5, 0.0], [[0.0], [1.0]], [0.0]),
    0.5,
    None,
], ids=["bare-drift", "triple", "float", "none"])
def test_a_field_that_returns_no_pair_names_the_plant(out):
    # f and G come from one callable; a bare drift list of n_x entries would
    # unpack as the pair (x_1, x_2) and fail later with a misleading message
    message = (r"^plant 'misshapen': field must return the pair \(drift, input_map\), "
               rf"got {re.escape(repr(out))}$")
    sys_ = _misshapen(lambda x: out)
    with pytest.raises(ValueError, match=message):
        simulate_closed_loop(sys_, lambda x: np.zeros(1), [0.1, 0.2], dt=0.01, steps=3)
    with pytest.raises(ValueError, match=message):
        drift_under_input(sys_, [0.5, 0.5], [0.0])
    # well formed at the first state, not at the second
    sys_ = _misshapen(lambda x: ([x[1], 0.0], [[0.0], [1.0]]) if x[0] < 1.0 else out)
    with pytest.raises(ValueError, match=message):
        dataset_from_states(sys_, [[0.5, 0.5], [1.0, 1.0]], lambda x: 0.0)


def test_a_rollout_reads_the_field_once_per_step():
    calls = []

    def field(x):
        calls.append(x)
        return [x[1], 0.0], [[0.0], [1.0]]

    simulate_closed_loop(_misshapen(field), lambda x: np.zeros(1), [0.1, 0.2], dt=0.01,
                         steps=5)
    assert len(calls) == 5
    calls.clear()
    dataset_from_states(_misshapen(field), [[0.5, 0.5], [1.0, 1.0]], lambda x: 0.0)
    assert len(calls) == 2


def test_drift_labels_check_the_plant_shape_at_every_state():
    sys_ = _plant_2x1(lambda x: [x[1], 0.0] if x[0] < 1.0 else [x[1]],
                      lambda x: [[0.0], [1.0]])
    assert dataset_from_states(sys_, [[0.5, 0.5]], lambda x: 0.0).n_points == 1
    with pytest.raises(ValueError, match="drift returned 1 entries"):
        dataset_from_states(sys_, [[0.5, 0.5], [1.0, 1.0]], lambda x: 0.0)


def test_two_input_rollout_matches_numpy_euler():
    # With two channels the float step sums G_i0 u_0 + G_i1 u_1 in order,
    # where a matmul may sum in another order: equal to rounding, not bitwise
    sys_ = _two_input_system()
    dt, steps, interval, x0 = 1e-3, 20000, 10, [2.0, -1.0]

    def feedback(x):
        return np.array([-2.0 * x[0] - x[1] + 0.5, 1.5 * x[0] - 3.0 * x[1] + 0.5])

    states, inputs = simulate_closed_loop(sys_, feedback, x0, dt, steps, noise=False,
                                          control_interval=interval)
    x = np.array(x0)
    want_states, want_inputs = [x], []
    for k in range(steps):
        if k % interval == 0:
            u = np.clip(feedback(x), sys_.u_min, sys_.u_max)
        want_inputs.append(u)
        f = np.array([x[1], -np.sin(x[0]) - 0.3 * x[1]])
        G = np.array([[1.0, x[1]], [np.cos(x[0]), 2.0]])
        x = x + dt * (f + G @ u)
        want_states.append(x)
    assert np.all(np.abs(inputs) == sys_.u_max, axis=1).any()    # both channels saturate
    np.testing.assert_allclose(states, want_states, rtol=1e-12)
    np.testing.assert_allclose(inputs, want_inputs, rtol=1e-12)


def test_euler_step_keeps_the_signed_zeros_of_the_array_formula():
    # from (-0, -0) under u = -1, G u's first entry is 0 * -1; a matmul sums
    # it from +0.0, so the first step lands on +0.0, not -0.0
    sys_ = linear_2d_system(epsilon=0.0)
    states, _ = simulate_closed_loop(sys_, lambda x: np.array([-1.0]), [-0.0, -0.0],
                                     dt=1e-3, steps=3, noise=False)
    x, want = np.array([-0.0, -0.0]), [np.array([-0.0, -0.0])]
    A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
    for _ in range(3):
        x = x + 1e-3 * (A @ x + B @ np.array([-1.0]))
        want.append(x)
    assert states.tobytes() == np.array(want).tobytes()


def test_simulation_rejects_fractional_counts():
    sys_ = linear_1d_system(epsilon=0.0)

    def run(**kw):
        return simulate_closed_loop(sys_, lambda x: np.zeros(1), [1.0],
                                    dt=0.01, noise=False, **kw)

    with pytest.raises(ConfigError, match="control_interval"):
        run(steps=10, control_interval=2.5)
    with pytest.raises(ConfigError, match="steps"):
        run(steps=10.5)
    # an integral float is the same count
    np.testing.assert_array_equal(run(steps=10.0)[0], run(steps=10)[0])


def test_simulation_rejects_a_nonfinite_start():
    _, sim = pendulum_systems()
    for x0 in ([np.inf, 0.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="x0 must be finite"):
            simulate_closed_loop(sim, lambda x: np.zeros(1), x0, dt=1e-3, steps=10)


def test_euler_circle_drift_is_first_order():
    # Euler on the embedded state leaks off the circle at O(dt) per unit
    # time; this is why rollouts integrate the intrinsic coordinates
    sys_, _ = pendulum_systems(epsilon=0.0)
    drifts = []
    for dt in (1e-3, 5e-4):
        states, _ = simulate_closed_loop(sys_, lambda x: np.zeros(1),
                                         [np.cos(0.3), np.sin(0.3), 0.0],
                                         dt=dt, steps=int(round(1.0 / dt)),
                                         noise=False)
        drifts.append(np.abs(states[:, 0]**2 + states[:, 1]**2 - 1.0).max())
    assert drifts[0] > 1e-3          # far from exact
    assert 1.5 <= drifts[0] / drifts[1] <= 2.5


def test_accumulated_cost_hand_examples():
    pen = symmetric_box_penalty([0.5], 5.0)
    states = np.array([[0.0], [1.0]])
    inputs = np.array([[2.0]])
    got = accumulated_cost(states, inputs, lambda x: 1.0, pen, dt=0.1)
    assert got == pytest.approx(0.3, rel=1e-15)
    assert accumulated_cost(states, inputs, lambda x: 1.0, pen, dt=0.2) \
        == pytest.approx(0.6, rel=1e-15)
    assert accumulated_cost(np.zeros((3, 1)), np.zeros((2, 1)),
                            lambda x: 0.0, pen, dt=0.1) == 0.0
    with pytest.raises(ValueError):
        accumulated_cost(states, np.array([2.0]), lambda x: 1.0, pen, dt=0.1)


@settings(max_examples=100, deadline=None)
@given(angle_dims=st.sampled_from([(), (0,), (1,), (2,)]),
       q=hnp.arrays(float, 3, elements=st.floats(-50.0, 50.0)))
def test_embed_point_matches_batch_embed(angle_dims, q):
    grid = StateGridSpec(bounds=((-1.0, 1.0),) * 3, counts=(2, 2, 2),
                         angle_dims=angle_dims)
    assert np.array_equal(grid.embed_point(q), grid.embed(q[None])[0])


@pytest.mark.parametrize("q", [
    np.array([0.5, -1.0, 2.0]), np.array([1, -2, 3]), np.array([1, -2, 3], dtype=np.int32),
    np.array([0.5, -1.0, 2.0], dtype=np.float32), [0.5, -1.0, 2.0], (1, -2.0, 3.0),
], ids=["float-row", "int-row", "int32-row", "float32-row", "list", "tuple"])
def test_embed_point_returns_floats(q):
    grid = StateGridSpec(bounds=((-1.0, 1.0),) * 3, counts=(2, 2, 2), angle_dims=(1,))
    got = grid.embed_point(q)
    assert type(got) is list and all(type(v) is float for v in got)
    assert np.array_equal(got, grid.embed(np.asarray(q, dtype=float)[None])[0])


@pytest.mark.parametrize("q", [
    [0.5, -1.0], [0.5, -1.0, 2.0, 0.0], np.zeros(4), [[0.5, -1.0, 2.0]],
    np.zeros((1, 3)), np.zeros((3, 1)), 0.5, [0.5, [1.0], 2.0],
], ids=["short", "long", "long-row", "nested", "2d-row", "2d-column", "scalar", "ragged"])
def test_embed_point_rejects_a_misshapen_point(q):
    grid = StateGridSpec(bounds=((-1.0, 1.0),) * 3, counts=(2, 2, 2), angle_dims=(1,))
    with pytest.raises(ValueError):
        grid.embed_point(q)


@pytest.mark.parametrize("theta", [np.inf, -np.inf])
def test_embed_point_rejects_an_infinite_angle(theta):
    grid = StateGridSpec(bounds=((-1.0, 1.0),) * 2, counts=(2, 2), angle_dims=(0,))
    with pytest.raises(ValueError):
        grid.embed_point([theta, 0.0])
    # a non-angle coordinate passes through
    assert grid.embed_point([0.0, theta]) == [1.0, 0.0, theta]


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["pendulum", "cartpole", "linear-1d", "linear-2d"]),
       data=st.data())
def test_stage_costs_take_rows_and_lists_alike(name, data):
    # rollouts hand the stage cost embed_point's list; accumulated_cost and the
    # datasets hand it array rows
    bench = make_benchmark(name)
    row = data.draw(hnp.arrays(float, bench.system.n_x, elements=st.floats(-1e3, 1e3)))
    from_row, from_list = bench.stage_cost(row), bench.stage_cost(row.tolist())
    assert type(from_list) is float
    assert np.array_equal(np.float64(from_row), np.float64(from_list))
    assert math.copysign(1.0, from_row) == math.copysign(1.0, from_list)


@settings(max_examples=100, deadline=None)
@given(x=hnp.arrays(float, 2, elements=st.floats(-1e150, 1e150)))
def test_linear_2d_cost_is_the_bits_of_the_row_formula(x):
    # q x'x, as q * float(x @ x) computes it on an array row
    cost = make_benchmark("linear-2d", cost_params={"q_weight": 1.7}).stage_cost
    assert cost(x) == 1.7 * float(x @ x)
    assert cost(x.tolist()) == 1.7 * float(x @ x)


@pytest.mark.parametrize("policy", [
    lambda x: 0.25, lambda x: np.float64(0.25), lambda x: [0.25], lambda x: (0.25,),
    lambda x: np.array(0.25), lambda x: np.array([0.25], dtype=np.float32),
], ids=["float", "numpy-scalar", "list", "tuple", "0d-array", "float32-array"])
def test_policy_outputs_other_than_a_float_row(policy):
    sys_ = linear_1d_system(epsilon=0.0)
    want_states, want_inputs = simulate_closed_loop(
        sys_, lambda x: np.array([0.25]), [1.0], dt=0.01, steps=20, noise=False)
    states, inputs = simulate_closed_loop(sys_, policy, [1.0], dt=0.01, steps=20,
                                          noise=False)
    assert np.array_equal(states, want_states) and np.array_equal(inputs, want_inputs)


def test_integer_policy_output_is_clipped_as_floats():
    sys_ = linear_1d_system(u_max=1.5, epsilon=0.0)
    _, inputs = simulate_closed_loop(sys_, lambda x: np.array([3]), [0.0], dt=0.01,
                                     steps=2, noise=False)
    assert inputs.dtype == float and inputs.tolist() == [[1.5], [1.5]]


@pytest.mark.parametrize("out", [np.zeros(2), [0.0, 0.0], np.zeros((1, 1)), []],
                         ids=["long-row", "long-list", "2d", "empty"])
def test_policy_output_of_the_wrong_shape_is_rejected(out):
    with pytest.raises(ValueError, match=r"^policy returned shape"):
        simulate_closed_loop(linear_1d_system(), lambda x: out, [1.0], dt=0.01, steps=3)


@pytest.mark.parametrize("out", [np.nan, -np.inf, np.inf])
def test_nonfinite_policy_output_diverges_at_step_0(out):
    # NaN passes the clamp; +-inf saturates, so only a box that lets it through
    # drives the state to infinity
    sys_ = ControlAffineSystem(name="free", n_x=1, n_u=1, field=lambda x: ([0.0], [[1.0]]),
                               u_min=[-np.inf], u_max=[np.inf], epsilon=0.0)
    with pytest.raises(DivergenceError) as exc:
        simulate_closed_loop(sys_, lambda x: np.array([out]), [0.0], dt=0.01, steps=5,
                             noise=False)
    assert exc.value.step == 0


def test_nan_control_bound_is_rejected():
    for lo, hi in (([np.nan], [1.0]), ([-1.0], [np.nan])):
        with pytest.raises(ValueError, match="must not be NaN"):
            ControlAffineSystem(name="nan-box", n_x=1, n_u=1,
                                field=lambda x: ([0.0], [[1.0]]), u_min=lo, u_max=hi,
                                epsilon=0.0)


_EDGES = [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, 5e-324, -5e-324]


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(st.sampled_from(_EDGES + [np.nan]), st.floats(allow_nan=True)),
       box=st.tuples(st.sampled_from(_EDGES[:4] + [-np.inf]),
                     st.sampled_from(_EDGES[:4] + [np.inf])).filter(lambda b: b[0] <= b[1]))
def test_rollout_clamp_is_np_clip_bit_for_bit(v, box):
    # the zero input map keeps every input out of the state, so a NaN or
    # infinite input is recorded instead of diverging
    lo, hi = (np.array([b]) for b in box)
    sys_ = ControlAffineSystem(name="still", n_x=1, n_u=1, field=lambda x: ([0.0], [[0.0]]),
                               u_min=lo, u_max=hi, epsilon=0.0)
    out = np.array([v])
    if not np.isfinite(np.clip(out, lo, hi)[0]):
        with pytest.raises(DivergenceError):   # 0 * +-inf or NaN reaches the state
            simulate_closed_loop(sys_, lambda x: out, [1.0], dt=0.1, steps=1,
                                 noise=False)
        return
    _, inputs = simulate_closed_loop(sys_, lambda x: out, [1.0], dt=0.1, steps=1,
                                     noise=False)
    assert inputs[0].view(np.uint64) == np.clip(out, lo, hi).view(np.uint64)


def test_rollout_clamp_settles_signed_zeros_as_np_clip_does():
    # a value equal to a bound becomes the bound
    for v, lo, hi, want in ((-0.0, 0.0, 1.5, 0.0), (0.0, -0.0, 0.0, 0.0),
                            (0.0, -1.5, -0.0, -0.0), (-0.0, -0.0, -0.0, -0.0),
                            (-2.0, -0.0, 0.0, 0.0), (-0.0, -1.5, 1.5, -0.0)):
        sys_ = ControlAffineSystem(name="still", n_x=1, n_u=1,
                                   field=lambda x: ([0.0], [[0.0]]), u_min=[lo], u_max=[hi],
                                   epsilon=0.0)
        _, inputs = simulate_closed_loop(sys_, lambda x: np.array([v]), [1.0], dt=0.1,
                                         steps=1, noise=False)
        clip = np.clip(np.array([v]), np.array([lo]), np.array([hi]))
        assert inputs[0].view(np.uint64) == clip.view(np.uint64)
        assert math.copysign(1.0, inputs[0, 0]) == math.copysign(1.0, want)


def _pendulum_euler(x, u, dt):
    """One Euler step of the physical pendulum at the default constants,
    J w' = u - b w + m g lc sin t, written with numpy arrays."""
    lc = 0.5 * 1.0
    J = 0.0842 + 1.0 * lc**2
    t, w = x
    f = np.array([w, (1.0 * 9.81 * lc * np.sin(t) - 0.1 * w) / J])
    G = np.array([[0.0], [1.0 / J]])
    return x + dt * (f + G @ u)


def _cartpole_euler(x, u, dt):
    """One Euler step of the physical cartpole at the default constants: the
    mass-matrix system of cartpole_systems's docstring by Cramer's rule."""
    lc = 0.5 * 1.0
    m11, m22 = 0.5 + 0.5, 0.0513 + 0.5 * lc**2
    p, v, t, w = x
    c, s = np.cos(t), np.sin(t)
    m12 = 0.5 * lc * c
    det = m11 * m22 - m12 * m12
    r1 = 0.5 * lc * s * w * w - 0.05 * v
    r2 = 0.5 * 9.81 * lc * s - 0.05 * w
    f = np.array([v, (m22 * r1 - m12 * r2) / det, w, (m11 * r2 - m12 * r1) / det])
    G = np.array([[0.0], [m22 / det], [0.0], [-m12 / det]])
    return x + dt * (f + G @ u)


def _embed(x, angle_dim):
    t = x[angle_dim]
    return np.concatenate([x[:angle_dim], [np.cos(t), np.sin(t)], x[angle_dim + 1:]])


def _pendulum_cost(e):
    c, s, w = e
    return 30.0 * s**2 + 30.0 * (c - 1.0) ** 2 + 1.0 * w**2


def _cartpole_cost(e):
    p, v, c, s, w = e
    return 10.0 * (p - 1.0 * s) ** 2 + 100.0 * 1.0**2 * (c - 1.0) ** 2 \
        + 1.0 * v**2 + 1.0 * w**2


@pytest.mark.parametrize("name, step, cost, angle_dim, interval, steps, x0, noise", [
    pytest.param("pendulum", _pendulum_euler, _pendulum_cost, 0, 20, 5000, [3.0, 0.0],
                 False, id="pendulum-hanging"),
    pytest.param("pendulum", _pendulum_euler, _pendulum_cost, 0, 20, 5000, [-2.5, 6.0],
                 False, id="pendulum-spinning"),
    pytest.param("cartpole", _cartpole_euler, _cartpole_cost, 2, 5, 2000,
                 [1.5, -2.0, 2.8, 4.0], False, id="cartpole-hanging"),
    pytest.param("cartpole", _cartpole_euler, _cartpole_cost, 2, 5, 2000,
                 [-1.0, 0.5, -0.4, -3.0], False, id="cartpole-tilted"),
    pytest.param("pendulum", _pendulum_euler, _pendulum_cost, 0, 20, 5000, [3.0, 0.0],
                 True, id="pendulum-hanging-noisy"),
    pytest.param("cartpole", _cartpole_euler, _cartpole_cost, 2, 5, 2000,
                 [-1.0, 0.5, -0.4, -3.0], True, id="cartpole-tilted-noisy"),
])
def test_physical_rollouts_are_bitwise_numpy_euler(name, step, cost, angle_dim, interval,
                                                   steps, x0, noise):
    # Plants, stage costs and embed_point compute on floats; they must stay
    # bitwise equal to the array formulas with np.sin / np.cos.  The feedback
    # acts on the embedded state, as the learned policy does, and saturates.
    # A noisy rollout adds sqrt(2 eps dt) times one standard_normal(n_x) draw
    # per step after the Euler step.
    bench = make_benchmark(name)
    grid, pen, dt, seed = bench.grid, bench.pen, 1e-3, 17
    gain = np.linspace(2.0, 8.0, grid.n_x)

    def feedback(e):
        return np.array([-float(gain @ e) + 2.0])

    states, inputs = simulate_closed_loop(
        bench.sim_system, lambda q: feedback(grid.embed_point(q)), x0, dt, steps,
        seed=seed, noise=noise, control_interval=interval)
    total = accumulated_cost(states, inputs,
                             lambda q: bench.stage_cost(grid.embed_point(q)), pen, dt)

    rng = np.random.default_rng(seed)
    noise_scale = np.sqrt(2.0 * bench.sim_system.epsilon * dt)
    x, u, want_total = np.array(x0), None, 0.0
    want_states, want_inputs = [x], []
    for k in range(steps):
        if k % interval == 0:
            u = np.clip(feedback(_embed(x, angle_dim)), pen.u_min, pen.u_max)
        want_inputs.append(u)
        want_total += float(cost(_embed(x, angle_dim)))
        want_total += float(np.sum(pen.weights * u**2))
        x = step(x, u, dt)
        if noise:
            x = x + noise_scale * rng.standard_normal(x.size)
        want_states.append(x)
    assert np.abs(inputs).max() == pen.u_max[0]      # the box is reached
    assert np.array_equal(states, np.array(want_states))
    assert np.array_equal(inputs, np.array(want_inputs))
    assert total == want_total * dt


@settings(max_examples=100, deadline=None)
@given(weights=st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0))
       .filter(lambda w: w[0] != w[1]),
       inputs=hnp.arrays(float, st.tuples(st.integers(1, 30), st.just(2)),
                         elements=st.floats(-1e3, 1e3)),
       dt=st.floats(1e-4, 1.0))
def test_accumulated_cost_matches_step_loop(weights, inputs, dt):
    # the oracle adds q(x_k) then r(u_k) one step at a time
    pen = symmetric_box_penalty(list(weights), 1e3)
    states = np.cumsum(np.vstack([np.ones((1, 2)), inputs]), axis=0)

    def stage(x):
        return 0.3 * float(x @ x)

    total = 0.0
    for k in range(inputs.shape[0]):
        total += stage(states[k])
        total += float(np.sum(pen.weights * inputs[k] ** 2))
    assert accumulated_cost(states, inputs, stage, pen, dt) == total * dt


def test_dataset_csv_roundtrip_byte_stable(tmp_path):
    bench = make_benchmark("pendulum")
    X = bench.grid.states()[::200]
    ds = dataset_from_states(bench.system, X, bench.stage_cost)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(p1, ds, config_hash="cafe")
    back, h = read_dataset(p1)
    assert h == "cafe"
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.drift_labels, ds.drift_labels)
    np.testing.assert_array_equal(back.q, ds.q)
    write_dataset(p2, back, config_hash="cafe")
    assert p1.read_bytes() == p2.read_bytes()


def test_read_dataset_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x_1,q\n1.0\n")
    with pytest.raises(ConfigError):
        read_dataset(p)
    p.write_text("nope\n")
    with pytest.raises(ConfigError):
        read_dataset(p)


@pytest.mark.parametrize("config_hash", [None, "cafe"])
def test_write_csv_text(tmp_path, config_hash):
    # -0, nan, +-inf, the smallest subnormal, 1e308 and an integer column,
    # each as its literal text; a table with no rows is its header alone
    head = "" if config_hash is None else "# config_hash=cafe\n"
    rows = np.column_stack([np.arange(4), [-0.0, np.inf, 5e-324, 0.1],
                            [np.nan, -np.inf, 1e308, 2.5]])
    p = tmp_path / "t.csv"
    write_csv(p, ["i", "a", "b"], rows, config_hash)
    assert p.read_bytes() == (head + "i,a,b\n0,-0,nan\n1,inf,-inf\n"
                              "2,4.9406564584124654e-324,1e+308\n"
                              "3,0.10000000000000001,2.5\n").encode()
    write_csv(p, ["a", "b"], np.empty((0, 2)), config_hash)
    assert p.read_bytes() == (head + "a,b\n").encode()


_DATASET_TEXT = ("# config_hash=cafe\nx_1,d0_1,q\n"
                 "-0,4.9406564584124654e-324,1e+308\n3,-12,0.10000000000000001\n")


def test_read_dataset_round_trips_the_bits(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(_DATASET_TEXT)
    back, h = read_dataset(p)
    assert h == "cafe"
    data = np.column_stack([back.X, back.drift_labels[0], back.q])
    want = np.array([[-0.0, 5e-324, 1e308], [3.0, -12.0, 0.1]])
    assert np.array_equal(data.view(np.int64), want.view(np.int64))
    write_dataset(p, back, config_hash=h)
    assert p.read_text() == _DATASET_TEXT


def test_read_dataset_skips_comments_and_blank_lines_and_reads_crlf(tmp_path):
    p = tmp_path / "d.csv"
    lines = _DATASET_TEXT.splitlines()
    p.write_bytes("\r\n".join(["", lines[0], "# before the header", lines[1], lines[2],
                               "# between rows", "", lines[3], ""]).encode())
    back, h = read_dataset(p)
    assert h == "cafe"
    np.testing.assert_array_equal(back.X[:, 0], [-0.0, 3.0])
    np.testing.assert_array_equal(back.q, [1e308, 0.1])


@pytest.mark.parametrize("second_row", ["4,abc,6", "4,5", "4,5,6,7"],
                         ids=["bad-cell", "short", "long"])
def test_read_dataset_numbers_a_malformed_row_from_one(tmp_path, second_row):
    # np.loadtxt numbered a bad cell from row 0 and a short row from row 1,
    # and advised `usecols`; the comment and blank lines are not data rows
    p = tmp_path / "bad.csv"
    p.write_text(f"# config_hash=cafe\nx_1,d0_1,q\n1,2,3\n# note\n\n{second_row}\n7,8,9\n")
    with pytest.raises(ConfigError) as info:
        read_dataset(p)
    assert str(info.value) == (f"malformed numeric row in {p}: data row 2 is not 3 "
                               f"comma-separated numbers: {second_row!r}")


@pytest.mark.parametrize("rows, message", [
    ("1,2,3\n4,5\n", "malformed numeric row"),
    ("1,abc,3\n", "malformed numeric row"),
    ("", "do not match the header"),
    ("1,2,3\n4,nan,6\n", "at data row 2, column d0_1"),
])
def test_read_dataset_errors_name_the_file(tmp_path, rows, message):
    p = tmp_path / "bad.csv"
    p.write_text("x_1,d0_1,q\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message) as info:
            read_dataset(p)
    assert str(p) in str(info.value)
