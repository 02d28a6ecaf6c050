"""Target kernel matrices and the ridge-regressed generator blocks."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genhjb import KernelSpec, fit, generator, generator_apply, kernels
from genhjb.dynamics import (StateGridSpec, dataset_from_states,
                             generate_dataset)
from genhjb.errors import ConditioningError, NumericalDomainError
from genhjb.generator import (load_model, min_eig_estimate, save_model,
                              solve_regularized, target_kernel_matrix)
from genhjb.systems import linear_1d_system, make_benchmark

EXP_M1 = 0.36787944117144233
SE1 = KernelSpec("squared-exponential", 1.0)


def _linear_dataset(n=200, lo=-2.0, hi=2.0, cost=lambda x: float(x[0]) ** 2):
    sys_ = linear_1d_system(epsilon=0.01)
    grid = StateGridSpec(bounds=((lo, hi),), counts=(n,))
    return generate_dataset(sys_, grid, cost)


def test_target_matrix_hand_example_drift_only():
    X = np.array([[0.0], [1.0]])
    drift = X.copy()  # f(x) = x
    T = target_kernel_matrix(SE1, X, drift, 0.0)
    expect = np.array([[0.0, 0.0], [-2 * EXP_M1, 0.0]])
    np.testing.assert_allclose(T, expect, atol=1e-12)


def test_target_matrix_hand_example_with_diffusion():
    X = np.array([[0.0], [1.0]])
    T = target_kernel_matrix(SE1, X, X.copy(), 0.1)
    expect = np.array([[-0.2, 0.2 * EXP_M1],
                       [-1.8 * EXP_M1, -0.2]])
    np.testing.assert_allclose(T, expect, atol=1e-12)


def test_target_matrix_zero_drift_zero_diffusion():
    X = np.array([[0.3], [-0.7], [1.1]])
    np.testing.assert_array_equal(target_kernel_matrix(SE1, X, np.zeros_like(X), 0.0),
                                  np.zeros((3, 3)))


def test_target_matrix_linear_in_epsilon():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(15, 2))
    F = rng.normal(size=(15, 2))
    k = KernelSpec("smoothed-laplace", 2.0)
    T0 = target_kernel_matrix(k, X, F, 0.0)
    H = target_kernel_matrix(k, X, np.zeros_like(F), 1.0)
    for eps in (0.05, 0.3):
        np.testing.assert_allclose(target_kernel_matrix(k, X, F, eps),
                                   T0 + eps * H, rtol=1e-13, atol=1e-14)


def test_target_matrix_control_affine_combination():
    # labels built from f + G(c1 e1 + c2 e2) give K_0 + c1 dK_1 + c2 dK_2
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(10, 2))
    F = rng.normal(size=(10, 2))
    G = rng.normal(size=(10, 2, 2))
    c = np.array([0.7, -1.3])
    T0 = target_kernel_matrix(SE1, X, F, 0.02)
    d1 = target_kernel_matrix(SE1, X, F + G[:, :, 0], 0.02) - T0
    d2 = target_kernel_matrix(SE1, X, F + G[:, :, 1], 0.02) - T0
    mixed = target_kernel_matrix(SE1, X, F + G @ c, 0.02)
    np.testing.assert_allclose(mixed, T0 + c[0] * d1 + c[1] * d2,
                               rtol=1e-12, atol=1e-13)


def test_target_matrix_rejects_nonfinite():
    X = np.array([[0.0], [1.0]])
    bad = np.array([[np.inf], [0.0]])
    with pytest.raises(NumericalDomainError):
        target_kernel_matrix(SE1, X, bad, 0.0)
    with pytest.raises(ValueError):
        target_kernel_matrix(SE1, X, X, -0.5)


def test_fit_single_point_hand_example():
    X = np.array([[0.0]])
    ds = dataset_from_states(linear_1d_system(a=0.0, epsilon=0.0), X,
                             lambda x: 5.0)
    model = fit(ds, SE1, gamma=1.0, epsilon=0.0)
    np.testing.assert_allclose(solve_regularized(model, model.A_target), [[0.0]],
                               atol=1e-15)
    np.testing.assert_array_equal(model.q, [5.0])


def test_fit_zero_input_map_gives_zero_b():
    X = np.linspace(-1, 1, 8)[:, None]
    labels = np.stack([X.copy(), X.copy()])  # channel e_1 identical to channel 0
    from genhjb.dynamics import GeneratorDataset
    ds = GeneratorDataset(X=X, drift_labels=labels, q=np.zeros(8))
    model = fit(ds, SE1, 1e-6, 0.0)
    np.testing.assert_allclose(model.B_hat[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(model.KB_hat[0], 0.0, atol=1e-12)


def test_fit_residual_identities():
    # K_gamma A = K_0 and K_gamma B_j = K_{e_j} - K_0 within 1e-8 relative
    bench = make_benchmark("pendulum")
    X = bench.grid.states()[::12]
    ds = dataset_from_states(bench.system, X, bench.stage_cost)
    k = KernelSpec("smoothed-laplace", 25.0)
    model = fit(ds, k, 1e-12, 0.02)
    N = model.n_points
    Kg = model.K + N * 1e-12 * np.eye(N)
    T0 = target_kernel_matrix(k, model.X, ds.drift_labels[0], 0.02)
    dT = target_kernel_matrix(k, model.X, ds.drift_labels[1], 0.02) - T0
    A_hat = solve_regularized(model, model.A_target)
    assert np.linalg.norm(Kg @ A_hat - T0) <= 1e-8 * np.linalg.norm(T0)
    assert np.linalg.norm(Kg @ model.B_hat[0] - dT) <= 1e-8 * np.linalg.norm(dT)


def test_fit_matches_dense_inverse_small_n():
    X = np.linspace(-1, 1, 20)[:, None]
    ds = dataset_from_states(linear_1d_system(epsilon=0.0), X,
                             lambda x: float(x[0]))
    model = fit(ds, SE1, 1e-2, 0.0)
    Kg = model.K + 20 * 1e-2 * np.eye(20)
    T0 = target_kernel_matrix(SE1, X, ds.drift_labels[0], 0.0)
    np.testing.assert_allclose(solve_regularized(model, model.A_target),
                               np.linalg.inv(Kg) @ T0, atol=1e-10)


def _two_input_dataset(n=80, seed=3):
    # rotation drift with a constant and a state-dependent input column
    from genhjb.dynamics import GeneratorDataset
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    f = np.stack([X[:, 1], -X[:, 0]], axis=1)
    g1 = np.stack([np.ones(n), np.zeros(n)], axis=1)
    g2 = np.stack([X[:, 0], np.ones(n)], axis=1)
    return GeneratorDataset(X=X, drift_labels=np.stack([f, f + g1, f + g2]),
                            q=np.sum(X**2, axis=1))


@pytest.mark.parametrize("family", ["squared-exponential", "smoothed-laplace"])
def test_fit_stores_drift_target_and_k_times_b(family):
    ds = _two_input_dataset()
    k = KernelSpec(family, 1.0)
    model = fit(ds, k, 1e-8, 0.05)
    np.testing.assert_array_equal(
        model.A_target, target_kernel_matrix(k, ds.X, ds.drift_labels[0], 0.05))
    assert model.KB_hat.shape == model.B_hat.shape == (2, 80, 80)
    for j in range(2):
        KB = model.K @ model.B_hat[j]
        assert np.linalg.norm(model.KB_hat[j] - KB) <= 1e-10 * np.linalg.norm(KB)


def test_generator_apply_matches_dense_form():
    ds = _two_input_dataset()
    model = fit(ds, KernelSpec("smoothed-laplace", 1.0), 1e-6, 0.05)
    N = model.n_points
    A_hat = np.linalg.solve(model.K + N * 1e-6 * np.eye(N), model.A_target)
    rng = np.random.default_rng(0)
    for u in ([0.0, 0.0], [0.7, -1.3]):
        h = rng.standard_normal(N)
        x = rng.uniform(-1, 1, 2)
        coeff = A_hat @ h + sum(u[j] * (model.B_hat[j] @ h) for j in range(2))
        want = coeff @ kernels.cross_kernel_vector(model.kernel, model.X, x)
        assert generator_apply(model, u, h, x) == pytest.approx(want, rel=1e-10)


def test_fit_computes_distances_once(monkeypatch):
    # K, the A-hat target with its diffusion term and the B-hat target all
    # come from one distance pass
    calls = []
    cdist = kernels.cdist

    def counting_cdist(*args):
        calls.append(args)
        return cdist(*args)

    monkeypatch.setattr(kernels, "cdist", counting_cdist)
    for k in (SE1, KernelSpec("smoothed-laplace", 2.0)):
        calls.clear()
        model = fit(_linear_dataset(n=20), k, 1e-6, 0.01)
        assert model.n_u == 1
        assert len(calls) == 1


def test_fit_shrinks_with_gamma():
    X = np.linspace(-1, 1, 20)[:, None]
    ds = dataset_from_states(linear_1d_system(epsilon=0.0), X,
                             lambda x: float(x[0]))
    small = fit(ds, SE1, 0.1, 0.0)
    large = fit(ds, SE1, 10.0, 0.0)
    assert np.linalg.norm(solve_regularized(large, large.A_target)) \
        < np.linalg.norm(solve_regularized(small, small.A_target))


def test_fit_validation_and_conditioning():
    ds = _linear_dataset(n=5)
    with pytest.raises(ValueError):
        fit(ds, SE1, 0.0, 0.01)
    dup = dataset_from_states(linear_1d_system(), np.zeros((2, 1)),
                              lambda x: 0.0)
    with pytest.raises(ConditioningError):
        fit(dup, SE1, 1e-18, 0.0)


def test_generator_apply_zero_coefficients():
    model = fit(_linear_dataset(n=30), SE1, 1e-8, 0.01)
    assert generator_apply(model, [0.0], np.zeros(30), np.array([0.4])) == 0.0
    with pytest.raises(ValueError):
        generator_apply(model, [0.0, 1.0], np.zeros(30), np.array([0.4]))
    with pytest.raises(ValueError):
        generator_apply(model, [0.0], np.zeros(29), np.array([0.4]))


def test_generator_apply_matches_calculus_and_semigroup():
    # interpolate h(x) = x^2 on the 1D unstable plant; the generator gives
    # L h = x * 2x + eps * 2.  The Monte Carlo value is the one-step weak
    # estimate (E[h(X_t)] - h(x)) / t frozen from an independent run.
    model = fit(_linear_dataset(), SE1, 1e-8, 0.01)
    h = solve_regularized(model, model.X[:, 0] ** 2)
    got = generator_apply(model, [0.0], h, np.array([0.3]))
    assert got == pytest.approx(2 * 0.3**2 + 2 * 0.01, abs=0.01)
    mc = 0.20130790348911604  # rng(7), 400k paths, t = 0.01
    assert got == pytest.approx(mc, abs=0.01)


def test_generator_apply_channel_difference_recovers_input_action():
    # switching on channel e_1 adds <G e_1, grad h> = 1 * h'(x)
    model = fit(_linear_dataset(), SE1, 1e-8, 0.01)
    h = solve_regularized(model, model.X[:, 0] ** 2)
    x = np.array([0.3])
    diff = generator_apply(model, [1.0], h, x) - generator_apply(model, [0.0], h, x)
    assert diff == pytest.approx(2 * 0.3, abs=0.005)


def test_min_eig_estimate_close_to_dense():
    model = fit(_linear_dataset(n=40), SE1, 1e-4, 0.01)
    dense = np.linalg.eigvalsh(model.K + 40 * 1e-4 * np.eye(40)).min()
    assert min_eig_estimate(model) == pytest.approx(dense, rel=1e-2)


def test_model_archive_roundtrip_and_byte_stability(tmp_path):
    model = fit(_linear_dataset(n=25), KernelSpec("smoothed-laplace", 3.0),
                1e-6, 0.01)
    p1, p2 = tmp_path / "m1.npz", tmp_path / "m2.npz"
    save_model(p1, model, config_hash="beef")
    back, meta = load_model(p1)
    assert meta["config_hash"] == "beef"
    assert back.kernel == model.kernel
    assert back.gamma == model.gamma and back.epsilon == model.epsilon
    np.testing.assert_array_equal(back.X, model.X)
    np.testing.assert_array_equal(back.A_target, model.A_target)
    np.testing.assert_array_equal(back.B_hat, model.B_hat)
    np.testing.assert_array_equal(back.KB_hat, model.KB_hat)
    np.testing.assert_array_equal(back.q, model.q)
    save_model(p2, back, config_hash="beef")
    assert p1.read_bytes() == p2.read_bytes()


def test_reloaded_model_solves_to_the_same_bits(tmp_path):
    from genhjb.hjb import HjbConfig, solve_fvp
    from genhjb.penalty import symmetric_box_penalty
    model = fit(_linear_dataset(n=60), KernelSpec("smoothed-laplace", 3.0), 1e-8, 0.01)
    save_model(tmp_path / "m.npz", model)
    back, _ = load_model(tmp_path / "m.npz")
    pen = symmetric_box_penalty([0.5], 5.0)
    cfg = HjbConfig(dt=0.02, horizon_steps=50)
    a, b = solve_fvp(model, pen, cfg), solve_fvp(back, pen, cfg)
    np.testing.assert_array_equal(b.v0, a.v0)
    np.testing.assert_array_equal(b.bv0, a.bv0)


def test_loaded_model_solves_without_factoring_k_gamma(tmp_path, monkeypatch):
    # neither the HJB solve nor the policy needs the Cholesky factor, so a
    # loaded model is factored only by a solve with K_gamma, which keeps
    # no factor
    from genhjb import generator
    from genhjb.hjb import HjbConfig, policy_at, solve_fvp
    from genhjb.penalty import symmetric_box_penalty
    model = fit(_linear_dataset(n=60), KernelSpec("smoothed-laplace", 3.0), 1e-8, 0.01)
    save_model(tmp_path / "m.npz", model)
    pen = symmetric_box_penalty([0.5], 5.0)
    cfg = HjbConfig(dt=0.02, horizon_steps=50)
    want = solve_fvp(model, pen, cfg)

    factor = generator._factor_kgamma
    def refuse(*args):
        raise AssertionError("K_gamma was factored")
    monkeypatch.setattr(generator, "_factor_kgamma", refuse)
    back, _ = load_model(tmp_path / "m.npz")
    got = solve_fvp(back, pen, cfg)
    assert np.array_equal(got.v0, want.v0) and np.array_equal(got.bv0, want.bv0)
    assert np.array_equal(policy_at(got, pen, [0.3]), policy_at(want, pen, [0.3]))

    monkeypatch.setattr(generator, "_factor_kgamma", factor)
    rhs = np.linspace(-1.0, 1.0, 60)
    assert np.array_equal(solve_regularized(back, rhs), solve_regularized(model, rhs))
    assert generator_apply(back, [1.0], want.v0, [0.3]) \
        == generator_apply(model, [1.0], want.v0, [0.3])
    assert min_eig_estimate(back) == min_eig_estimate(model)


def test_load_model_builds_no_gram_matrix(tmp_path, monkeypatch):
    # the archive holds every array the model keeps, and the model keeps no
    # Gram matrix, so loading computes no distances at all
    model = fit(_linear_dataset(n=30), SE1, 1e-6, 0.01)
    save_model(tmp_path / "m.npz", model)
    def refuse(*args, **kwargs):
        raise AssertionError("cdist was called")
    monkeypatch.setattr(kernels, "cdist", refuse)
    back, _ = load_model(tmp_path / "m.npz")
    for name in ("X", "A_target", "B_hat", "KB_hat", "q"):
        np.testing.assert_array_equal(getattr(back, name), getattr(model, name))


def test_model_gram_matrix_is_rebuilt_on_each_access():
    model = fit(_linear_dataset(n=30), SE1, 1e-6, 0.01)
    K = model.K
    np.testing.assert_array_equal(K, kernels.gram_matrix(SE1, model.X))
    K[0, 0] = 5.0               # a caller's copy; the model holds none
    assert model.K[0, 0] == 1.0 and model.K is not model.K
    with pytest.raises(AttributeError):
        model.K = K


def test_solve_regularized_rejects_a_nonfinite_right_hand_side():
    # only the right-hand side is scanned; the factor is left intact
    model = fit(_linear_dataset(n=30), SE1, 1e-6, 0.01)
    rhs = np.linspace(-1.0, 1.0, 30)
    want = solve_regularized(model, rhs)
    for bad in (np.nan, np.inf):
        for shape in ((30,), (30, 2)):
            z = np.zeros(shape)
            z.flat[7] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_regularized(model, z)
    np.testing.assert_array_equal(solve_regularized(model, rhs), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_a_nonfinite_stage_cost_before_any_matrix(monkeypatch, bad):
    from genhjb.dynamics import GeneratorDataset
    ds = _linear_dataset(n=12)
    q = ds.q.copy()
    q[[4, 9]] = bad
    def refuse(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(kernels, "_gram_and_targets", refuse)
    with pytest.raises(ValueError, match=rf"^non-finite stage cost at data point 4: {bad}$"):
        fit(GeneratorDataset(X=ds.X, drift_labels=ds.drift_labels, q=q), SE1, 1e-6, 0.01)


def test_model_is_plain_data_and_solves_keep_no_factor(monkeypatch):
    # the model's fields are arrays and numbers; each solve with K_gamma
    # factors a fresh Gram matrix, and the power iteration factors once
    from dataclasses import fields
    ds = _linear_dataset(n=30)
    model = fit(ds, SE1, 1e-6, 0.01)
    assert [f.name for f in fields(model)] == [
        "kernel", "X", "gamma", "epsilon", "A_target", "B_hat", "KB_hat", "q"]
    assert np.array_equal(model.q, ds.q)
    calls = []
    factor = generator._factor_kgamma
    monkeypatch.setattr(generator, "_factor_kgamma",
                        lambda *a: calls.append(1) or factor(*a))
    rhs = np.linspace(-1.0, 1.0, 30)
    first = solve_regularized(model, rhs)
    assert np.array_equal(solve_regularized(model, rhs), first) and len(calls) == 2
    min_eig_estimate(model)
    assert len(calls) == 3


@st.composite
def _clustered_points(draw):
    """Up to 10 points in 1 to 4 dimensions, with exact duplicates and
    near-coincident copies (offsets down to 1e-12) appended, in a drawn
    order; a kernel and a ridge parameter."""
    n_x = draw(st.integers(1, 4))
    N = draw(st.integers(1, 10))
    X = draw(hnp.arrays(float, (N, n_x), elements=st.floats(-3.0, 3.0)))
    rows = [X]
    for i in draw(st.lists(st.integers(0, N - 1), max_size=4)):
        rows.append(X[i:i + 1])
    offsets = st.floats(1e-12, 1e-6) | st.floats(-1e-6, -1e-12)
    for i, d in draw(st.lists(st.tuples(st.integers(0, N - 1), offsets), max_size=4)):
        rows.append(X[i:i + 1] + d)
    X = np.concatenate(rows)
    X = X[draw(st.permutations(range(len(X))))]
    family = draw(st.sampled_from(kernels.FAMILIES))
    k = KernelSpec(family, draw(st.floats(0.3, 5.0)))
    return k, X, draw(st.sampled_from([1e-3, 1e-1, 1.0]))


@settings(max_examples=150, deadline=None)
@given(_clustered_points())
def test_gram_matrix_is_bitwise_symmetric_and_factors_in_place(case):
    # the factor is built in K's own buffer through its transpose, which is
    # exact only because K equals K^T bit for bit
    k, X, gamma = case
    K = kernels.gram_matrix(k, X)
    assert np.array_equal(K, K.T)
    N = len(X)
    Kg = np.array(K, order="F")
    Kg[np.diag_indices(N)] += N * gamma
    want = scipy.linalg.cho_factor(Kg, lower=True, overwrite_a=True)
    got = generator._factor_kgamma(K, gamma)
    assert np.shares_memory(got[0], K) and got[1] == want[1]
    assert np.array_equal(got[0], want[0])


def test_archive_with_the_old_smoothing_keys_solves_to_the_same_bits(tmp_path):
    # archives written while the smoothed Laplace surrogate was configurable
    # carry its radius and ratio; they are ignored on load
    from genhjb.hjb import HjbConfig, solve_fvp
    from genhjb.npzio import load_arrays, save_arrays
    from genhjb.penalty import symmetric_box_penalty
    model = fit(_linear_dataset(n=60), KernelSpec("smoothed-laplace", 3.0), 1e-8, 0.01)
    save_model(tmp_path / "m.npz", model)
    arrays, meta = load_arrays(tmp_path / "m.npz")
    assert "smoothing_radius" not in meta and "smoothing_lengthscale_ratio" not in meta
    meta.update(smoothing_lengthscale_ratio=100.0, smoothing_radius=1e-8)
    save_arrays(tmp_path / "old.npz", arrays, meta=meta)
    back, _ = load_model(tmp_path / "old.npz")
    assert back.kernel == model.kernel
    pen = symmetric_box_penalty([0.5], 5.0)
    cfg = HjbConfig(dt=0.02, horizon_steps=50)
    a, b = solve_fvp(model, pen, cfg), solve_fvp(back, pen, cfg)
    np.testing.assert_array_equal(b.v0, a.v0)
    np.testing.assert_array_equal(b.bv0, a.bv0)


@pytest.mark.parametrize("name", ["X", "A_target", "B_hat", "KB_hat", "q"])
def test_load_model_names_a_missing_or_misshapen_array(tmp_path, name):
    from genhjb.npzio import load_arrays, save_arrays
    model = fit(_linear_dataset(n=12), SE1, 1e-6, 0.01)
    save_model(tmp_path / "m.npz", model)
    arrays, meta = load_arrays(tmp_path / "m.npz")
    bad = dict(arrays)
    bad[name] = arrays[name][:, 0] if name == "X" else arrays[name][..., :-1]
    save_arrays(tmp_path / "short.npz", bad, meta=meta)
    with pytest.raises(ValueError, match=f"array '{name}' has shape"):
        load_model(tmp_path / "short.npz")
    del bad[name]
    save_arrays(tmp_path / "missing.npz", bad, meta=meta)
    with pytest.raises(ValueError, match=f"no array '{name}'"):
        load_model(tmp_path / "missing.npz")


def test_load_model_rejects_other_archives(tmp_path):
    from genhjb.npzio import save_arrays
    p = tmp_path / "x.npz"
    save_arrays(p, {"a": np.zeros(3)}, meta={"kind": "other"})
    with pytest.raises(ValueError):
        load_model(p)
