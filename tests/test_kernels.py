"""Kernel values, first-argument derivatives, and Gram assembly."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genhjb import kernels
from genhjb.errors import NumericalDomainError
from genhjb.generator import target_kernel_matrix
from genhjb.kernels import (SMOOTHING_RADIUS, KernelSpec, cross_kernel_matrix,
                            cross_kernel_vector, fd_check_derivatives,
                            grad_x1, gram_matrix, hess_trace_x1, value)

EXP_M1 = 0.36787944117144233

SE2 = KernelSpec("squared-exponential", 2.0)
SE1 = KernelSpec("squared-exponential", 1.0)
LAP1 = KernelSpec("smoothed-laplace", 1.0)


def test_value_zero_distance_is_one():
    assert value(SE2, [0.0, 0.0], [0.0, 0.0]) == 1.0
    assert value(LAP1, [3.0], [3.0]) == 1.0


def test_value_hand_examples():
    assert value(SE2, [0.0, 0.0], [2.0, 0.0]) == pytest.approx(EXP_M1, rel=1e-15)
    assert value(LAP1, [0.0], [1.0]) == pytest.approx(EXP_M1, rel=1e-15)


def test_value_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        value(SE1, [0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        grad_x1(SE1, [0.0, 1.0], [0.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("matern", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("squared-exponential", -1.0)


def test_grad_hand_examples():
    # d = x - y = (-2, 0): -(2/4)(-2) e^{-1} in the first slot
    g = grad_x1(SE2, [0.0, 0.0], [2.0, 0.0])
    assert g == pytest.approx([EXP_M1, 0.0], abs=1e-16)
    assert grad_x1(SE2, [0.7, -0.3], [0.7, -0.3]) == pytest.approx([0.0, 0.0])
    # on the diagonal the Laplace falls back to the narrow surrogate, still zero
    assert grad_x1(LAP1, [0.5], [0.5]) == pytest.approx([0.0])


def test_hess_trace_hand_examples():
    # ||d||^2 = n sigma^2 / 2 makes the two terms cancel exactly
    assert hess_trace_x1(SE2, [0.0, 0.0], [2.0, 0.0]) == pytest.approx(0.0, abs=1e-16)
    assert hess_trace_x1(SE1, [0.0], [0.0]) == pytest.approx(-2.0, rel=1e-15)
    # surrogate lengthscale sigma/100 at zero distance: -2 n ratio^2 / sigma^2
    lap2d = KernelSpec("smoothed-laplace", 1.0)
    assert hess_trace_x1(lap2d, [0.0, 0.0], [0.0, 0.0]) == pytest.approx(-40000.0,
                                                                         rel=1e-15)


def test_laplace_offdiagonal_formulas():
    x, y = np.array([0.0, 0.0]), np.array([0.6, -0.8])  # ||d|| = 1
    kv = np.exp(-1.0)
    g = grad_x1(LAP1, x, y)
    assert g == pytest.approx(-kv * (x - y), rel=1e-14)
    assert hess_trace_x1(LAP1, x, y) == pytest.approx(kv * (1.0 - 1.0), abs=1e-16)


def test_symmetry_sampled():
    rng = np.random.default_rng(0)
    for k in (SE2, LAP1):
        for _ in range(200):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert value(k, x, y) == value(k, y, x)


def test_grad_antisymmetry_radial():
    rng = np.random.default_rng(1)
    for k in (SE2, LAP1):
        for _ in range(100):
            x, y = rng.normal(size=2), rng.normal(size=2)
            np.testing.assert_allclose(grad_x1(k, x, y), -grad_x1(k, y, x),
                                       rtol=1e-13, atol=1e-16)


def test_gram_matrix_hand_example():
    K = gram_matrix(SE1, np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(K, [[1.0, EXP_M1], [EXP_M1, 1.0]], rtol=1e-15)
    np.testing.assert_allclose(gram_matrix(LAP1, np.array([[2.0, 1.0]])), [[1.0]])
    # duplicate points give the rank-1 all-ones block
    np.testing.assert_allclose(gram_matrix(SE1, np.array([[0.0], [0.0]])),
                               np.ones((2, 2)))


def test_gram_matrix_psd_and_symmetric():
    rng = np.random.default_rng(2)
    for k in (SE1, LAP1):
        X = rng.uniform(-3, 3, size=(40, 3))
        K = gram_matrix(k, X)
        np.testing.assert_allclose(K, K.T, atol=1e-15)
        assert np.all(np.diag(K) == 1.0)
        assert np.linalg.eigvalsh(K).min() >= -1e-10 * X.shape[0]


def test_cross_kernel_vector():
    X = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(cross_kernel_vector(SE1, X, np.array([0.5])),
                               [np.exp(-0.25)] * 2, rtol=1e-15)
    np.testing.assert_allclose(cross_kernel_vector(SE1, np.array([[0.0]]),
                                                   np.array([2.0])),
                               [np.exp(-4.0)], rtol=1e-15)
    # query equal to a data point puts a 1 in that slot
    v = cross_kernel_vector(LAP1, X, np.array([1.0]))
    assert v[1] == 1.0


@st.composite
def _query_cases(draw):
    """A kernel, up to 30 points in 1 to 5 dimensions and a query that is
    free, equal to a data point, or within SMOOTHING_RADIUS of one."""
    n_x = draw(st.integers(1, 5))
    X = draw(hnp.arrays(float, (draw(st.integers(1, 30)), n_x),
                        elements=st.floats(-5.0, 5.0)))
    family = draw(st.sampled_from(["squared-exponential", "smoothed-laplace"]))
    k = KernelSpec(family, draw(st.floats(0.1, 30.0)))
    kind = draw(st.sampled_from(["free", "equal", "near"]))
    if kind == "free":
        x = draw(hnp.arrays(float, n_x, elements=st.floats(-5.0, 5.0)))
    else:
        x = X[draw(st.integers(0, X.shape[0] - 1))].copy()
        if kind == "near":
            x[draw(st.integers(0, n_x - 1))] += 0.5 * SMOOTHING_RADIUS
    return k, X, x


@settings(max_examples=200, deadline=None)
@given(_query_cases())
def test_cross_kernel_vector_matches_matrix_column(case):
    k, X, x = case
    assert np.array_equal(cross_kernel_vector(k, X, x),
                          cross_kernel_matrix(k, X, x[None])[:, 0])


def test_cross_kernel_matrix_matches_value():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
    for k in (SE2, LAP1):
        C = cross_kernel_matrix(k, X, Y)
        for i in range(5):
            for j in range(4):
                assert C[i, j] == pytest.approx(value(k, X[i], Y[j]), rel=1e-14)


def test_target_matrix_matches_pointwise():
    # epsilon = 0 gives the advection part, zero drift with epsilon = 1 the
    # Hessian trace
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, size=(12, 3))
    F = rng.normal(size=(12, 3))
    for k in (SE2, LAP1):
        M = target_kernel_matrix(k, X, F, 0.0)
        H = target_kernel_matrix(k, X, np.zeros_like(F), 1.0)
        # abs floor covers diagonal roundoff amplified by the surrogate's
        # 2/s^2 factor; off-diagonal entries are O(1) so rel governs there
        for i in range(12):
            for j in range(12):
                assert M[i, j] == pytest.approx(F[i] @ grad_x1(k, X[i], X[j]),
                                                rel=1e-12, abs=1e-10)
                assert H[i, j] == pytest.approx(hess_trace_x1(k, X[i], X[j]),
                                                rel=1e-12, abs=1e-10)


@st.composite
def _target_cases(draw):
    """A kernel, up to 8 points in 1 to 5 dimensions, a drift field and an
    epsilon.  Points and drifts sit on a lattice of spacing 0.1, so two
    points either coincide (the surrogate's case) or are at least 0.1 apart,
    far beyond the finite-difference step."""
    n_x = draw(st.integers(1, 5))
    N = draw(st.integers(1, 8))
    X = 0.1 * draw(hnp.arrays(np.int64, (N, n_x), elements=st.integers(-10, 10)))
    F = 0.1 * draw(hnp.arrays(np.int64, (N, n_x), elements=st.integers(-30, 30)))
    family = draw(st.sampled_from(["squared-exponential", "smoothed-laplace"]))
    k = KernelSpec(family, draw(st.floats(0.5, 3.0)))
    return k, X, F, draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(_target_cases())
def test_target_matrix_matches_finite_differences(case):
    # an oracle built from kernel values alone: central differences of
    # cross_kernel_matrix along the drift and along each axis
    k, X, F, eps = case
    N, n = X.shape
    h = 1e-4
    T = target_kernel_matrix(k, X, F, eps)
    K = cross_kernel_matrix(k, X, X)
    for i in range(N):
        speed = np.linalg.norm(F[i])
        heading = F[i] / speed if speed > 0 else np.zeros(n)
        steps = np.vstack([heading, np.eye(n)]) * h
        up = cross_kernel_matrix(k, X[i] + steps, X)
        down = cross_kernel_matrix(k, X[i] - steps, X)
        advection = speed * (up[0] - down[0]) / (2.0 * h)
        laplacian = (up[1:] - 2.0 * K[i] + down[1:]).sum(axis=0) / h**2
        fd = advection + eps * laplacian
        # fd_check_derivatives' floor: k / sigma per unit of drift for the
        # gradient, n k / sigma^2 for the Hessian trace
        floor = K[i] * (speed / k.sigma + eps * n / k.sigma**2)
        scale = np.maximum(np.maximum(np.abs(T[i]), np.abs(fd)), floor)
        far = np.linalg.norm(X[i] - X, axis=1) > SMOOTHING_RADIUS
        assert np.all(np.abs(T[i] - fd)[far] <= 1e-5 * scale[far])


def test_fd_agreement_away_from_smoothing():
    rng = np.random.default_rng(5)
    for k in (SE2, SE1, LAP1):
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            y = rng.uniform(-2, 2, size=3)
            rep = fd_check_derivatives(k, x, y, h=1e-5)
            assert rep["grad_rel_err"] <= 1e-5
            assert rep["hess_trace_rel_err"] <= 1e-5


def test_fd_agreement_hand_cases():
    rep = fd_check_derivatives(SE2, [0.3, -1.1], [0.9, 0.4], h=1e-5)
    assert rep["grad_rel_err"] <= 1e-6
    rep = fd_check_derivatives(LAP1, [0.0, 0.0], [0.6, -0.8], h=1e-6)
    assert rep["grad_rel_err"] <= 1e-5
    rep = fd_check_derivatives(SE2, [0.5, 0.5], [0.5, 0.5], h=1e-5)
    assert rep["grad_rel_err"] <= 1e-8


def test_finite_everywhere_including_diagonal():
    pts = [np.zeros(2), np.array([1e-9, 0.0]), np.array([5.0, -5.0])]
    for k in (SE2, LAP1):
        for x in pts:
            for y in pts:
                assert np.isfinite(value(k, x, y))
                assert np.all(np.isfinite(grad_x1(k, x, y)))
                assert np.isfinite(hess_trace_x1(k, x, y))


def test_target_matrix_diagonal_uses_surrogate():
    # the (i, i) entries of the Laplace target must agree with the pointwise
    # surrogate, not blow up on r = 0
    X = np.array([[0.0, 0.0], [1.0, 2.0]])
    H = target_kernel_matrix(LAP1, X, np.zeros_like(X), 1.0)
    assert H[0, 0] == pytest.approx(-40000.0, rel=1e-13)
    M = target_kernel_matrix(LAP1, X, np.ones((2, 2)), 0.0)
    assert M[0, 0] == 0.0


@pytest.mark.parametrize("system, sigma, want", [
    ("pendulum", 25.0, -1.92), ("cartpole", 15.0, -4.44)])
def test_drift_target_diagonal_is_the_surrogate_hessian_trace(system, sigma, want):
    # -2 n eps (SMOOTHING_RATIO / sigma)^2 on the pendulum's 12 x 12 grid and
    # a 300-point cartpole design; <f(x_i), x_i - x_i> is a difference of two
    # products, so the diagonal holds to rounding, not bitwise
    from genhjb import make_benchmark
    from genhjb.dynamics import dataset_from_states
    from genhjb.systems import cartpole_default_grid, pendulum_default_grid
    bench = make_benchmark(system)
    X = (pendulum_default_grid(12, 12).states() if system == "pendulum"
         else cartpole_default_grid().sample_states(300, seed=1))
    ds = dataset_from_states(bench.system, X, bench.stage_cost)
    n, eps = ds.n_x, bench.system.epsilon
    diag = -2.0 * n * eps * (kernels.SMOOTHING_RATIO / sigma) ** 2
    assert diag == pytest.approx(want, abs=5e-3)
    labels = ds.drift_labels
    _, (T_A, T_B) = kernels._gram_and_targets(
        KernelSpec("smoothed-laplace", sigma), ds.X, [labels[0], labels[1] - labels[0]], eps)
    np.testing.assert_allclose(np.diag(T_A), diag, rtol=1e-10, atol=0)
    # the input target has no eps term: its diagonal is rounding alone
    assert np.abs(np.diag(T_B)).max() <= 1e-10 * abs(diag)


def test_target_matrix_by_small_row_blocks(monkeypatch):
    # three-row blocks: the pointwise test's 12 points make four blocks, the
    # finite-difference cases' up to 8 points end on a ragged block
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 3)
    test_target_matrix_matches_pointwise()
    test_target_matrix_matches_finite_differences()
    test_target_matrix_diagonal_uses_surrogate()


@pytest.mark.parametrize("k", [SE2, LAP1])
def test_target_row_blocks_give_the_same_bits(k, monkeypatch):
    # duplicate points put the Laplace surrogate in several blocks
    rng = np.random.default_rng(6)
    X = rng.uniform(-2, 2, size=(40, 3))
    X[[5, 17, 38]] = X[[0, 2, 33]]
    fields = [rng.normal(size=X.shape) for _ in range(2)]
    K, want = kernels._gram_and_targets(k, X, fields, 0.3)
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
    K3, got = kernels._gram_and_targets(k, X, fields, 0.3)
    assert np.array_equal(K3, K) and np.array_equal(got, want)


@pytest.mark.parametrize("rows", [3, kernels.BLOCK_ROWS])
def test_nonfinite_target_reports_its_global_index(rows, monkeypatch):
    # the drift at point 7 overflows against point 4 only, so entry (7, 4)
    # is the single non-finite one, in the third block of three rows
    monkeypatch.setattr(kernels, "BLOCK_ROWS", rows)
    X = np.linspace(0.0, 1.0, 10)[:, None]
    X[4] = 3.0
    F = np.zeros_like(X)
    F[7] = 1e308
    with pytest.raises(NumericalDomainError, match=r"\(7, 4\)") as info:
        target_kernel_matrix(SE2, X, F, 0.0)
    assert info.value.where == (7, 4)


@pytest.mark.parametrize("k", [SE2, LAP1])
@pytest.mark.parametrize("rows", [7, kernels.BLOCK_ROWS])
def test_gram_and_target_products_match_the_whole_targets(k, rows, monkeypatch):
    # the Gram matrix is the same bits; each product is the input target,
    # built whole without its diffusion term, times the vector
    monkeypatch.setattr(kernels, "BLOCK_ROWS", rows)
    rng = np.random.default_rng(8)
    X = rng.uniform(-2, 2, size=(40, 3))
    X[[5, 17]] = X[[0, 33]]
    fields = [rng.normal(size=X.shape) for _ in range(2)]
    v = rng.standard_normal(40)
    K, got = kernels._gram_and_target_products(k, X, fields, v)
    assert np.array_equal(K, kernels.gram_matrix(k, X))
    for f, F in enumerate(fields):
        want = target_kernel_matrix(k, X, F, 0.0) @ v
        np.testing.assert_allclose(got[f], want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
