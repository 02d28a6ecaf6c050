"""Box-constrained quadratic control penalty: minimizer and dual."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genhjb.penalty import (ControlPenalty, dual_value, penalty_value,
                            symmetric_box_penalty, u_star)

HALF = symmetric_box_penalty([0.5], 1.0)  # r(u) = u^2/2 on [-1, 1]


def test_construction_validation():
    with pytest.raises(ValueError):
        ControlPenalty(weights=[0.0], u_min=[-1.0], u_max=[1.0])
    with pytest.raises(ValueError):
        ControlPenalty(weights=[1.0], u_min=[0.5], u_max=[1.0])  # 0 outside
    with pytest.raises(ValueError):
        ControlPenalty(weights=[1.0], u_min=[-np.inf], u_max=[1.0])
    with pytest.raises(ValueError):
        ControlPenalty(weights=[1.0, 2.0], u_min=[-1.0], u_max=[1.0])


def test_u_star_hand_examples():
    assert u_star(HALF, [0.0]) == pytest.approx([0.0])
    assert u_star(HALF, [0.5]) == pytest.approx([-0.5])   # interior
    assert u_star(HALF, [3.0]) == pytest.approx([-1.0])   # clipped


def test_dual_value_hand_examples():
    assert dual_value(HALF, [0.0]) == 0.0
    assert dual_value(HALF, [0.5]) == pytest.approx(-0.125, rel=1e-15)
    assert dual_value(HALF, [3.0]) == pytest.approx(-2.5, rel=1e-15)


def test_penalty_value():
    p = ControlPenalty(weights=[0.5, 2.0], u_min=[-1.0, -3.0], u_max=[2.0, 0.5])
    assert penalty_value(p, [2.0, 0.5]) == pytest.approx(0.5 * 4 + 2.0 * 0.25)


def test_dual_value_nonpositive_when_zero_feasible():
    rng = np.random.default_rng(0)
    p = ControlPenalty(weights=[0.7, 1.3], u_min=[-2.0, -0.5], u_max=[1.5, 1.0])
    lam = rng.normal(scale=3.0, size=(500, 2))
    assert np.all(dual_value(p, lam) <= 0.0)


def test_argmin_property_quantified():
    rng = np.random.default_rng(1)
    p = ControlPenalty(weights=[0.7, 1.3], u_min=[-2.0, -0.5], u_max=[1.5, 1.0])
    for _ in range(1000):
        lam = rng.normal(scale=3.0, size=2)
        u = rng.uniform(p.u_min, p.u_max)
        best = dual_value(p, lam)
        assert best <= np.sum(p.weights * u**2 + lam * u) + 1e-12


def test_grid_search_oracle():
    # brute force over 10^4 + 1 points of the box; closed form must agree to
    # the grid's resolution (quadratic near an interior minimum, exact at a
    # clipped endpoint since linspace includes the bounds)
    p = ControlPenalty(weights=[0.7], u_min=[-2.0], u_max=[1.5])
    ugrid = np.linspace(-2.0, 1.5, 10001)
    rng = np.random.default_rng(11)
    for lam in rng.uniform(-4, 4, size=50):
        brute = np.min(0.7 * ugrid**2 + lam * ugrid)
        assert dual_value(p, [lam]) == pytest.approx(brute, abs=1e-7)
        assert dual_value(p, [lam]) <= brute + 1e-12


def test_conjugate_gradient_identity():
    # Danskin: dual_value(lam) = -r*(-lam) has gradient u_star(lam); checked
    # by a central difference at interior points
    h = 1e-6
    for lam in (0.3, -0.6, 0.85):
        g = (dual_value(HALF, [lam + h]) - dual_value(HALF, [lam - h])) / (2 * h)
        assert g == pytest.approx(u_star(HALF, [lam])[0], abs=1e-6)


def test_dual_concavity_on_segments():
    rng = np.random.default_rng(2)
    p = ControlPenalty(weights=[0.5, 2.0], u_min=[-1.0, -3.0], u_max=[2.0, 0.5])
    for _ in range(300):
        l1 = rng.normal(scale=4.0, size=2)
        l2 = rng.normal(scale=4.0, size=2)
        mid = dual_value(p, 0.5 * (l1 + l2))
        assert mid >= 0.5 * (dual_value(p, l1) + dual_value(p, l2)) - 1e-12


def test_batched_shapes():
    lam = np.zeros((7, 4, 1))
    assert u_star(HALF, lam).shape == (7, 4, 1)
    assert dual_value(HALF, lam).shape == (7, 4)


def test_asymmetric_box_clipping():
    p = ControlPenalty(weights=[1.0], u_min=[-0.25], u_max=[2.0])
    assert u_star(p, [10.0]) == pytest.approx([-0.25])
    assert u_star(p, [-10.0]) == pytest.approx([2.0])


_ZEROS_AND_EDGES = [0.0, -0.0, 3.0, -3.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]


def _box(lo, hi):
    return ControlPenalty(weights=[0.5], u_min=[lo], u_max=[hi])


@settings(max_examples=300, deadline=None)
@given(lam=hnp.arrays(float, st.tuples(st.integers(2, 40), st.just(1)),
                      elements=st.one_of(st.sampled_from(_ZEROS_AND_EDGES),
                                         st.floats(allow_nan=True))),
       box=st.tuples(st.sampled_from([-1.5, -0.0, 0.0]), st.sampled_from([1.5, 0.0, -0.0])))
def test_u_star_is_np_clip_bit_for_bit_on_batches(lam, box):
    # the batches the HJB step and policy_on pass: (M, 1) against (1,) bounds,
    # signed zeros, NaN and infinities included
    p = _box(*box)
    want = np.clip(-lam / (2.0 * p.weights), p.u_min, p.u_max)
    assert np.array_equal(u_star(p, lam).view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(lam=hnp.arrays(float, st.sampled_from([(1,), (1, 1), (5, 1)]),
                      elements=st.one_of(st.sampled_from(_ZEROS_AND_EDGES),
                                         st.floats(allow_nan=True))),
       box=st.tuples(st.sampled_from([-1.5, -0.0, 0.0]), st.sampled_from([1.5, 0.0, -0.0])))
def test_u_star_keeps_a_value_equal_to_a_bound(lam, box):
    # one point gets the bits of its row in a batch, signed zeros included;
    # np.clip's loop for unbroadcast bounds gives a tie the bound's sign, so
    # a single query could differ from a batched one there
    p = _box(*box)
    got = u_star(p, lam)
    for v, u in zip((-lam / 1.0).ravel().tolist(), got.ravel().tolist()):
        t = box[0] if v < box[0] else v
        want = box[1] if t > box[1] else t
        assert np.array_equal(np.float64(u).view(np.uint64), np.float64(want).view(np.uint64))
    if lam.shape == (1,):
        assert np.array_equal(got.view(np.uint64),
                              u_star(p, np.vstack([lam, lam]))[0].view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(lam=hnp.arrays(float, st.sampled_from([(1,), (2,), (1, 2), (6, 2), (3, 4, 2)]),
                      elements=st.one_of(st.sampled_from(_ZEROS_AND_EDGES),
                                         st.floats(allow_nan=True))))
def test_u_star_is_np_clip_bit_for_bit_off_zero_bounds(lam):
    # where no bound is a zero, ties carry the bound's own bits, so every
    # shape and channel count matches np.clip
    p = ControlPenalty(weights=[0.7, 1.3], u_min=[-2.0, -0.5], u_max=[1.5, 3.0])
    if lam.shape[-1] != 2:
        p = ControlPenalty(weights=[0.7], u_min=[-2.0], u_max=[1.5])
    want = np.clip(-lam / (2.0 * p.weights), p.u_min, p.u_max)
    assert np.array_equal(u_star(p, lam).view(np.uint64), want.view(np.uint64))
