"""The shared value checks of ``errors``, at every call site that uses them."""
import math
from dataclasses import replace

import numpy as np
import pytest

from genhjb import KernelSpec, fit, kernels, make_benchmark
from genhjb.dynamics import (ControlAffineSystem, StateGridSpec, generate_dataset,
                             simulate_closed_loop)
from genhjb.errors import ConfigError
from genhjb.evaluation import PipelineSpec, SweepSpec, rollout_steps, run_sweep
from genhjb.hjb import HjbConfig
from genhjb.penalty import ControlPenalty

SE1 = KernelSpec("squared-exponential", 1.0)
LINEAR_1D = make_benchmark("linear-1d")
GRID = StateGridSpec(bounds=((-1.0, 1.0),), counts=(5,))
DATASET = generate_dataset(LINEAR_1D.system, GRID, LINEAR_1D.stage_cost)
SWEEP = SweepSpec(
    base=PipelineSpec(bench=replace(LINEAR_1D, grid=GRID), kernel=SE1, gamma=1e-8,
                      hjb=HjbConfig(dt=0.01, horizon_steps=10)),
    variable="lengthscale", values=(1.0,), region_lo=[-1.0], region_hi=[1.0])


def _plant(epsilon):
    return ControlAffineSystem(name="p", n_x=1, n_u=1, drift=lambda x: [x[0]],
                               input_map=lambda x: [[1.0]], u_min=[-1.0], u_max=[1.0],
                               epsilon=epsilon)


def _rollout(**kw):
    args = {"dt": 0.01, "steps": 2, "control_interval": 1, **kw}
    return simulate_closed_loop(LINEAR_1D.system, lambda x: np.zeros(1), [0.5], **args)


# argument name, its rule, and a call that passes the value to it
SITES = {
    "system-epsilon": ("epsilon", "nonnegative", _plant),
    "target-epsilon": ("epsilon", "nonnegative",
                       lambda v: kernels._gram_and_targets(SE1, DATASET.X,
                                                           [DATASET.drift_labels[0]], v)),
    "rollout-dt": ("dt", "positive", lambda v: _rollout(dt=v)),
    "rollout-steps": ("steps", "count", lambda v: _rollout(steps=v)),
    "rollout-control_interval": ("control_interval", "count",
                                 lambda v: _rollout(control_interval=v)),
    "fit-gamma": ("gamma", "positive", lambda v: fit(DATASET, SE1, v, 0.01)),
    "fd-h": ("h", "positive", lambda v: kernels.fd_check_derivatives(SE1, [0.0], [1.0], h=v)),
    "duration": ("duration", "positive", lambda v: rollout_steps(v, 10.0, 1e-3)),
    "control_hz": ("control_hz", "positive", lambda v: rollout_steps(1.0, v, 1e-3)),
    "sim_dt": ("sim_dt", "positive", lambda v: rollout_steps(1.0, 10.0, v)),
    "sweep-jobs": ("jobs", "count", lambda v: run_sweep(SWEEP, jobs=v)),
}
# below each rule's range: 0 for a count or a positive number, -1 for a
# nonnegative one
OUT_OF_RANGE = {"nonnegative": [-1.0], "positive": [0.0, -1.0], "count": [0]}


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, rule, _) in SITES.items()
    for value in [True, "0.1", math.nan, math.inf, -math.inf] + OUT_OF_RANGE[rule]])
def test_a_bad_scalar_is_a_config_error_naming_the_argument(site, value):
    # True was read as 1 and a string reached numpy as an untyped TypeError
    name, _, call = SITES[site]
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        call(value)


def test_a_good_scalar_is_kept_as_the_helpers_float():
    assert type(_plant(np.float64(0.02)).epsilon) is float
    assert type(fit(DATASET, SE1, np.float64(1e-8), 0.01).gamma) is float
    assert rollout_steps(np.float64(1.0), 10, 1e-3) == (1000, 100)


# the two names each box check uses, and a call that passes it one box
BOX_SITES = {
    "grid": ("grid lower bounds", "grid upper bounds",
             lambda lo, hi: StateGridSpec(bounds=((lo, hi),), counts=(3,))),
    "penalty": ("u_min", "u_max",
                lambda lo, hi: ControlPenalty(weights=[1.0], u_min=[lo], u_max=[hi])),
}


@pytest.mark.parametrize("site", BOX_SITES)
@pytest.mark.parametrize("lo, hi, message", [
    (math.nan, 1.0, "{lo} must be finite"),
    (0.0, math.inf, "{hi} must be finite"),
    (-math.inf, 1.0, "{lo} must be finite"),
    (1.0, -1.0, "{lo} must not exceed {hi}"),
], ids=["nan-lo", "inf-hi", "minus-inf-lo", "empty"])
def test_a_bad_box_is_a_config_error_naming_the_bound(site, lo, hi, message):
    lo_name, hi_name, call = BOX_SITES[site]
    with pytest.raises(ConfigError, match="^" + message.format(lo=lo_name, hi=hi_name)):
        call(lo, hi)


def test_a_grid_keeps_its_bounds_as_floats_and_needs_one_per_count():
    grid = StateGridSpec(bounds=((np.float64(-1.0), 2),), counts=(3,))
    assert grid.bounds == ((-1.0, 2.0),)
    assert all(type(b) is float for b in grid.bounds[0])
    with pytest.raises(ConfigError, match="^grid lower bounds must have 2 entries, got 1"):
        StateGridSpec(bounds=((0.0, 1.0),), counts=(3, 3))
