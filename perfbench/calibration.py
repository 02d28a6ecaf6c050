"""Timings at a reference machine speed, from calibration units run beside them.

This box switches between faster and slower states for seconds to minutes at
a time as other tenants load the host; the same rollout takes 0.13 s in one
state and 0.22 s in another.  For work that comes in many short, equal
pieces (rollouts, blocks of policy queries) a run times a fixed unit of
similar work that does not touch genhjb at the boundaries between pieces,
and reports a piece as

    seconds * REF_S[kind] / (median time of the units beside it),

the time it would take on a machine where the unit takes REF_S[kind].  The
host's state slows the piece and the units beside it alike and cancels.  A
change to genhjb moves the piece and not the unit, so it shows in full.

There is one unit per kind of piece, because the host's state slows
interpreted Python more than vectorised numpy:

- ``rollout``: a loop of steps on tiny arrays, as in the simulator, plus a
  few distance-kernel rows over 2500 points, as in the policy it calls;
- ``query``: distance-kernel rows over 2500 points and a dot product, as in
  a single-state policy query.
"""
from __future__ import annotations

import time

import numpy as np

# reference time of one unit of each kind, about its time on this box
REF_S = {"rollout": 4.0e-3, "query": 3.0e-3}

_rng = np.random.default_rng(20241201)
_A = 0.1 * _rng.standard_normal((2, 2))
_X = _rng.standard_normal((2500, 3))


def _kernel_row(i: int) -> float:
    return float(np.exp(-np.sqrt(((_X - _X[i]) ** 2).sum(axis=1))) @ _X[:, 0])


def rollout_unit() -> float:
    """Seconds of 300 tiny-array steps and 10 kernel rows."""
    t0 = time.perf_counter()
    x = np.zeros(2)
    acc = 0.0
    for _ in range(300):
        x = x + 1e-3 * (_A @ x + 1.0)
        acc += float(np.sum(x * x))
    for i in range(10):
        acc += _kernel_row(i)
    return time.perf_counter() - t0


def query_unit() -> float:
    """Seconds of 30 kernel rows."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30):
        acc += _kernel_row(i)
    return time.perf_counter() - t0


UNITS = {"rollout": rollout_unit, "query": query_unit}


def sample(kind: str, n: int) -> list:
    """Seconds of ``n`` units of ``kind`` run one after another."""
    unit = UNITS[kind]
    return [unit() for _ in range(n)]


def at_reference(seconds, cal, kind: str) -> float:
    """``seconds`` at reference speed, given units of ``kind`` timed beside it."""
    return float(seconds) * REF_S[kind] / float(np.median(cal))


def total_at_reference(seconds: list, cals: list, kind: str) -> float:
    """Equal pieces of work at reference speed, each with its own units:
    their count times the median of their reference times."""
    ref = [at_reference(s, c, kind) for s, c in zip(seconds, cals)]
    return len(ref) * float(np.median(ref))
