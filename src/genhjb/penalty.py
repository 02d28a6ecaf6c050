"""Separable quadratic control penalty with box constraints.

r(u) = sum_j w_j u_j^2 on the box U = prod_j [lo_j, hi_j], with 0 in U.

The pointwise minimization that the HJB recursion needs,

    dual_value(lam) = min_{u in U} ( r(u) + <lam, u> ),

has the closed-form minimizer u*_j = clip(-lam_j / (2 w_j), lo_j, hi_j).
Since u = 0 is feasible and r(0) = 0, dual_value(lam) <= 0 for every lam.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_box


@dataclass(frozen=True)
class ControlPenalty:
    weights: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {w.shape}")
        lo, hi = check_box(self.u_min, self.u_max, w.size, "u_min", "u_max")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("penalty weights must be positive and finite")
        if np.any(lo > 0) or np.any(hi < 0):
            raise ValueError("control box must contain u = 0")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "u_min", lo)
        object.__setattr__(self, "u_max", hi)

    @property
    def n_u(self) -> int:
        return self.weights.size


def symmetric_box_penalty(weights, u_max) -> ControlPenalty:
    """Penalty on the symmetric box [-u_max, u_max] per channel."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    hi = np.broadcast_to(np.asarray(u_max, dtype=float), w.shape).copy()
    return ControlPenalty(weights=w, u_min=-hi, u_max=hi)


def _lam(p: ControlPenalty, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1:] != (p.n_u,):
        raise ValueError(f"expected trailing dimension {p.n_u}, got shape {lam.shape}")
    return lam


def u_star(p: ControlPenalty, lam) -> np.ndarray:
    """Minimizer of r(u) + <lam, u> over the box.

    ``lam`` may carry leading batch axes; the box is applied per channel.
    ``np.minimum`` and ``np.maximum`` are ``np.clip`` without its Python
    wrapper.  In this argument order a value equal to a bound stays as it
    is, so a signed zero keeps its sign; that is ``np.clip``'s own result
    on batches of one channel, what the HJB step passes.
    """
    lam = _lam(p, lam)
    return np.minimum(p.u_max, np.maximum(p.u_min, -lam / (2.0 * p.weights)))


def dual_value(p: ControlPenalty, lam):
    """min_u ( r(u) + <lam, u> ), always <= 0.  Batched over leading axes."""
    lam = _lam(p, lam)
    u = u_star(p, lam)
    out = np.sum(p.weights * u**2 + lam * u, axis=-1)
    return float(out) if out.ndim == 0 else out


def penalty_value(p: ControlPenalty, u):
    """r(u) = sum_j w_j u_j^2, batched over leading axes of u."""
    u = _lam(p, u)
    out = np.sum(p.weights * u**2, axis=-1)
    return float(out) if out.ndim == 0 else out
