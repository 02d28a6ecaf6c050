"""Checks on the program's outputs that do not reuse the code being measured.

Each function takes plain arrays or files, so the self-tests can feed them
deliberately broken inputs.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import scipy.linalg


def nonfinite_rows(U) -> int:
    """Rows of a (M, n) output array with any NaN or infinity."""
    U = np.asarray(U, dtype=float).reshape(len(U), -1)
    return int(np.count_nonzero(~np.all(np.isfinite(U), axis=1)))


def failed_rollouts(result: dict) -> int:
    """Diverged rollouts: run_cost_bench marks them with a NaN cost."""
    return int(np.count_nonzero(~np.isfinite(result["costs"])))


def swing_ups(final_states, angle_tol: float = 0.2, rate_tol: float = 0.5) -> int:
    """Pendulum rollouts that end upright and nearly at rest (criterion 5)."""
    finals = np.asarray(final_states, dtype=float)
    ok = np.all(np.isfinite(finals), axis=1)
    theta = np.angle(np.exp(1j * finals[ok, 0]))  # wrapped to (-pi, pi]
    return int(np.count_nonzero((np.abs(theta) < angle_tol)
                                & (np.abs(finals[ok, 1]) < rate_tol)))


def care_feedback(A, B, Q, R, u_min, u_max):
    """Clipped LQR feedback x -> clip(-R^-1 B' P x) from the continuous ARE."""
    A, B, Q, R = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, B, Q, R))
    P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    gain = np.linalg.solve(R, B.T @ P)
    return lambda X: np.clip(-np.asarray(X, dtype=float) @ gain.T, u_min, u_max)


def rmse(U, U_ref) -> float:
    """Root mean square of the per-state error norm; NaN rows make it NaN."""
    d = np.asarray(U, dtype=float).reshape(len(U), -1) \
        - np.asarray(U_ref, dtype=float).reshape(len(U_ref), -1)
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


def config_hash(raw: dict, excluded=("out_dir", "seed", "eval")) -> str:
    """The CLI's artifact hash, recomputed from the config mapping."""
    doc = {k: v for k, v in raw.items() if k not in excluded}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def csv_header_hash(path) -> str | None:
    """The ``# config_hash=`` value in a CSV artifact's first line."""
    with open(path) as fh:
        first = fh.readline().strip()
    prefix = "# config_hash="
    return first[len(prefix):] if first.startswith(prefix) else None
