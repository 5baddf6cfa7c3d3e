"""Exact 1-Wasserstein distance between equal-size empirical measures,
plus the linear-family lower bound used by the action-imitation argument.

Both measures put mass 1/N on each of N points, so the optimal coupling
is an assignment; we solve it exactly with the Hungarian method.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

__all__ = [
    "w1_exact",
    "linear_dual_lower_bound",
]


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("empirical measure needs a nonempty (N, d) point array")
    return arr


def w1_exact(mu, nu) -> float:
    """Exact W1 between two uniform empirical measures of equal size.

    Returns min over permutations of (1/N) sum ||mu_i - nu_sigma(i)||_2.
    """
    a = _as_points(mu)
    b = _as_points(nu)
    if a.shape != b.shape:
        raise ValueError(f"measure size mismatch: {a.shape} vs {b.shape}")
    cost = cdist(a, b)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def linear_dual_lower_bound(mu, nu, f_lip: float = 1.0) -> float:
    """Lower bound on W1 from the best linear critic of bounded slope.

    Pairs points by index and returns ||mean(mu_i - nu_i)|| / f_lip,
    the value attained by the unit-norm linear reward aligned with the
    mean displacement.  Always <= w1_exact; equals 0 iff the mean
    difference vanishes (the multisets may still differ).
    """
    a = _as_points(mu)
    b = _as_points(nu)
    if a.shape != b.shape:
        raise ValueError(f"measure size mismatch: {a.shape} vs {b.shape}")
    if not f_lip > 0:
        raise ValueError("Lipschitz constant must be positive")
    return float(np.linalg.norm((a - b).mean(axis=0))) / f_lip

