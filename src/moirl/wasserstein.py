"""Exact 1-Wasserstein distance between equal-size empirical measures,
plus the linear-family lower bound used by the action-imitation argument.

Both measures put mass 1/N on each of N points, so the optimal coupling
is an assignment.  Shared mass stays in place (Villani 2009, ch. 5-6), so
the Hungarian method runs only on the k points left over on each side; where
several assignments are optimal, the value can move in the last ulp.
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
    if arr.ndim != 2 or min(arr.shape) < 1:
        raise ValueError("empirical measure needs a nonempty (N, d) point array")
    if not np.isfinite(arr).all():
        raise ValueError("empirical measure points must be finite")
    return arr


def w1_exact(mu, nu) -> float:
    """Exact W1 between two uniform empirical measures of equal size.

    Returns min over permutations of (1/N) sum ||mu_i - nu_sigma(i)||_2.
    """
    a = _as_points(mu)
    b = _as_points(nu)
    if a.shape != b.shape:
        raise ValueError(f"measure size mismatch: {a.shape} vs {b.shape}")
    both = np.concatenate([a, b])
    order = np.lexsort(both.T[::-1])
    pts = both[order]
    new = (pts[1:] != pts[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    net = np.add.reduceat(np.where(order < len(a), 1, -1), starts)
    if not net.any():
        return 0.0
    cost = cdist(np.repeat(pts[starts], np.maximum(net, 0), axis=0),
                 np.repeat(pts[starts], np.maximum(-net, 0), axis=0))
    rows, cols = linear_sum_assignment(cost)
    # N terms, zeros for the shared mass: summed as an all-points mean is.
    costs = np.zeros(len(a))
    costs[: len(rows)] = cost[rows, cols]
    return float(costs.mean())


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

