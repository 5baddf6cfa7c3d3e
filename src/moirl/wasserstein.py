"""Exact 1-Wasserstein distance between equal-size empirical measures,
plus the linear-family lower bound used by the action-imitation argument.

Both measures put mass 1/N on each of N points, so the optimal coupling
is an assignment.  Shared mass stays in place (Villani 2009, ch. 5-6), so
the Hungarian method runs only on the k points left over on each side; where
several assignments are optimal, the value can move in the last ulp.  W1 is
a metric, so it is 0 exactly when no mass is left over: equal measures need
no assignment, and scipy is imported only when one is solved.
"""

from __future__ import annotations

import math

import numpy as np

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


def _measures(mu, nu) -> tuple[np.ndarray, np.ndarray]:
    a = _as_points(mu)
    b = _as_points(nu)
    if a.shape != b.shape:
        raise ValueError(f"measure size mismatch: {a.shape} vs {b.shape}")
    return a, b


def _net_mass(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct points of two (N, d) arrays, in lexicographic order, and
    each one's count in ``a`` minus its count in ``b``.  The measures are
    equal (``-0.0`` equals ``0.0``) exactly when every count is 0."""
    both = np.concatenate([a, b])
    order = np.lexsort(both.T[::-1])
    pts = both[order]
    new = (pts[1:] != pts[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return pts[starts], np.add.reduceat(np.where(order < len(a), 1, -1), starts)


def _shrink(*arrays: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """The least k >= 0 at which the arrays' (N, d) points times 2**-k are
    below 2**510 / sqrt(d) in magnitude, and the points so scaled.

    Then no squared distance between two of them overflows, and scaling by a
    power of two changes no bit but the exponent, so a distance computed on
    them times 2**k is the one on the unscaled points.  k is 0, and the
    arrays are returned as they are, unless some point reaches that bound.
    """
    top = max(float(np.abs(x).max()) for x in arrays)
    d = arrays[0].shape[1]
    # |x - y|^2 <= 4 d top^2, below 2^1022 when top < 2^(510 - ceil(log2(d) / 2)).
    k = max(0, math.frexp(top)[1] - 510 + ((d - 1).bit_length() + 1) // 2)
    return k, [np.ldexp(x, -k) if k else x for x in arrays]


def _grow(value: float, k: int, what: str) -> float:
    """``value * 2**k``; ValueError if that is beyond the float range."""
    try:
        return math.ldexp(value, k)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None


def w1_exact(mu, nu) -> float:
    """Exact W1 between two uniform empirical measures of equal size.

    Returns min over permutations of (1/N) sum ||mu_i - nu_sigma(i)||_2,
    or raises ValueError if that is beyond the float range.  The value is
    0.0 only for equal measures, save where points of magnitude 2**510 and
    up sit beside unshared ones less than about 1e-168 apart (``_shrink``).
    """
    a, b = _measures(mu, nu)
    pts, net = _net_mass(a, b)
    if not net.any():
        return 0.0
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    k, (sources, sinks) = _shrink(np.repeat(pts, np.maximum(net, 0), axis=0),
                                  np.repeat(pts, np.maximum(-net, 0), axis=0))
    cost = cdist(sources, sinks)
    # Sources and sinks are distinct, but a difference below 2**-511 squares
    # to a subnormal or to 0 in cdist: distances below 2**-500 get a scaled
    # norm.  Flat indices, as a 2-D np.nonzero is about 10x slower here.
    i, j = np.unravel_index(np.flatnonzero(cost < 2.0**-500), cost.shape)
    cost[i, j] = np.hypot.reduce(sources[i] - sinks[j], axis=1)
    rows, cols = linear_sum_assignment(cost)
    # N terms, zeros for the shared mass: summed as an all-points mean is.
    costs = np.zeros(len(a))
    costs[: len(rows)] = cost[rows, cols]
    return _grow(float(costs.mean()), k, "W1")


def linear_dual_lower_bound(mu, nu) -> float:
    """Lower bound on W1 from the best 1-Lipschitz linear critic.

    Pairs points by index and returns ||mean(mu_i - nu_i)||, the value
    attained by the unit-norm linear reward aligned with the mean
    displacement.  Always <= w1_exact; equals 0 iff the mean difference
    vanishes (the multisets may still differ).
    """
    a, b = _measures(mu, nu)
    k, (a, b) = _shrink(a, b)
    norm = float(np.linalg.norm((a - b).mean(axis=0)))
    return _grow(norm, k, "the linear dual lower bound")
