"""Euclidean projections onto the feasible weight sets (box, ball, simplex)."""

from __future__ import annotations

import numpy as np

from .domain import Ball, Box, FeasibleSet, Simplex

__all__ = ["project", "contains"]

MEMBERSHIP_TOL = 1e-12


def project(fs: FeasibleSet, v) -> np.ndarray:
    """Return the closest point of the feasible set to ``v`` in L2 norm."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape[0] != fs.dim:
        raise ValueError(f"point has dimension {x.shape}, set expects {fs.dim}")
    if isinstance(fs, Box):
        return np.clip(x, fs.lo, fs.hi)
    if isinstance(fs, Ball):
        offset = x - fs.center
        norm = float(np.linalg.norm(offset))
        if norm <= fs.radius:
            return x.copy()
        if np.isinf(norm):  # overflowed: scale by the largest coordinate first
            scale = max(np.abs(x).max(), np.abs(fs.center).max())
            offset = x / scale - fs.center / scale
            norm = float(np.linalg.norm(offset))
        return fs.center + offset * (fs.radius / norm)
    if isinstance(fs, Simplex):
        return _project_simplex(x)
    raise TypeError(f"unknown feasible set {type(fs).__name__}")


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Sort-then-threshold: O(d log d), exact up to rounding.
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    if not np.isfinite(css[-1]) and np.isfinite(v).all():
        # The sums overflowed.  A shift of every coordinate keeps the
        # projection, and one at least 1 below the largest projects to 0.
        return _project_simplex(np.maximum(v - v.max(), -1.0))
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def contains(fs: FeasibleSet, v, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership test with an absolute slack for rounding."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape[0] != fs.dim:
        return False
    if isinstance(fs, Box):
        return bool(np.all(x >= fs.lo - tol) and np.all(x <= fs.hi + tol))
    if isinstance(fs, Ball):
        return float(np.linalg.norm(x - fs.center)) <= fs.radius + tol
    if isinstance(fs, Simplex):
        return bool(np.all(x >= -tol) and abs(float(x.sum()) - 1.0) <= tol)
    raise TypeError(f"unknown feasible set {type(fs).__name__}")
