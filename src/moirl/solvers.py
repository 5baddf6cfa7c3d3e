"""Forward solvers: maximize a scalarized linear objective over a finite
action set, breaking ties by taking the lexicographically smallest
maximizer.  ``solve_packed`` handles a whole decision list packed once by
``domain.pack``; ``solve`` is its one-instance case.  Also instance generators
for explicit sets, 0/1 knapsacks, and polytope vertex lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Instance, PackedInstances, as_weights, make_instance

__all__ = [
    "ArgmaxResult",
    "KnapsackSpec",
    "solve",
    "solve_packed",
    "knapsack_instance",
    "polytope_vertex_instance",
    "DEFAULT_TIE_TOL",
]

DEFAULT_TIE_TOL = 1e-9

# Explicit enumeration bound for knapsack subsets (2^20 candidate vectors).
MAX_KNAPSACK_ITEMS = 20
KNAPSACK_LOW_ITEMS = 14  # items whose packings make up one block


@dataclass(frozen=True)
class ArgmaxResult:
    """Outcome of maximizing weights . action over an instance's actions."""

    optimal_value: float
    optimal_set: np.ndarray  # (n_tied, d), all actions within tie tolerance
    chosen: np.ndarray  # lexicographic minimum of optimal_set


def _argmax_segments(phi, store: PackedInstances, tie_tol: float):
    """Each segment's maximum score, the rows within tie tolerance of their
    segment's maximum, and each segment's first such row (row indices).

    One ``actions @ phi`` product scores every row.  With ``tie_tol > 0``
    a row ties if it scores at least ``best - tie_tol * max(1, |best|)``;
    ``tie_tol=0`` gives the exact argmax (meaningful when scores are
    exact floats, e.g. integer actions with dyadic-rational weights).
    Actions are in canonical order, so a segment's first tied row is the
    lexicographic minimum of its optimal set.
    """
    scores = _scores(phi, store, tie_tol)
    best = np.maximum.reduceat(scores, store.starts)
    threshold = _threshold(best, tie_tol)
    tied = np.flatnonzero(scores >= np.repeat(threshold, store.sizes))
    return best, tied, tied[np.searchsorted(tied, store.starts)]


def _scores(phi, store: PackedInstances, tie_tol: float) -> np.ndarray:
    """``store.actions @ phi``, after checking ``phi`` and ``tie_tol``."""
    w = as_weights(phi, store.dim)
    if not tie_tol >= 0:
        raise ValueError("tie tolerance must be nonnegative")
    return store.actions @ w


def _threshold(best, tie_tol: float):
    """The lowest score that ties with ``best`` (one value per segment)."""
    threshold = best
    if tie_tol > 0:
        threshold = best - tie_tol * np.maximum(1.0, np.abs(best))
    # A segment ties no row exactly when its threshold is NaN: a NaN score
    # makes its maximum NaN, an overflow to +inf with tie_tol > 0 gives
    # inf - inf, and any other threshold is at most the maximum.  Such a
    # segment would get the next segment's first tied row.
    if np.isnan(threshold).any():
        raise ValueError("empty candidate set")
    return threshold


_ONE_START = np.zeros(1, dtype=np.intp)


def solve(phi, inst: Instance, tie_tol: float = DEFAULT_TIE_TOL) -> ArgmaxResult:
    """Maximize ``phi . a`` over ``inst.actions``, lexicographic tie-break.

    The one-instance case of ``solve_packed``: the same kernel on a store
    that holds ``inst.actions`` itself, so the scores, the tie threshold
    and the choice are those of ``solve_packed(phi, pack([inst]), tie_tol)``
    bit for bit.  The optimal set holds every action within
    ``tie_tol * max(1, |optimal_value|)`` of the maximum.
    """
    store = PackedInstances(inst.actions, _ONE_START, np.array([len(inst.actions)]))
    best, tied, first = _argmax_segments(phi, store, tie_tol)
    return ArgmaxResult(float(best[0]), inst.actions[tied], inst.actions[first[0]].copy())


def solve_packed(phi, store: PackedInstances, tie_tol: float) -> np.ndarray:
    """``solve(phi, inst, tie_tol).chosen`` for every packed instance at
    once, as an (N, d) array scored by one product over the whole store.

    Across several instances the choice equals ``solve``'s whenever each
    row scores the same in the packed array as in its instance's own
    array: always for exact scores, e.g. integer actions with dyadic
    weights.  With inexact scores a BLAS may round a row's dot product by
    its position in the array (OpenBLAS does at d >= 8), and then two
    actions whose exact scores tie can be broken differently.

    A store of one segment gets the same row from one ``np.argmax`` over
    the same scores (the first maximum, or with ``tie_tol > 0`` the first
    row at or above the threshold), with no index of the tied rows.
    """
    if store.starts.size != 1:
        return store.actions[_argmax_segments(phi, store, tie_tol)[2]]
    scores = _scores(phi, store, tie_tol)
    top = np.argmax(scores)  # the first NaN, if there is one
    threshold = _threshold(scores[top], tie_tol)
    if tie_tol > 0:
        top = np.argmax(scores >= threshold)
    return store.actions[[top]]


@dataclass(frozen=True)
class KnapsackSpec:
    """0/1 knapsack feasibility: weights, capacity, per-item feature rows."""

    weights: np.ndarray  # (m,) nonnegative
    capacity: float
    item_features: np.ndarray  # (m, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        capacity = float(self.capacity)
        feats = np.asarray(self.item_features, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("knapsack needs at least one item")
        if feats.ndim != 2 or feats.shape[0] != w.size:
            raise ValueError("item_features must be an (m, d) matrix")
        for name, value in (("weights", w), ("capacity", capacity),
                            ("item_features", feats)):
            if not np.isfinite(value).all():
                raise ValueError(f"knapsack {name} must be finite")
        if np.any(w < 0) or capacity < 0:
            raise ValueError("knapsack weights and capacity must be nonnegative")
        w.setflags(write=False)
        feats.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "item_features", feats)


def knapsack_instance(spec: KnapsackSpec, id: str) -> Instance:
    """Enumerate all feasible 0/1 packings and materialize their feature sums.

    A packing's weight sum and feature sums add its items in index order,
    starting from ``+0.0``, so a sum never depends on where its row sits
    and is never ``-0.0``.  The sums over the low ``KNAPSACK_LOW_ITEMS``
    items are built once by doubling (packing p in row p); each block of
    packings adds its high items to those sums, in index order, and keeps
    the rows within the capacity.
    """
    m = spec.weights.size
    if m > MAX_KNAPSACK_ITEMS:
        raise ValueError("enumeration bound exceeded")
    low = min(m, KNAPSACK_LOW_ITEMS)
    w, f = np.zeros(1), np.zeros((1, spec.item_features.shape[1]))
    for j in range(low):
        w = np.concatenate((w, w + spec.weights[j]))
        f = np.concatenate((f, f + spec.item_features[j]))
    feasible = []
    for high in range(2 ** (m - low)):
        bw, bf = w, f
        for j in range(low, m):
            if high >> (j - low) & 1:
                bw, bf = bw + spec.weights[j], bf + spec.item_features[j]
        feasible.append(bf[bw <= spec.capacity])
    actions = np.concatenate(feasible)
    del feasible
    return make_instance(id, actions)


def polytope_vertex_instance(vertices, id: str) -> Instance:
    """Instance over a polytope given by its vertex list.

    A linear objective attains its maximum at a vertex, so enumerating
    vertices realizes the argmax over the whole polytope.
    """
    return make_instance(id, vertices)
