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
    "KnapsackSpec",
    "solve",
    "solve_packed",
    "knapsack_instance",
    "polytope_vertex_instance",
]

# Explicit enumeration bound for knapsack subsets (2^20 candidate vectors).
MAX_KNAPSACK_ITEMS = 20
KNAPSACK_LOW_ITEMS = 14  # items whose packings make up one block


@dataclass(frozen=True)
class ArgmaxResult:
    """Outcome of maximizing weights . action over an instance's actions."""

    optimal_value: float
    optimal_set: np.ndarray  # (n_tied, d), every action scoring optimal_value
    chosen: np.ndarray  # lexicographic minimum of optimal_set


def check_tie_tol(tie_tol) -> None:
    """Raise ValueError unless ``tie_tol`` is 0.

    Every solve breaks ties exactly: only then is each chosen action a
    maximizer, and the mean of chosen minus expert actions a subgradient
    of the training objective.  ``solve``, ``reward_gap_report`` and
    ``RunConfig`` keep a ``tie_tol`` argument for callers that pass 0.
    """
    if not tie_tol == 0:
        raise ValueError(f"tie_tol must be 0 (ties are broken exactly), "
                         f"got {tie_tol!r}")


def _argmax_segments(phi, store: PackedInstances):
    """Each segment's maximum score, the rows that score it, and each
    segment's first such row (row indices).

    One ``actions @ phi`` product scores every row.  Ties are exact
    (meaningful when scores are exact floats, e.g. integer actions with
    dyadic-rational weights).  Actions are in canonical order, so a
    segment's first tied row is the lexicographic minimum of its optimal
    set.
    """
    scores = store.actions @ as_weights(phi, store.dim)
    best = np.maximum.reduceat(scores, store.starts)
    _check_candidates(best)
    tied = np.flatnonzero(scores == np.repeat(best, store.sizes))
    return best, tied, tied[np.searchsorted(tied, store.starts)]


def _check_candidates(best) -> None:
    """Raise if a segment's maximum score ``best`` is NaN: a NaN score
    makes its maximum NaN, and then no row ties with it.  Such a segment
    would get the next segment's first tied row."""
    if np.isnan(best).any():
        raise ValueError("empty candidate set")


_ONE_START = np.zeros(1, dtype=np.intp)


def solve(phi, inst: Instance, tie_tol: float = 0.0) -> ArgmaxResult:
    """Maximize ``phi . a`` over ``inst.actions``, lexicographic tie-break.

    The one-instance case of ``solve_packed``: the same kernel on a store
    that holds ``inst.actions`` itself, so the scores and the choice are
    those of ``solve_packed(phi, pack([inst]))`` bit for bit.  The optimal
    set holds every action that scores exactly the maximum.  ``tie_tol``
    must be 0.
    """
    check_tie_tol(tie_tol)
    store = PackedInstances(inst.actions, _ONE_START, np.array([len(inst.actions)]))
    best, tied, first = _argmax_segments(phi, store)
    return ArgmaxResult(float(best[0]), inst.actions[tied], inst.actions[first[0]].copy())


def solve_packed(phi, store: PackedInstances) -> np.ndarray:
    """``solve(phi, inst).chosen`` for every packed instance at once, as
    an (N, d) array scored by one product over the whole store.

    Across several instances the choice equals ``solve``'s whenever each
    row scores the same in the packed array as in its instance's own
    array: always for exact scores, e.g. integer actions with dyadic
    weights.  With inexact scores a BLAS may round a row's dot product by
    its position in the array (OpenBLAS does at d >= 8), and then two
    actions whose exact scores tie can be broken differently.

    A store of one segment gets the same row, the first maximum, from one
    ``np.argmax`` over the same scores, with no index of the tied rows.
    """
    if store.starts.size != 1:
        return store.actions[_argmax_segments(phi, store)[2]]
    scores = store.actions @ as_weights(phi, store.dim)
    top = np.argmax(scores)  # the first NaN, if there is one
    _check_candidates(scores[top])
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
