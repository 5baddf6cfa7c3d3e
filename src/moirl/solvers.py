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
KNAPSACK_BLOCK = 2**14  # packings enumerated per block


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
    w = as_weights(phi, store.dim)
    if not tie_tol >= 0:
        raise ValueError("tie tolerance must be nonnegative")
    scores = store.actions @ w
    best = np.maximum.reduceat(scores, store.starts)
    threshold = best
    if tie_tol > 0:
        threshold = best - tie_tol * np.maximum(1.0, np.abs(best))
    # A segment ties no row exactly when its threshold is NaN: a NaN score
    # makes its maximum NaN, an overflow to +inf with tie_tol > 0 gives
    # inf - inf, and any other threshold is at most the maximum.  Such a
    # segment would get the next segment's first tied row.
    if np.isnan(threshold).any():
        raise ValueError("empty candidate set")
    tied = np.flatnonzero(scores >= np.repeat(threshold, store.sizes))
    return best, tied, tied[np.searchsorted(tied, store.starts)]


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
    """
    return store.actions[_argmax_segments(phi, store, tie_tol)[2]]


@dataclass(frozen=True)
class KnapsackSpec:
    """0/1 knapsack feasibility: weights, capacity, per-item feature rows."""

    weights: np.ndarray  # (m,) nonnegative
    capacity: float
    item_features: np.ndarray  # (m, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        feats = np.asarray(self.item_features, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("knapsack needs at least one item")
        if np.any(w < 0) or self.capacity < 0:
            raise ValueError("knapsack weights and capacity must be nonnegative")
        if feats.ndim != 2 or feats.shape[0] != w.size:
            raise ValueError("item_features must be an (m, d) matrix")
        w.setflags(write=False)
        feats.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "capacity", float(self.capacity))
        object.__setattr__(self, "item_features", feats)


def knapsack_instance(spec: KnapsackSpec, id: str) -> Instance:
    """Enumerate all feasible 0/1 packings and materialize their feature sums.

    Packings are enumerated in blocks of ``KNAPSACK_BLOCK`` rows of
    ``uint8`` item masks (bit j of packing p in column j), so only the
    feasible masks are kept whole.  Blocks start at multiples of a power
    of two, so a row keeps its index modulo the small row groups a BLAS
    kernel may round by (see ``solve_packed``) and its weight sum keeps
    the bits of one product over all packings.  The feature sums stay
    one product over all feasible packings: OpenBLAS rounds a row of
    that product differently with the matrix's size.
    """
    m = spec.weights.size
    if m > MAX_KNAPSACK_ITEMS:
        raise ValueError("enumeration bound exceeded")
    feasible = []
    for start in range(0, 2**m, KNAPSACK_BLOCK):
        packings = np.arange(start, min(start + KNAPSACK_BLOCK, 2**m), dtype="<u4")
        masks = np.unpackbits(
            packings.view(np.uint8).reshape(-1, 4), axis=1, count=m, bitorder="little"
        )
        feasible.append(masks[masks @ spec.weights <= spec.capacity])
    return make_instance(id, np.concatenate(feasible) @ spec.item_features)


def polytope_vertex_instance(vertices, id: str) -> Instance:
    """Instance over a polytope given by its vertex list.

    A linear objective attains its maximum at a vertex, so enumerating
    vertices realizes the argmax over the whole polytope.
    """
    return make_instance(id, vertices)
