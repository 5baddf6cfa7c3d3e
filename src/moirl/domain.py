"""Core data types: instances, expert trajectories, feasible weight sets.

An instance is a decision situation: a finite set of candidate action
vectors in feature space.  A trajectory records which action the expert
actually took on one instance.  All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Instance",
    "Trajectory",
    "TrajectorySet",
    "Box",
    "Ball",
    "Simplex",
    "FeasibleSet",
    "make_instance",
    "canonical_actions",
    "as_weights",
    "validate",
    "checked_decisions",
    "PackedInstances",
    "pack",
]


def as_weights(v, dim: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a finite 1-D float vector, optionally of length ``dim``."""
    w = np.asarray(v, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite (no NaN/Inf)")
    if dim is not None and w.size != dim:
        raise ValueError(f"weights have dimension {w.size}, expected {dim}")
    return w


def canonical_actions(actions) -> np.ndarray:
    """Deduplicate and lexicographically sort a list of action vectors.

    The canonical order makes serialization byte-stable and loading
    idempotent; duplicates are dropped with set semantics.  The result
    has the bits of ``np.unique(actions, axis=0)``.  Rows that already
    increase strictly, as in every file ``save_instances`` writes, are
    copied as they are.  Other rows get one stable ``np.lexsort`` and
    lose each row equal to the one before it.  Only an array holding a
    ``-0.0`` still goes through ``np.unique``: where two rows differ only
    in the sign of a zero, its unstable sort decides which one is kept.
    """
    arr = np.asarray(actions, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("actions must be a nonempty list of equal-length vectors")
    if not np.all(np.isfinite(arr)):
        raise ValueError("action vectors must be finite")
    if _strictly_increasing(arr):
        arr = arr.copy()
    elif np.any(np.signbit(arr[arr == 0])):
        arr = np.unique(arr, axis=0)
    else:
        # np.lexsort keys are compared last-first, so feed columns reversed.
        arr = arr[np.lexsort(arr.T[::-1])]
        keep = np.empty(arr.shape[0], dtype=bool)
        keep[0] = True
        np.any(arr[1:] != arr[:-1], axis=1, out=keep[1:])
        arr = arr[keep]
    arr.setflags(write=False)
    return arr


def _strictly_increasing(arr: np.ndarray) -> bool:
    """Whether each row is lexicographically greater than the one before.

    Compares with ``<``, as ``np.unique``'s sort does, so ``-0.0`` and
    ``0.0`` are equal.
    """
    prev, nxt = arr[:-1], arr[1:]
    first = (prev != nxt).argmax(axis=1)  # first differing column of each pair
    rows = np.arange(first.size)
    return bool(np.all(prev[rows, first] < nxt[rows, first]))


@dataclass(frozen=True)
class Instance:
    """A state together with its finite set of feasible action vectors.

    ``actions`` may be given in any order; it is stored canonically.
    """

    id: str
    actions: np.ndarray  # (n_actions, d), canonical order, read-only
    state: Any = None

    def __post_init__(self):
        object.__setattr__(self, "actions", canonical_actions(self.actions))

    @property
    def dim(self) -> int:
        return self.actions.shape[1]


def make_instance(id: str, actions, state: Any = None) -> Instance:
    return Instance(id=id, actions=actions, state=state)


@dataclass(frozen=True)
class Trajectory:
    """One expert decision: the action taken on the referenced instance."""

    instance_id: str
    action: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.action, dtype=float)
        if a.ndim != 1:
            raise ValueError("trajectory action must be a 1-D vector")
        a.setflags(write=False)
        object.__setattr__(self, "action", a)


@dataclass(frozen=True)
class TrajectorySet:
    """A nonempty collection of expert decisions (the empirical sample)."""

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if len(trajs) < 1:
            raise ValueError("trajectory set must contain at least one trajectory")
        object.__setattr__(self, "trajectories", trajs)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)


@dataclass(frozen=True, eq=False)
class PackedInstances:
    """A decision list's action sets stored end to end (CSR layout).

    Segment ``i`` is ``actions[starts[i] : starts[i] + sizes[i]]``, the
    canonical actions of the i-th instance.
    """

    actions: np.ndarray  # (total rows, d)
    starts: np.ndarray  # (N,) first row of each segment
    sizes: np.ndarray  # (N,) rows per segment, each >= 1

    @property
    def dim(self) -> int:
        return self.actions.shape[1]


def pack(insts: list[Instance]) -> PackedInstances:
    """Pack instances, one segment each and in order, for ``solve_packed``.

    A single instance is stored as its own actions array, not a copy.
    """
    dims = sorted({inst.dim for inst in insts})
    if len(dims) != 1:
        raise ValueError(f"instances have mixed dimensions {dims}")
    sizes = np.array([inst.actions.shape[0] for inst in insts])
    if len(insts) == 1:
        actions = insts[0].actions
    else:
        actions = np.concatenate([inst.actions for inst in insts])
    starts = np.zeros_like(sizes)
    np.cumsum(sizes[:-1], out=starts[1:])
    return PackedInstances(actions=actions, starts=starts, sizes=sizes)


def validate(ts: TrajectorySet, instances: Mapping[str, Instance]) -> list[str]:
    """Check a trajectory set against its instances; returns diagnostics.

    Returns an empty list iff every trajectory references a known
    instance, dimensions agree, and each expert action is exactly one of
    the instance's actions.  Never raises.
    """
    return _diagnose(ts, instances)[0]


def checked_decisions(
    ts: TrajectorySet, instances: Mapping[str, Instance]
) -> tuple[PackedInstances, np.ndarray]:
    """Each trajectory's instance, packed in order, and the (N, d) expert actions.

    The store is the one ``validate``'s membership test ran on, so
    callers solve on it without packing again.  Raises ValueError
    listing ``validate``'s diagnostics if there are any, or if the
    decisions have mixed dimensions.
    """
    problems, by_dim = _diagnose(ts, instances)
    if problems:
        raise ValueError("invalid trajectory data: " + "; ".join(problems))
    if len(by_dim) != 1:
        raise ValueError(f"instances have mixed dimensions {sorted(by_dim)}")
    (store, expert), = by_dim.values()
    return store, expert


def _diagnose(ts, instances):
    """``validate``'s diagnostics, and the packed store and expert actions
    of the decisions whose action dimension is their instance's, keyed by
    that dimension.  Each store's membership test is one row match
    against the repeated expert actions and one ``logical_or.reduceat``.
    """
    trajs = list(ts)
    insts = [instances.get(t.instance_id) for t in trajs]
    problems: dict[int, str] = {}
    groups: dict[int, list[int]] = {}
    for n, (traj, inst) in enumerate(zip(trajs, insts)):
        if inst is None:
            problems[n] = f"trajectory {n}: unknown instance id {traj.instance_id!r}"
        elif traj.action.shape[0] != inst.dim:
            problems[n] = (
                f"trajectory {n}: action dimension {traj.action.shape[0]} "
                f"!= instance dimension {inst.dim}"
            )
        else:
            groups.setdefault(inst.dim, []).append(n)
    by_dim = {}
    for d, rows in groups.items():
        store = pack([insts[n] for n in rows])
        expert = np.stack([trajs[n].action for n in rows])
        match = np.all(store.actions == np.repeat(expert, store.sizes, axis=0), axis=1)
        for j in np.flatnonzero(~np.logical_or.reduceat(match, store.starts)):
            traj = trajs[rows[j]]
            problems[rows[j]] = (
                f"trajectory {rows[j]}: action {traj.action.tolist()} is not in the "
                f"action set of instance {traj.instance_id!r}"
            )
        by_dim[d] = store, expert
    return [problems[n] for n in sorted(problems)], by_dim


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {v : lo <= v <= hi componentwise}."""

    lo: np.ndarray
    hi: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, Box)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball {v : ||v - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __eq__(self, other):
        return (
            isinstance(other, Ball)
            and np.array_equal(self.center, other.center)
            and self.radius == other.radius
        )

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise ValueError("ball center must be a 1-D vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("ball center must be finite")
        if not 0 < self.radius < np.inf:
            raise ValueError("ball radius must be positive and finite")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class Simplex:
    """Probability simplex {v >= 0 : sum v = 1} in the given dimension."""

    dimension: int

    def __post_init__(self):
        if int(self.dimension) < 1:
            raise ValueError("simplex dimension must be >= 1")
        object.__setattr__(self, "dimension", int(self.dimension))

    @property
    def dim(self) -> int:
        return self.dimension


FeasibleSet = Union[Box, Ball, Simplex]
