"""Core data types: instances, expert trajectories, feasible weight sets.

An instance is a decision situation: a finite set of candidate action
vectors in feature space.  A trajectory records which action the expert
actually took on one instance.  All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Union

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
    "make_instances",
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
    idempotent; duplicates are dropped with set semantics.  Rows that
    differ only in the sign of a zero are duplicates, and the result has
    the bits of ``np.unique(actions, axis=0)``, never ``actions`` itself.
    """
    arr = np.asarray(actions, dtype=float)
    out, _ = _canonical_segments(arr, np.array(arr.shape[:1]))
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


def _increasing(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Whether each row of ``a`` is the first of its segment (``starts``
    holds those rows) or lexicographically greater than the row before
    it, built up from the last column.  It compares with ``<``, as
    ``np.unique``'s sort does, so ``-0.0`` and ``0.0`` are equal."""
    prev, nxt = a[:-1], a[1:]
    increasing = np.ones(len(a), dtype=bool)
    increasing[1:] = prev[:, -1] < nxt[:, -1]
    for j in range(a.shape[1] - 2, -1, -1):
        increasing[1:] = (prev[:, j] < nxt[:, j]) | (
            (prev[:, j] == nxt[:, j]) & increasing[1:])
    increasing[starts] = True
    return increasing


def _canonical_segments(arr: np.ndarray, sizes: np.ndarray):
    """Canonicalise each segment of ``arr`` (runs of ``sizes`` rows, end to
    end); returns the result, ``arr`` itself when every segment is
    canonical already, and the new segment sizes.

    An input holding a ``-0.0`` goes through ``np.unique`` segment by
    segment: where two rows differ only in the sign of a zero, its
    unstable sort decides which one is kept.  Any other input gets one
    integer sort key, (segment, then each column's rank among its
    distinct values) in mixed radix, re-ranked before it could overflow;
    equal keys mean equal rows, so one unstable ``np.argsort`` of it
    orders the rows, and each row whose key equals the one before it is
    dropped.
    """
    if arr.ndim != 2 or arr.shape[1] < 1 or np.any(sizes < 1):
        raise ValueError("actions must be a nonempty list of equal-length vectors")
    if sizes.sum() != len(arr):
        raise ValueError(f"segment sizes add up to {sizes.sum()} rows, "
                         f"but there are {len(arr)} action rows")
    if not np.isfinite(arr).all():
        raise ValueError("action vectors must be finite")
    starts = np.cumsum(sizes) - sizes
    if _increasing(arr, starts).all():
        return arr, sizes
    if np.signbit(arr[arr == 0]).any():
        segs = [np.unique(seg, axis=0) for seg in np.split(arr, starts[1:])]
        return np.concatenate(segs), np.array([len(seg) for seg in segs])
    seg = np.repeat(np.arange(sizes.size), sizes)
    key, top = seg, sizes.size
    for col in arr.T:
        values, rank = np.unique(col, return_inverse=True)
        if top * len(values) >= 2**62:
            distinct, key = np.unique(key, return_inverse=True)
            top = len(distinct)
        key, top = key * len(values) + rank, top * len(values)
    order = np.argsort(key)
    key = key[order]
    first = order[np.concatenate(([True], key[1:] != key[:-1]))]
    return np.take(arr, first, axis=0), np.bincount(seg[first], minlength=sizes.size)


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


def make_instances(ids, actions, sizes, states=None) -> list[Instance]:
    """One instance per id, in order: instance ``i`` holds the canonical
    form of the next ``sizes[i]`` rows of the (rows, d) ``actions``.

    ``ids``, ``sizes`` and ``states`` (if given) must have one length and
    ``sizes`` must add up to the rows of ``actions``, or ValueError is
    raised.  Each action set has the bits of ``canonical_actions`` on its
    segment, signed zeros included.  The instances hold read-only views
    of one array; that is ``actions`` itself, made read-only, when it is
    a float array whose segments are all canonical already.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if states is None:
        states = [None] * len(ids)
    if not len(ids) == len(sizes) == len(states):
        raise ValueError(f"there are {len(ids)} ids, {len(sizes)} sizes and "
                         f"{len(states)} states; expected one of each per instance")
    arr, sizes = _canonical_segments(np.asarray(actions, dtype=float), sizes)
    arr.setflags(write=False)
    ends = np.cumsum(sizes).tolist()
    return [
        _instance(iid, arr[end - n : end], state)
        for iid, n, end, state in zip(ids, sizes.tolist(), ends, states)
    ]


def _instance(id: str, actions: np.ndarray, state: Any) -> Instance:
    """An ``Instance`` on actions already canonical and read-only."""
    inst = object.__new__(Instance)
    object.__setattr__(inst, "id", id)
    object.__setattr__(inst, "actions", actions)
    object.__setattr__(inst, "state", state)
    return inst


class Trajectory(NamedTuple):
    """One expert decision: the action taken on the referenced instance."""

    instance_id: str
    action: np.ndarray


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """A nonempty sample of expert decisions (the empirical measure):
    decision ``n`` took action ``actions[n]`` on instance ``instance_ids[n]``.

    Iterating yields one ``Trajectory`` per decision, in order.
    """

    instance_ids: tuple[str, ...]
    actions: np.ndarray  # (N, d), read-only

    def __post_init__(self):
        ids = tuple(self.instance_ids)
        a = np.asarray(self.actions, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("trajectory actions must be a nonempty (N, d) array")
        if len(ids) != a.shape[0]:
            raise ValueError(f"{len(ids)} instance ids for {a.shape[0]} actions")
        a.setflags(write=False)
        object.__setattr__(self, "instance_ids", ids)
        object.__setattr__(self, "actions", a)

    def __len__(self) -> int:
        return len(self.instance_ids)

    def __iter__(self):
        return map(Trajectory, self.instance_ids, self.actions)


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
    if not insts:
        raise ValueError("there are no instances to pack")
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
    listing ``validate``'s diagnostics if there are any.
    """
    problems, store, expert = _diagnose(ts, instances)
    if problems:
        raise ValueError("invalid trajectory data: " + "; ".join(problems))
    return store, expert


def _diagnose(ts, instances):
    """``validate``'s diagnostics, and the packed store and expert actions
    of the decisions whose instance is known and as wide as the actions
    (None and None if there are none).  The membership test matches
    column 0 against each segment's expert action first, then the whole
    row on those candidate rows only, with ``==`` throughout.
    """
    d = ts.actions.shape[1]
    insts = [instances.get(iid) for iid in ts.instance_ids]
    problems: dict[int, str] = {}
    for n, (iid, inst) in enumerate(zip(ts.instance_ids, insts)):
        if inst is None:
            problems[n] = f"trajectory {n}: unknown instance id {iid!r}"
        elif inst.dim != d:
            problems[n] = (
                f"trajectory {n}: action dimension {d} "
                f"!= instance dimension {inst.dim}"
            )
    rows = [n for n in range(len(insts)) if n not in problems]
    if not rows:
        return [problems[n] for n in sorted(problems)], None, None
    store = pack([insts[n] for n in rows])
    expert = ts.actions[rows] if problems else ts.actions
    cand = np.flatnonzero(store.actions[:, 0] == np.repeat(expert[:, 0], store.sizes))
    seg = np.searchsorted(store.starts, cand, side="right") - 1
    found = np.zeros(len(rows), dtype=bool)
    found[seg[np.all(store.actions[cand] == expert[seg], axis=1)]] = True
    for j in np.flatnonzero(~found):
        n = rows[j]
        problems[n] = (
            f"trajectory {n}: action {expert[j].tolist()} is not in the "
            f"action set of instance {ts.instance_ids[n]!r}"
        )
    return [problems[n] for n in sorted(problems)], store, expert


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
