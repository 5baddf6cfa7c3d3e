"""JSON/CSV loading and saving for all on-disk formats.

All files are UTF-8 with LF newlines; floats serialize in shortest
round-trip decimal form (Python's float repr), so save -> load is
bit-identical and repeated saves of the same data are byte-identical.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .domain import (
    Ball,
    Box,
    FeasibleSet,
    Instance,
    Simplex,
    Trajectory,
    TrajectorySet,
    make_instance,
    make_instances,
)
from .learner import RunConfig, RunLog, StepSchedule

__all__ = [
    "SchemaError",
    "load_instances",
    "save_instances",
    "load_trajectories",
    "save_trajectories",
    "load_feasible_set",
    "save_feasible_set",
    "load_run_config",
    "load_train_config",
    "load_ground_truth",
    "load_json",
    "save_json",
    "save_run_config",
    "load_manifest",
    "save_manifest",
    "write_runlog_csv",
    "read_runlog_csv",
    "write_summary",
    "read_summary",
]


class SchemaError(ValueError):
    """A file parsed as JSON but violated the expected schema."""

    def __init__(self, path: str, message: str):
        self.pointer = path
        super().__init__(f"{path}: {message}")


def _reject_constant(name: str):
    raise SchemaError("", f"non-finite number {name} is not allowed")


def load_json(path) -> Any:
    """Parse a JSON file; ``NaN``, ``Infinity`` and ``-Infinity`` raise SchemaError."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def save_json(obj, path) -> None:
    """Write ``obj`` in ``json.dump(..., indent=2)``'s layout, plus a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


_NUMBER_TYPES = {int, float}


def _number(x, ptr: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise SchemaError(ptr, "expected a number")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(ptr, "expected a finite number")
    return v


def _integer(x, ptr: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise SchemaError(ptr, "expected an integer")
    return x


def _rows(blocks: list) -> np.ndarray | None:
    """The rows of ``blocks``, a list of lists of rows, end to end as a
    (rows, d) float array if every row is a list of length d >= 1 whose
    elements are all finite ints or floats.

    Returns None otherwise, also for an int too large for a float; the
    caller's element-wise checks then name the culprit.  json reads a
    literal such as ``1e400`` as inf.  The rows are chained afresh for
    each pass, not gathered into one list.
    """
    rows = partial(chain.from_iterable, blocks)
    if set(map(type, rows())) != {list}:
        return None
    widths = set(map(len, rows()))
    if len(widths) != 1 or 0 in widths:
        return None
    if not set(map(type, chain.from_iterable(rows()))) <= _NUMBER_TYPES:
        return None
    n = sum(map(len, blocks))
    try:
        out = np.fromiter(chain.from_iterable(rows()), float, n * widths.pop())
    except OverflowError:
        return None
    return out.reshape(n, -1) if np.isfinite(out).all() else None


def _vector(obj, ptr: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(ptr, "expected a nonempty array of numbers")
    return np.array([_number(x, f"{ptr}/{i}") for i, x in enumerate(obj)])


def _matrix(obj, ptr: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(ptr, "expected a nonempty array of vectors")
    rows = [_vector(row, f"{ptr}/{i}") for i, row in enumerate(obj)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(
                f"{ptr}/{i}", f"ragged row: length {len(row)}, expected {width}"
            )
    return np.array(rows)


def _field(obj, key: str, ptr: str):
    if not isinstance(obj, dict):
        raise SchemaError(ptr, "expected an object")
    if key not in obj:
        raise SchemaError(f"{ptr}/{key}", "missing required field")
    return obj[key]


# -- instances and trajectories ------------------------------------------------

def _entries(data, key: str, value: str):
    """The ``key`` strings and the ``value`` fields of a list of entry
    objects, or None if some entry is not an object holding both or
    some ``key`` is not a string."""
    if set(map(type, data)) != {dict}:
        return None
    try:
        keys = [entry[key] for entry in data]
        values = [entry[value] for entry in data]
    except KeyError:
        return None
    return (keys, values) if set(map(type, keys)) == {str} else None


def _instance_table(data):
    """The ids, packed actions, segment sizes and states of a list of
    instance objects, or None unless the ids are unique strings and the
    actions nonempty lists of rows of one width holding finite numbers."""
    entries = _entries(data, "id", "actions")
    if entries is None:
        return None
    ids, matrices = entries
    unique = len(set(ids)) == len(ids)
    if not (unique and set(map(type, matrices)) == {list} and all(matrices)):
        return None
    actions = _rows(matrices)
    if actions is None:
        return None
    states = [entry.get("state") for entry in data]
    return ids, actions, list(map(len, matrices)), states


def load_instances(path) -> dict[str, Instance]:
    """Read ``instances.json``.

    A file of objects with unique string ids and actions that are
    nonempty lists of rows of one width is converted and canonicalised
    in whole-file array passes.  Any other file goes through the
    per-entry checks, which load each valid entry alone or name the
    first fault.
    """
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError("", "expected an array of instance objects")
    table = _instance_table(data)
    if table is not None:
        # Free the parsed file before the instances are built: objects that
        # outlive this call, made among its many small objects, keep that
        # memory from being returned, and repeated loads grew peak RSS.
        del data
        return dict(zip(table[0], make_instances(*table)))
    out: dict[str, Instance] = {}
    for i, entry in enumerate(data):
        ptr = f"/{i}"
        iid = _field(entry, "id", ptr)
        if not isinstance(iid, str):
            raise SchemaError(f"{ptr}/id", "expected a string")
        if iid in out:
            raise SchemaError(f"{ptr}/id", f"duplicate instance id {iid!r}")
        actions = _matrix(_field(entry, "actions", ptr), f"{ptr}/actions")
        out[iid] = make_instance(iid, actions, state=entry.get("state"))
    return out


def save_instances(instances: Mapping[str, Instance], path) -> None:
    """Write instances in ``json.dump(..., indent=2)``'s layout, plus a newline.

    Only each instance's ``id`` and ``state`` go through ``json``.  Its
    actions are written with one ``%s`` format over the text of all of
    their numbers.  That text is each number's ``repr``, as ``json``
    writes a float, taken once per distinct bit pattern in the file
    (``0.0`` and ``-0.0`` differ) from one ``np.unique`` over all the
    coordinates.
    """
    insts = list(instances.values())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if not insts:
            fh.write("[]\n")
            return
        bits = np.concatenate([inst.actions.ravel() for inst in insts]).view(np.uint64)
        distinct, index = np.unique(bits, return_inverse=True)
        texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
        del bits, distinct
        sep, end = "[\n  {\n", 0
        for inst in insts:
            # json escapes newlines inside strings, so every "\n" here
            # starts a line, and indenting it nests the value.
            state = json.dumps(inst.state, indent=2).replace("\n", "\n    ")
            fh.write(f'{sep}    "id": {json.dumps(inst.id)},\n    "state": {state},\n')
            n, d = inst.actions.shape
            row = "      [\n" + ",\n".join(["        %s"] * d) + "\n      ]"
            start, end = end, end + n * d
            fh.write('    "actions": [\n')
            fh.write(",\n".join([row] * n) % tuple(texts[index[start:end]]))
            fh.write("\n    ]\n  }")
            sep = ",\n  {\n"
        fh.write("\n]\n")


def load_trajectories(path) -> TrajectorySet:
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError("", "expected an array of trajectory objects")
    entries = _entries(data, "instance_id", "action")
    actions = None if entries is None else _rows([entries[1]])
    if actions is not None:
        ids = entries[0]
        del data, entries  # as in load_instances
        return TrajectorySet(trajectories=tuple(map(Trajectory, ids, actions)))
    trajs = []
    for i, entry in enumerate(data):
        ptr = f"/{i}"
        iid = _field(entry, "instance_id", ptr)
        if not isinstance(iid, str):
            raise SchemaError(f"{ptr}/instance_id", "expected a string")
        action = _vector(_field(entry, "action", ptr), f"{ptr}/action")
        trajs.append(Trajectory(instance_id=iid, action=action))
    if not trajs:
        raise SchemaError("", "trajectory file must contain at least one entry")
    return TrajectorySet(trajectories=tuple(trajs))


def save_trajectories(ts: TrajectorySet, path) -> None:
    save_json(
        [
            {"instance_id": t.instance_id, "action": t.action.tolist()}
            for t in ts
        ],
        path,
    )


# -- feasible sets, run configs, manifests ------------------------------------

def feasible_set_to_obj(fs: FeasibleSet) -> dict:
    if isinstance(fs, Box):
        return {"kind": "box", "lo": fs.lo.tolist(), "hi": fs.hi.tolist()}
    if isinstance(fs, Ball):
        return {"kind": "ball", "center": fs.center.tolist(), "radius": fs.radius}
    if isinstance(fs, Simplex):
        return {"kind": "simplex", "dim": fs.dimension}
    raise TypeError(f"unknown feasible set {type(fs).__name__}")


def feasible_set_from_obj(obj, ptr: str = "") -> FeasibleSet:
    kind = _field(obj, "kind", ptr)
    if kind == "box":
        return Box(
            lo=_vector(_field(obj, "lo", ptr), f"{ptr}/lo"),
            hi=_vector(_field(obj, "hi", ptr), f"{ptr}/hi"),
        )
    if kind == "ball":
        return Ball(
            center=_vector(_field(obj, "center", ptr), f"{ptr}/center"),
            radius=_number(_field(obj, "radius", ptr), f"{ptr}/radius"),
        )
    if kind == "simplex":
        return Simplex(dimension=_integer(_field(obj, "dim", ptr), f"{ptr}/dim"))
    raise SchemaError(f"{ptr}/kind", f"unknown feasible set kind {kind!r}")


def load_feasible_set(path) -> FeasibleSet:
    return feasible_set_from_obj(load_json(path))


def save_feasible_set(fs: FeasibleSet, path) -> None:
    save_json(feasible_set_to_obj(fs), path)


def load_run_config(path) -> RunConfig:
    return load_train_config(path)[0]


def load_train_config(path) -> tuple[RunConfig, np.ndarray | None]:
    """``config.json``'s run config and its optional initial weights ``phi1``."""
    obj = load_json(path)
    sched = _field(obj, "schedule", "")
    kind = _field(sched, "kind", "/schedule")
    alpha0 = _number(_field(sched, "alpha0", "/schedule"), "/schedule/alpha0")
    max_iters = _integer(_field(obj, "max_iters", ""), "/max_iters")
    target_eps = obj.get("target_eps")
    phi1 = obj.get("phi1")
    # "seed" is checked, but training draws nothing at random.  Other
    # keys, such as the retired "n_jobs", are ignored.
    _integer(obj.get("seed", 0), "/seed")
    cfg = RunConfig(
        schedule=StepSchedule(kind=kind, alpha0=alpha0),
        max_iters=max_iters,
        target_eps=None if target_eps is None else _number(target_eps, "/target_eps"),
        tie_tol=_number(obj.get("tie_tol", 0.0), "/tie_tol"),
    )
    return cfg, None if phi1 is None else _vector(phi1, "/phi1")


def save_run_config(cfg: RunConfig, path) -> None:
    save_json(
        {
            "schedule": {"kind": cfg.schedule.kind, "alpha0": cfg.schedule.alpha0},
            "max_iters": cfg.max_iters,
            "target_eps": cfg.target_eps,
            "tie_tol": cfg.tie_tol,
        },
        path,
    )


def _ground_truth(obj) -> tuple[np.ndarray, FeasibleSet | None]:
    phi0 = _vector(_field(obj, "phi0", ""), "/phi0")
    if "feasible" not in obj:
        return phi0, None
    return phi0, feasible_set_from_obj(obj["feasible"], "/feasible")


def load_ground_truth(path) -> tuple[np.ndarray, FeasibleSet | None]:
    """``phi0.json``: the ground-truth weights and the optional feasible set."""
    return _ground_truth(load_json(path))


def load_manifest(path) -> dict:
    obj = load_json(path)
    phi0, feasible = _ground_truth(obj)
    out = {"phi0": phi0, "seed": _integer(_field(obj, "seed", ""), "/seed")}
    if feasible is not None:
        out["feasible"] = feasible
    return out


def save_manifest(phi0, seed: int, feasible: FeasibleSet | None, path) -> None:
    obj: dict[str, Any] = {"phi0": np.asarray(phi0, dtype=float).tolist(), "seed": seed}
    if feasible is not None:
        obj["feasible"] = feasible_set_to_obj(feasible)
    save_json(obj, path)


# -- run logs and summaries ----------------------------------------------------

def _runlog_header(d: int) -> str:
    return "k,F,grad_norm," + ",".join(f"phi_{j}" for j in range(d))


def write_runlog_csv(log: RunLog, path) -> None:
    lines = [_runlog_header(log.weights.shape[1])]
    for i in range(log.iters_run):
        row = [str(i + 1), repr(float(log.objectives[i])),
               repr(float(log.grad_norms[i]))]
        row += [repr(float(x)) for x in log.weights[i]]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_runlog_csv(path) -> RunLog:
    """Read ``run.csv``: the header ``write_runlog_csv`` writes, then rows
    as wide as it, with ``k`` counting 1, 2, ... and finite values."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if len(lines) < 2:
        raise SchemaError("", "run log must have a header and at least one row")
    width = len(lines[0].split(","))
    if width < 4 or lines[0] != _runlog_header(width - 3):
        raise SchemaError("header", "expected k,F,grad_norm,phi_0,...,phi_{d-1}")
    objs, gnorms, phis = [], [], []
    for k, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != width:
            raise SchemaError(f"row {k}", f"{len(parts)} fields, header has {width}")
        try:
            k_read = int(parts[0])
            objs.append(float(parts[1]))
            gnorms.append(float(parts[2]))
            phis.append([float(x) for x in parts[3:]])
        except ValueError:
            raise SchemaError(f"row {k}", "expected numbers") from None
        if k_read != k:
            raise SchemaError(f"row {k}", f"k is {k_read}, expected {k}")
    objs_arr, gnorms_arr, phis_arr = np.array(objs), np.array(gnorms), np.array(phis)
    finite = np.isfinite(np.column_stack([objs_arr, gnorms_arr, phis_arr])).all(axis=1)
    if not finite.all():
        raise SchemaError(f"row {int(np.argmin(finite)) + 1}", "non-finite value")
    return RunLog(weights=phis_arr, objectives=objs_arr, grad_norms=gnorms_arr)


def write_summary(log: RunLog, path) -> None:
    save_json(
        {
            "best_phi": log.best_weights.tolist(),
            "best_F": log.best_objective,
            "best_iteration": log.best_iteration,
            "iters_run": log.iters_run,
        },
        path,
    )


def read_summary(path) -> dict:
    obj = load_json(path)
    return {
        "best_phi": _vector(_field(obj, "best_phi", ""), "/best_phi"),
        "best_F": _number(_field(obj, "best_F", ""), "/best_F"),
        "best_iteration": _integer(
            _field(obj, "best_iteration", ""), "/best_iteration"
        ),
        "iters_run": _integer(_field(obj, "iters_run", ""), "/iters_run"),
    }
