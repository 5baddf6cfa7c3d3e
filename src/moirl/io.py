"""JSON/CSV loading and saving for all on-disk formats.

All files are UTF-8 with LF newlines; floats serialize in shortest
round-trip decimal form (Python's float repr), so save -> load is
bit-identical and repeated saves of the same data are byte-identical.
"""

from __future__ import annotations

import json
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


def _load_json(path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _vector(obj, ptr: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(ptr, "expected a nonempty array of numbers")
    out = []
    for i, x in enumerate(obj):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise SchemaError(f"{ptr}/{i}", "expected a number")
        out.append(float(x))
    return out


def _matrix(obj, ptr: str) -> list[list[float]]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(ptr, "expected a nonempty array of vectors")
    rows = [_vector(row, f"{ptr}/{i}") for i, row in enumerate(obj)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(
                f"{ptr}/{i}", f"ragged row: length {len(row)}, expected {width}"
            )
    return rows


def _field(obj, key: str, ptr: str):
    if not isinstance(obj, dict):
        raise SchemaError(ptr, "expected an object")
    if key not in obj:
        raise SchemaError(f"{ptr}/{key}", "missing required field")
    return obj[key]


# -- instances and trajectories ------------------------------------------------

def load_instances(path) -> dict[str, Instance]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise SchemaError("", "expected an array of instance objects")
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
    _dump_json(
        [
            {"id": inst.id, "state": inst.state, "actions": inst.actions.tolist()}
            for inst in instances.values()
        ],
        path,
    )


def load_trajectories(path) -> TrajectorySet:
    data = _load_json(path)
    if not isinstance(data, list):
        raise SchemaError("", "expected an array of trajectory objects")
    trajs = []
    for i, entry in enumerate(data):
        ptr = f"/{i}"
        iid = _field(entry, "instance_id", ptr)
        if not isinstance(iid, str):
            raise SchemaError(f"{ptr}/instance_id", "expected a string")
        action = _vector(_field(entry, "action", ptr), f"{ptr}/action")
        trajs.append(Trajectory(instance_id=iid, action=np.array(action)))
    if not trajs:
        raise SchemaError("", "trajectory file must contain at least one entry")
    return TrajectorySet(trajectories=tuple(trajs))


def save_trajectories(ts: TrajectorySet, path) -> None:
    _dump_json(
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
            lo=np.array(_vector(_field(obj, "lo", ptr), f"{ptr}/lo")),
            hi=np.array(_vector(_field(obj, "hi", ptr), f"{ptr}/hi")),
        )
    if kind == "ball":
        radius = _field(obj, "radius", ptr)
        if not isinstance(radius, (int, float)) or isinstance(radius, bool):
            raise SchemaError(f"{ptr}/radius", "expected a number")
        return Ball(
            center=np.array(_vector(_field(obj, "center", ptr), f"{ptr}/center")),
            radius=float(radius),
        )
    if kind == "simplex":
        dim = _field(obj, "dim", ptr)
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise SchemaError(f"{ptr}/dim", "expected an integer")
        return Simplex(dimension=dim)
    raise SchemaError(f"{ptr}/kind", f"unknown feasible set kind {kind!r}")


def load_feasible_set(path) -> FeasibleSet:
    return feasible_set_from_obj(_load_json(path))


def save_feasible_set(fs: FeasibleSet, path) -> None:
    _dump_json(feasible_set_to_obj(fs), path)


def load_run_config(path) -> RunConfig:
    obj = _load_json(path)
    sched = _field(obj, "schedule", "")
    kind = _field(sched, "kind", "/schedule")
    alpha0 = _field(sched, "alpha0", "/schedule")
    max_iters = _field(obj, "max_iters", "")
    if not isinstance(max_iters, int) or isinstance(max_iters, bool):
        raise SchemaError("/max_iters", "expected an integer")
    target_eps = obj.get("target_eps")
    # Other keys, such as the retired "n_jobs", are ignored.
    return RunConfig(
        schedule=StepSchedule(kind=kind, alpha0=float(alpha0)),
        max_iters=max_iters,
        target_eps=None if target_eps is None else float(target_eps),
        tie_tol=float(obj.get("tie_tol", 0.0)),
        seed=int(obj.get("seed", 0)),
    )


def save_run_config(cfg: RunConfig, path) -> None:
    _dump_json(
        {
            "schedule": {"kind": cfg.schedule.kind, "alpha0": cfg.schedule.alpha0},
            "max_iters": cfg.max_iters,
            "target_eps": cfg.target_eps,
            "tie_tol": cfg.tie_tol,
            "seed": cfg.seed,
        },
        path,
    )


def load_manifest(path) -> dict:
    obj = _load_json(path)
    phi0 = _vector(_field(obj, "phi0", ""), "/phi0")
    out = {"phi0": np.array(phi0), "seed": int(_field(obj, "seed", ""))}
    if "feasible" in obj:
        out["feasible"] = feasible_set_from_obj(obj["feasible"], "/feasible")
    return out


def save_manifest(phi0, seed: int, feasible: FeasibleSet | None, path) -> None:
    obj: dict[str, Any] = {"phi0": np.asarray(phi0, dtype=float).tolist(), "seed": seed}
    if feasible is not None:
        obj["feasible"] = feasible_set_to_obj(feasible)
    _dump_json(obj, path)


# -- run logs and summaries ----------------------------------------------------

def write_runlog_csv(log: RunLog, path) -> None:
    d = log.weights.shape[1]
    header = "k,F,grad_norm," + ",".join(f"phi_{j}" for j in range(d))
    lines = [header]
    for i in range(log.iters_run):
        row = [str(int(log.iterations[i])), repr(float(log.objectives[i])),
               repr(float(log.grad_norms[i]))]
        row += [repr(float(x)) for x in log.weights[i]]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_runlog_csv(path) -> RunLog:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if len(lines) < 2:
        raise SchemaError("", "run log must have a header and at least one row")
    iters, objs, gnorms, phis = [], [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        iters.append(int(parts[0]))
        objs.append(float(parts[1]))
        gnorms.append(float(parts[2]))
        phis.append([float(x) for x in parts[3:]])
    objs_arr = np.array(objs)
    phis_arr = np.array(phis)
    best = int(np.argmin(objs_arr))
    return RunLog(
        iterations=np.array(iters, dtype=int),
        weights=phis_arr,
        objectives=objs_arr,
        grad_norms=np.array(gnorms),
        best_weights=phis_arr[best],
        best_objective=float(objs_arr[best]),
        best_iteration=int(iters[best]),
        iters_run=len(iters),
    )


def write_summary(log: RunLog, path) -> None:
    _dump_json(
        {
            "best_phi": log.best_weights.tolist(),
            "best_F": log.best_objective,
            "best_iteration": log.best_iteration,
            "iters_run": log.iters_run,
        },
        path,
    )


def read_summary(path) -> dict:
    obj = _load_json(path)
    return {
        "best_phi": np.array(_vector(_field(obj, "best_phi", ""), "/best_phi")),
        "best_F": float(_field(obj, "best_F", "")),
        "best_iteration": int(_field(obj, "best_iteration", "")),
        "iters_run": int(_field(obj, "iters_run", "")),
    }
