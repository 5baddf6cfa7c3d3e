"""Synthetic problem generation: build instance collections from a
problem description and derive expert decisions from ground-truth
weights with the exact tie-breaking solver.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .domain import (
    Instance,
    TrajectorySet,
    make_instance,
    make_instances,
    pack,
)
from .io import SchemaError, _field, _integer, _matrix, _number, _vector
from .solvers import (
    KnapsackSpec,
    knapsack_instance,
    polytope_vertex_instance,
    solve_packed,
)

__all__ = [
    "random_instances",
    "instances_from_spec",
    "expert_trajectories",
]


def random_instances(
    rng: np.random.Generator,
    count: int,
    dim: int,
    n_actions: int,
    low: int = -10,
    high: int = 10,
    prefix: str = "rand",
) -> dict[str, Instance]:
    """Explicit instances with integer-coordinate actions, drawn uniformly.

    Integer coordinates keep solver scores exact in floating point for
    dyadic-rational weights, which the exact-equality checks rely on.
    """
    if count <= 0:
        return {}
    ids = [f"{prefix}-{i}" for i in range(count)]
    # One draw for all instances gives the numbers of one draw per instance:
    # the bit generator buffers the 32-bit halves across calls.
    actions = rng.integers(low, high + 1, size=(count * n_actions, dim)).astype(float)
    return dict(zip(ids, make_instances(ids, actions, [n_actions] * count)))


def instances_from_spec(obj, seed: int = 0) -> dict[str, Instance]:
    """Build instances from a problem-spec JSON object.

    The object holds an ``instances`` array of explicit / knapsack /
    polytope entries and/or a ``random`` block generating explicit
    integer instances from the given seed.
    """
    if not isinstance(obj, dict):
        raise SchemaError("", "expected an object")
    out: dict[str, Instance] = {}
    entries = obj.get("instances", [])
    if not isinstance(entries, list):
        raise SchemaError("/instances", "expected an array")
    for i, entry in enumerate(entries):
        ptr = f"/instances/{i}"
        kind = _field(entry, "type", ptr)
        iid = _field(entry, "id", ptr)
        if not isinstance(iid, str):
            raise SchemaError(f"{ptr}/id", "expected a string")
        if iid in out:
            raise SchemaError(f"{ptr}/id", f"duplicate instance id {iid!r}")
        if kind == "explicit":
            actions = _matrix(_field(entry, "actions", ptr), f"{ptr}/actions")
            out[iid] = make_instance(iid, actions, state=entry.get("state"))
        elif kind == "knapsack":
            spec = KnapsackSpec(
                weights=_vector(_field(entry, "weights", ptr), f"{ptr}/weights"),
                capacity=_number(_field(entry, "capacity", ptr), f"{ptr}/capacity"),
                item_features=_matrix(
                    _field(entry, "item_features", ptr), f"{ptr}/item_features"
                ),
            )
            out[iid] = knapsack_instance(spec, iid)
        elif kind == "polytope":
            vertices = _matrix(_field(entry, "vertices", ptr), f"{ptr}/vertices")
            out[iid] = polytope_vertex_instance(vertices, iid)
        else:
            raise SchemaError(f"{ptr}/type", f"unknown instance type {kind!r}")
    if "random" in obj:
        rnd = obj["random"]
        ptr = "/random"
        rng = np.random.default_rng(seed)
        generated = random_instances(
            rng,
            count=_integer(_field(rnd, "count", ptr), f"{ptr}/count"),
            dim=_integer(_field(rnd, "dim", ptr), f"{ptr}/dim"),
            n_actions=_integer(_field(rnd, "n_actions", ptr), f"{ptr}/n_actions"),
            low=_integer(rnd.get("low", -10), f"{ptr}/low"),
            high=_integer(rnd.get("high", 10), f"{ptr}/high"),
        )
        for iid, inst in generated.items():
            if iid in out:
                raise SchemaError(ptr, f"generated id {iid!r} collides")
            out[iid] = inst
    if not out:
        raise SchemaError("", "problem spec produced no instances")
    return out


def expert_trajectories(phi0, instances: Mapping[str, Instance]) -> TrajectorySet:
    """One expert decision per instance, from the exact solver under phi0."""
    insts = list(instances.values())
    chosen = solve_packed(phi0, pack(insts))
    return TrajectorySet([inst.id for inst in insts], chosen)
