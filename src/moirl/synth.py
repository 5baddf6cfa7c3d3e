"""Synthetic problem generation: random explicit instances, the instances
of a problem description (``io`` parses it), and expert decisions from
ground-truth weights with the exact tie-breaking solver.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .domain import Instance, TrajectorySet, make_instances, pack
from .io import problem_instances
from .solvers import solve_packed

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
    # One draw for all instances gives the numbers of one draw per instance:
    # the bit generator buffers the 32-bit halves across calls.
    actions = rng.integers(low, high + 1, size=(count * n_actions, dim)).astype(float)
    ids = [f"{prefix}-{i}" for i in range(count)]
    return dict(zip(ids, make_instances(ids, actions, [n_actions] * count)))


def instances_from_spec(obj, seed: int = 0) -> dict[str, Instance]:
    """The instances of a ``problem.json`` object, which
    ``io.problem_instances`` parses; its ``random`` block, if any, is drawn
    by ``random_instances`` from a generator seeded with ``seed``."""
    return problem_instances(
        obj, lambda *block: random_instances(np.random.default_rng(seed), *block))


def expert_trajectories(phi0, instances: Mapping[str, Instance]) -> TrajectorySet:
    """One expert decision per instance, from the exact solver under phi0."""
    insts = list(instances.values())
    chosen = solve_packed(phi0, pack(insts))
    return TrajectorySet([inst.id for inst in insts], chosen)
