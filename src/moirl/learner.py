"""Weight recovery by projected subgradient descent.

The objective is the mean gap between the best achievable reward under
candidate weights and the reward those weights assign to the expert's
actions.  It is convex, nonnegative on feasible data, and zero exactly
when the weights reproduce every expert decision's reward.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .domain import (
    Instance,
    PackedInstances,
    TrajectorySet,
    as_weights,
    checked_decisions,
)
from .projection import contains, project
from .solvers import check_tie_tol, solve_packed

__all__ = [
    "StepSchedule",
    "RunConfig",
    "RunLog",
    "objective_value",
    "subgradient",
    "train",
    "train_packed",
]


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing, nonsummable step sizes: alpha0/sqrt(k) or alpha0/k."""

    kind: str = "inverse_sqrt"  # "inverse_sqrt" | "harmonic"
    alpha0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("inverse_sqrt", "harmonic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")

    def step(self, k: int) -> float:
        if self.kind == "inverse_sqrt":
            return self.alpha0 / np.sqrt(k)
        return self.alpha0 / k


@dataclass(frozen=True)
class RunConfig:
    schedule: StepSchedule = StepSchedule()
    max_iters: int = 1000
    target_eps: Optional[float] = None
    tie_tol: float = 0.0  # must be 0: ties are broken exactly

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.target_eps is not None and not self.target_eps > 0:
            raise ValueError("target_eps must be positive when given")
        check_tie_tol(self.tie_tol)


@dataclass
class RunLog:
    """Per-iteration training record; the best iterate is read off it."""

    weights: np.ndarray  # (T, d) iterate per iteration
    objectives: np.ndarray  # (T,) objective at each iterate
    grad_norms: np.ndarray  # (T,) L2 norm of the subgradient

    @property
    def iters_run(self) -> int:
        return len(self.objectives)

    @property
    def iterations(self) -> np.ndarray:
        """1-based iteration indices."""
        return np.arange(1, self.iters_run + 1)

    @property
    def best_iteration(self) -> int:
        """The earliest iteration with the least objective."""
        return int(np.argmin(self.objectives)) + 1

    @property
    def best_objective(self) -> float:
        # Indexed, not ``min()``: the earliest of a tie of 0.0 and -0.0.
        return float(self.objectives[self.best_iteration - 1])

    @property
    def best_weights(self) -> np.ndarray:
        return self.weights[self.best_iteration - 1]

    def prefix_best(self) -> np.ndarray:
        """Running minimum of the objective over iterations (nonincreasing)."""
        return np.minimum.accumulate(self.objectives)


def objective_value(phi, data, instances) -> float:
    """Mean best-achievable reward under phi minus mean expert reward.

    Nonnegative whenever every expert action is feasible for its
    instance; zero iff phi rates each expert action as optimal.
    """
    store, expert = checked_decisions(data, instances)
    return _evaluate(as_weights(phi, store.dim), store, expert)[0]


def subgradient(phi, data, instances) -> np.ndarray:
    """A subgradient of the objective: mean solved action minus mean expert action."""
    store, expert = checked_decisions(data, instances)
    return _evaluate(as_weights(phi, store.dim), store, expert)[1]


def _evaluate(
    phi: np.ndarray, store: PackedInstances, expert: np.ndarray
) -> tuple[float, np.ndarray]:
    """The objective at the weight vector ``phi`` and its subgradient."""
    g = (solve_packed(phi, store) - expert).mean(axis=0)
    return float(g @ phi), g


def train(
    data: TrajectorySet,
    instances: Mapping[str, Instance],
    feasible,
    phi1=None,
    cfg: RunConfig = RunConfig(),
) -> RunLog:
    """Projected subgradient descent with best-iterate tracking.

    Runs for ``cfg.max_iters`` iterations (or stops early once the best
    objective drops below ``cfg.target_eps``): at each iterate the
    objective and subgradient are logged, then the next iterate is the
    projection of the subgradient step back onto the feasible set.  A
    non-finite objective or subgradient raises ValueError, unlogged.
    At an exact fixed point (zero subgradient, projected step bit-equal to
    the iterate) solving stops, but all ``max_iters`` rows are still logged.
    """
    return train_packed(*checked_decisions(data, instances), feasible, phi1, cfg)


def train_packed(
    store: PackedInstances,
    expert: np.ndarray,
    feasible,
    phi1=None,
    cfg: RunConfig = RunConfig(),
) -> RunLog:
    """``train`` on the decisions that ``checked_decisions`` validated and packed.

    Rows after an exact fixed point are copies of its row, not solved.
    """
    d = store.dim
    if phi1 is None:
        phi = project(feasible, np.zeros(d))
    else:
        phi = as_weights(phi1, d)
        if not contains(feasible, phi):
            warnings.warn("initial weights outside the feasible set; projecting")
            phi = project(feasible, phi)

    phis, objs, gnorms = [], [], []
    for k in range(1, cfg.max_iters + 1):
        obj, g = _evaluate(phi, store, expert)
        gnorm = float(np.linalg.norm(g))
        if not (math.isfinite(obj) and math.isfinite(gnorm)):
            raise ValueError(f"objective or subgradient is not finite at iteration {k}")
        phis.append(phi)
        objs.append(obj)
        gnorms.append(gnorm)
        # The running minimum first drops below target_eps at this iterate.
        if cfg.target_eps is not None and obj < cfg.target_eps:
            break
        if k < cfg.max_iters:
            nxt = project(feasible, phi - cfg.schedule.step(k) * g)
            # g == 0 gives every later step these bits: each logs this row.
            if not g.any() and nxt.tobytes() == phi.tobytes():
                rest = cfg.max_iters - k
                phis += [phi] * rest
                objs += [obj] * rest
                gnorms += [gnorm] * rest
                break
            phi = nxt

    return RunLog(np.stack(phis), np.array(objs), np.array(gnorms))
