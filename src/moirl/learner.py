"""Weight recovery by projected subgradient descent.

The objective is the mean gap between the best achievable reward under
candidate weights and the reward those weights assign to the expert's
actions.  It is convex, nonnegative on feasible data, and zero exactly
when the weights reproduce every expert decision's reward.
"""

from __future__ import annotations

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
from .solvers import solve_packed

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
    tie_tol: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.target_eps is not None and not self.target_eps > 0:
            raise ValueError("target_eps must be positive when given")
        if not 0 <= self.tie_tol < np.inf:
            raise ValueError("tie_tol must be finite and nonnegative")


@dataclass
class RunLog:
    """Per-iteration training record plus the best iterate found."""

    iterations: np.ndarray  # (T,) 1-based iteration indices
    weights: np.ndarray  # (T, d) iterate per iteration
    objectives: np.ndarray  # (T,) objective at each iterate
    grad_norms: np.ndarray  # (T,) L2 norm of the subgradient
    best_weights: np.ndarray
    best_objective: float
    best_iteration: int
    iters_run: int

    def prefix_best(self) -> np.ndarray:
        """Running minimum of the objective over iterations (nonincreasing)."""
        return np.minimum.accumulate(self.objectives)

    def best_weights_at(self, k: int) -> np.ndarray:
        """Best iterate among iterations 1..k (earliest on ties)."""
        upto = self.objectives[: k]
        return self.weights[int(np.argmin(upto))]


def objective_value(phi, data, instances, tie_tol: float = 0.0) -> float:
    """Mean best-achievable reward under phi minus mean expert reward.

    Nonnegative whenever every expert action is feasible for its
    instance; zero iff phi rates each expert action as optimal.
    """
    g = subgradient(phi, data, instances, tie_tol)
    return float(g @ as_weights(phi, g.size))


def subgradient(phi, data, instances, tie_tol: float = 0.0) -> np.ndarray:
    """A subgradient of the objective: mean solved action minus mean expert action."""
    store, expert = checked_decisions(data, instances)
    return (solve_packed(phi, store, tie_tol) - expert).mean(axis=0)


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
    projection of the subgradient step back onto the feasible set.
    """
    return train_packed(*checked_decisions(data, instances), feasible, phi1, cfg)


def train_packed(
    store: PackedInstances,
    expert: np.ndarray,
    feasible,
    phi1=None,
    cfg: RunConfig = RunConfig(),
) -> RunLog:
    """``train`` on the decisions that ``checked_decisions`` validated and packed."""
    d = store.dim
    if phi1 is None:
        phi = project(feasible, np.zeros(d))
    else:
        phi = as_weights(phi1, d)
        if not contains(feasible, phi):
            warnings.warn("initial weights outside the feasible set; projecting")
            phi = project(feasible, phi)

    iters, phis, objs, gnorms = [], [], [], []
    best_phi, best_obj, best_iter = phi, np.inf, 0
    for k in range(1, cfg.max_iters + 1):
        g = (solve_packed(phi, store, cfg.tie_tol) - expert).mean(axis=0)
        obj = float(g @ phi)
        iters.append(k)
        phis.append(phi)
        objs.append(obj)
        gnorms.append(float(np.linalg.norm(g)))
        if obj < best_obj:
            best_phi, best_obj, best_iter = phi, obj, k
        if cfg.target_eps is not None and best_obj < cfg.target_eps:
            break
        if k < cfg.max_iters:
            phi = project(feasible, phi - cfg.schedule.step(k) * g)

    return RunLog(
        iterations=np.array(iters, dtype=int),
        weights=np.stack(phis),
        objectives=np.array(objs),
        grad_norms=np.array(gnorms),
        best_weights=best_phi,
        best_objective=best_obj,
        best_iteration=best_iter,
        iters_run=len(iters),
    )
