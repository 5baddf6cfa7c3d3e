"""Recovering the weights of a linear scalarized objective from expert
decisions, with executable imitation guarantees.

The forward problem picks, for each decision instance, the feasible
action maximizing ``weights . action`` (lexicographic tie-break).  The
inverse problem recovers the weights from observed decisions by
projected subgradient descent on a convex objective, and the
``guarantees`` module checks the reward- and action-imitation properties
that make the recovered weights trustworthy.
"""

from .domain import (
    Ball,
    Box,
    FeasibleSet,
    Instance,
    Simplex,
    Trajectory,
    TrajectorySet,
    make_instance,
    validate,
)
from .guarantees import corollary_check, equivalence_check, reward_gap_report
from .learner import RunConfig, RunLog, StepSchedule, objective_value, subgradient, train
from .projection import contains, project
from .solvers import (
    KnapsackSpec,
    knapsack_instance,
    polytope_vertex_instance,
    solve,
)
from .wasserstein import linear_dual_lower_bound, w1_exact

__all__ = [
    "Ball", "Box", "FeasibleSet", "Instance", "Simplex", "Trajectory",
    "TrajectorySet", "make_instance", "validate",
    "corollary_check", "equivalence_check", "reward_gap_report",
    "RunConfig", "RunLog", "StepSchedule", "objective_value", "subgradient",
    "train",
    "contains", "project",
    "KnapsackSpec", "knapsack_instance", "polytope_vertex_instance", "solve",
    "linear_dual_lower_bound", "w1_exact",
]

__version__ = "0.1.0"
