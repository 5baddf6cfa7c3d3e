"""Executable checks of the imitation guarantees.

Given ground-truth weights that generated the expert data, these report
per-decision reward gaps, locate the iteration at which a run's best
iterate meets a reward-imitation budget, and test the three-way
equivalence between a vanishing subgradient, identical actions, and zero
Wasserstein distance.
"""

from __future__ import annotations

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
from .learner import RunLog
from .solvers import solve_packed
from .wasserstein import w1_exact

__all__ = [
    "GuaranteeViolation",
    "GapReport",
    "EquivalenceReport",
    "reward_gap_report",
    "reward_gap_report_packed",
    "equivalence_check",
    "corollary_check",
    "verify_run",
]

# Absolute slack for float dust in exact-statement checks.
DUST = 1e-12


class GuaranteeViolation(AssertionError):
    """A guarantee that should hold on well-formed data failed."""


def _expert_truth(phi0, store: PackedInstances, expert) -> np.ndarray:
    """The exact solver's actions under ``phi0``, after checking that they
    reproduce every expert action."""
    truth = solve_packed(phi0, store, tie_tol=0.0)
    wrong = np.flatnonzero(np.any(truth != expert, axis=1))
    if wrong.size:
        n = int(wrong[0])
        raise GuaranteeViolation(
            f"expert action {n} is not the solver output for the given "
            f"ground-truth weights: got {expert[n].tolist()}, "
            f"solver returns {truth[n].tolist()}"
        )
    return truth


@dataclass(frozen=True)
class GapReport:
    """Per-decision reward gaps of candidate weights vs the ground truth."""

    gaps: np.ndarray  # (N,) each >= 0 up to dust
    objective: float  # mean of gaps
    n: int

    def within_budget(self, eps: float) -> bool:
        """True iff every gap is below eps * N (the reward-imitation bound)."""
        return bool(np.all(self.gaps < eps * self.n + DUST))


def reward_gap_report(
    phi, phi0, data: TrajectorySet, instances: Mapping[str, Instance],
    tie_tol: float = 0.0,
) -> GapReport:
    """Gap, per decision, between the reward phi gives its own optimal
    action and the reward it gives the expert's action.

    Requires the expert data to be generated by the solver under
    ``phi0``; each gap is nonnegative and their mean is the training
    objective at ``phi``.
    """
    store, expert = checked_decisions(data, instances)
    return reward_gap_report_packed(phi, phi0, store, expert, tie_tol)


def reward_gap_report_packed(
    phi, phi0, store: PackedInstances, expert: np.ndarray, tie_tol: float = 0.0
) -> GapReport:
    """``reward_gap_report`` on the decisions that ``checked_decisions``
    validated and packed."""
    _expert_truth(phi0, store, expert)
    return _gap_report(phi, store, expert, tie_tol)


def _gap_report(phi, store: PackedInstances, expert, tie_tol: float) -> GapReport:
    w = as_weights(phi, store.dim)
    chosen = solve_packed(w, store, tie_tol)
    # One dot product per row, so each gap rounds as ``w @ action`` does.
    gaps = np.array([float(w @ a - w @ e) for a, e in zip(chosen, expert)])
    if np.any(gaps < -DUST):
        worst = int(np.argmin(gaps))
        raise GuaranteeViolation(
            f"negative reward gap {gaps[worst]} at decision {worst}; "
            "expert action beats the solver under its own weights"
        )
    return GapReport(gaps=gaps, objective=float(gaps.mean()), n=len(expert))


@dataclass(frozen=True)
class EquivalenceReport:
    """Independent evaluations of the three equivalent completion criteria."""

    subgrad_zero: bool  # sum of per-decision action differences is exactly 0
    actions_equal: bool  # solver output matches the expert on every decision
    w1_zero: bool  # exact W1 between the two action distributions is 0

    @property
    def unanimous(self) -> bool:
        return self.subgrad_zero == self.actions_equal == self.w1_zero


def equivalence_check(
    phi, phi0, data: TrajectorySet, instances: Mapping[str, Instance]
) -> EquivalenceReport:
    """Evaluate the three completion criteria independently at ``phi``.

    Runs with exact tie-breaking (tie_tol = 0); meaningful on instances
    whose scores are exact in floating point.
    """
    store, expert = checked_decisions(data, instances)
    return _equivalence(phi, store, _expert_truth(phi0, store, expert))


def _equivalence(phi, store: PackedInstances, truth) -> EquivalenceReport:
    learner = solve_packed(phi, store, tie_tol=0.0)
    return EquivalenceReport(
        subgrad_zero=bool(np.all((learner - truth).sum(axis=0) == 0.0)),
        actions_equal=bool(np.all(learner == truth)),
        w1_zero=w1_exact(learner, truth) == 0.0,
    )


def corollary_check(
    log: RunLog,
    phi0,
    data: TrajectorySet,
    instances: Mapping[str, Instance],
    eps: float,
) -> Optional[int]:
    """First iteration whose best-so-far objective drops below ``eps``.

    At that best iterate, asserts every per-decision reward gap lies in
    [0, eps * N).  Returns the iteration index, or None if the run never
    reaches the budget.
    """
    k = _first_below(log, eps)
    if k is not None:
        store, expert = checked_decisions(data, instances)
        _expert_truth(phi0, store, expert)
        _check_budget(log, k, eps, store, expert)
    return k


def _first_below(log: RunLog, eps: float) -> Optional[int]:
    if not eps > 0:
        return None
    hits = np.flatnonzero(log.objectives < eps)
    return None if hits.size == 0 else int(hits[0]) + 1


def _check_budget(log: RunLog, k: int, eps: float, store, expert) -> None:
    # Iteration k is the first with F < eps, so its iterate is the best so far.
    report = _gap_report(log.weights[k - 1], store, expert, 0.0)
    if not report.within_budget(eps):
        raise GuaranteeViolation(
            f"reward gap exceeds eps*N at iteration {k}: "
            f"max gap {report.gaps.max()}, budget {eps * report.n}"
        )


def verify_run(
    log: RunLog,
    phi,
    phi0,
    data: TrajectorySet,
    instances: Mapping[str, Instance],
    eps: float,
) -> tuple[GapReport, Optional[int], EquivalenceReport]:
    """``reward_gap_report`` (``tie_tol`` 0), ``corollary_check`` and
    ``equivalence_check`` at ``phi``, raising in that order, on one
    validated store and one exact solve under ``phi0``."""
    store, expert = checked_decisions(data, instances)
    truth = _expert_truth(phi0, store, expert)
    report = _gap_report(phi, store, expert, 0.0)
    k = _first_below(log, eps)
    if k is not None:
        _check_budget(log, k, eps, store, expert)
    return report, k, _equivalence(phi, store, truth)
