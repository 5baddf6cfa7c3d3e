"""Executable checks of the imitation guarantees.

Every check compares candidate weights with the expert's decisions: it
reports per-decision reward gaps, locates the iteration at which a run's
best iterate meets a reward-imitation budget, and tests the three-way
equivalence between a vanishing subgradient, identical actions, and zero
Wasserstein distance.  Ground-truth weights ``phi0`` are optional: when
given, a check first confirms that the exact solver under ``phi0``
reproduces every expert action, and raises ``GuaranteeViolation`` if not.
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
from .solvers import check_tie_tol, solve_packed
from .wasserstein import _net_mass

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


def _decisions(phi0, data, instances):
    """``checked_decisions``'s store and expert actions.  When ``phi0`` is
    not None, first checks that the exact solver under ``phi0`` reproduces
    every expert action."""
    store, expert = checked_decisions(data, instances)
    if phi0 is not None:
        truth = solve_packed(phi0, store)
        wrong = np.flatnonzero(np.any(truth != expert, axis=1))
        if wrong.size:
            n = int(wrong[0])
            raise GuaranteeViolation(
                f"expert action {n} is not the solver output for the given "
                f"ground-truth weights: got {expert[n].tolist()}, "
                f"solver returns {truth[n].tolist()}"
            )
    return store, expert


@dataclass(frozen=True)
class GapReport:
    """Per-decision reward gaps of candidate weights vs the expert's actions."""

    gaps: np.ndarray  # (N,) each >= 0 up to dust

    @property
    def objective(self) -> float:
        return float(self.gaps.mean())

    @property
    def n(self) -> int:
        return len(self.gaps)

    def within_budget(self, eps: float) -> bool:
        """True iff every gap is below eps * N (the reward-imitation bound)."""
        return bool(np.all(self.gaps < eps * self.n + DUST))


def reward_gap_report(
    phi, phi0, data: TrajectorySet, instances: Mapping[str, Instance],
    tie_tol: float = 0.0,
) -> GapReport:
    """Gap, per decision, between the reward phi gives its own optimal
    action and the reward it gives the expert's action.

    Each gap is nonnegative and their mean is the training objective at
    ``phi``.  ``phi0`` may be None; otherwise the expert data must be the
    exact solver's output under it.  ``tie_tol`` must be 0.
    """
    check_tie_tol(tie_tol)
    store, expert = _decisions(phi0, data, instances)
    return reward_gap_report_packed(phi, store, expert)


def reward_gap_report_packed(
    phi, store: PackedInstances, expert: np.ndarray
) -> GapReport:
    """``reward_gap_report`` on the decisions that ``checked_decisions``
    validated and packed, with no ground-truth check."""
    w = as_weights(phi, store.dim)
    return _gaps(w, solve_packed(w, store), expert)


def _gaps(w: np.ndarray, chosen: np.ndarray, expert: np.ndarray) -> GapReport:
    # vecdot runs each row through ``w @ a``'s vector dot loop, so a gap has
    # the bits of ``float(w @ a - w @ e)``; BLAS ``chosen @ w`` would not.
    gaps = np.vecdot(chosen, w) - np.vecdot(expert, w)
    if np.any(gaps < -DUST):
        worst = int(np.argmin(gaps))
        raise GuaranteeViolation(
            f"negative reward gap {gaps[worst]} at decision {worst}; "
            "expert action beats the solver under its own weights"
        )
    return GapReport(gaps)


@dataclass(frozen=True)
class EquivalenceReport:
    """The three completion criteria, each comparing the exact solver's
    actions under the candidate weights (the learner's) with the expert's."""

    subgrad_zero: bool  # sum over decisions of learner - expert is exactly 0
    actions_equal: bool  # learner's action equals the expert's on every decision
    # W1 between the learner's and the expert's actions is 0: no net mass is
    # left once shared points cancel, an exact multiset test that, unlike
    # ``w1_exact``, measures no distance.
    w1_zero: bool

    @property
    def unanimous(self) -> bool:
        return self.subgrad_zero == self.actions_equal == self.w1_zero


def equivalence_check(
    phi, phi0, data: TrajectorySet, instances: Mapping[str, Instance]
) -> EquivalenceReport:
    """Evaluate the three completion criteria independently at ``phi``.

    Meaningful on instances whose scores are exact in floating point.
    ``phi0`` may be None; the criteria agree when some weights' exact
    solve gives the expert data.
    """
    store, expert = _decisions(phi0, data, instances)
    return _equivalence(solve_packed(phi, store), expert)


def _equivalence(learner: np.ndarray, expert: np.ndarray) -> EquivalenceReport:
    return EquivalenceReport(
        subgrad_zero=bool(np.all((learner - expert).sum(axis=0) == 0.0)),
        actions_equal=bool(np.all(learner == expert)),
        w1_zero=not _net_mass(learner, expert)[1].any(),
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
    reaches the budget.  ``phi0`` may be None.
    """
    k = _first_below(log, eps)
    if k is not None:
        _check_budget(log, k, eps, *_decisions(phi0, data, instances))
    return k


def _first_below(log: RunLog, eps: float) -> Optional[int]:
    if not eps > 0:
        return None
    hits = np.flatnonzero(log.objectives < eps)
    return None if hits.size == 0 else int(hits[0]) + 1


def _check_budget(log: RunLog, k: int, eps: float, store, expert,
                  report: Optional[GapReport] = None) -> None:
    """Raise unless iterate k's gaps are within budget.  ``report`` is the
    gap report at weights with iterate k's bytes, if one is at hand."""
    # Iteration k is the first with F < eps, so its iterate is the best so far.
    if report is None:
        report = reward_gap_report_packed(log.weights[k - 1], store, expert)
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
    """``reward_gap_report``, ``corollary_check`` and
    ``equivalence_check`` at ``phi``, raising in that order, on one
    validated store and one exact solve under ``phi``.  The budget is
    checked on that solve's report when iterate k has ``phi``'s bytes."""
    store, expert = _decisions(phi0, data, instances)
    w = as_weights(phi, store.dim)
    learner = solve_packed(w, store)
    report = _gaps(w, learner, expert)
    k = _first_below(log, eps)
    if k is not None:
        same = log.weights[k - 1].tobytes() == w.tobytes()
        _check_budget(log, k, eps, store, expert, report if same else None)
    return report, k, _equivalence(learner, expert)
