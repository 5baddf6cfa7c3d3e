import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import grid_weights, objective_runs, random_problem
from moirl import guarantees
from moirl.domain import Ball, TrajectorySet, make_instance
from moirl.guarantees import (
    GapReport,
    GuaranteeViolation,
    corollary_check,
    equivalence_check,
    reward_gap_report,
    verify_run,
)
from moirl.learner import RunConfig, RunLog, StepSchedule, objective_value, train
from moirl.solvers import solve_packed
from moirl.synth import expert_trajectories, random_instances
from moirl.wasserstein import w1_exact


class TestRewardGapReport:
    def test_all_zero_at_ground_truth(self):
        instances, data, phi0, _ = random_problem(seed=1)
        report = reward_gap_report(phi0, phi0, data, instances)
        assert np.all(report.gaps == 0.0)
        assert report.objective == 0.0

    @pytest.mark.parametrize("tie_tol", [1e-9, -1.0, np.nan])
    def test_tie_tol_must_be_zero(self, tie_tol):
        instances, data, phi0, _ = random_problem(seed=1)
        with pytest.raises(ValueError, match="tie_tol must be 0"):
            reward_gap_report(phi0, phi0, data, instances, tie_tol=tie_tol)
        for zero in (0, -0.0):
            assert not reward_gap_report(phi0, phi0, data, instances, zero).gaps.any()

    def test_single_decision_gap_equals_objective(self):
        # At N=1 the per-decision gap is exactly N * objective.
        instances, data, phi0, rng = random_problem(seed=2, count=1)
        phi = rng.normal(size=2)
        report = reward_gap_report(phi, phi0, data, instances)
        assert report.n == 1
        assert report.gaps[0] == pytest.approx(
            objective_value(phi, data, instances), abs=1e-12
        )

    def test_gap_sum_equals_n_times_objective(self):
        instances, data, phi0, rng = random_problem(seed=3, count=5)
        for _ in range(20):
            phi = rng.normal(size=2)
            report = reward_gap_report(phi, phi0, data, instances)
            assert report.gaps.sum() == pytest.approx(
                report.n * objective_value(phi, data, instances), abs=1e-9
            )
            assert np.all(report.gaps >= -1e-12)

    def test_budget_bound(self):
        instances, data, phi0, rng = random_problem(seed=4, count=3)
        for _ in range(50):
            phi = rng.normal(size=2)
            report = reward_gap_report(phi, phi0, data, instances)
            for eps in (1e-1, 1e-2):
                if report.objective < eps:
                    assert np.all(report.gaps < eps * report.n + 1e-12)

    def test_hypothesis_violation_names_decision(self):
        inst = make_instance("a", [[0.0], [1.0]])
        data = TrajectorySet(["a"], [[0.0]])
        # phi0 = +1 makes the solver pick 1, not the recorded 0.
        with pytest.raises(GuaranteeViolation, match="expert action 0"):
            reward_gap_report(np.array([1.0]), np.array([1.0]), data, {"a": inst})

    def test_without_ground_truth_gaps_are_against_the_expert(self):
        inst = make_instance("a", [[0.0], [1.0]])
        data = TrajectorySet(["a"], [[0.0]])
        report = reward_gap_report(np.array([1.0]), None, data, {"a": inst})
        assert report.gaps.tolist() == [1.0]


GAP_NUMBERS = st.floats(-1e100, 1e100) | st.sampled_from([-0.0, 0.1, 1 / 3, 1e-100])


@st.composite
def scored_pairs(draw):
    """Weights and (N, d) chosen and expert rows, swapped where needed so
    that no gap is negative."""
    d, n = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    w = draw(arrays(np.float64, d, elements=GAP_NUMBERS))
    chosen, expert = (draw(arrays(np.float64, (n, d), elements=GAP_NUMBERS))
                      for _ in range(2))
    swap = np.array([w @ a < w @ e for a, e in zip(chosen, expert)])
    chosen[swap], expert[swap] = expert[swap], chosen[swap]
    return w, chosen, expert


@given(scored_pairs())
@settings(max_examples=300)
def test_gaps_equal_one_dot_product_per_row_bit_for_bit(pairs):
    w, chosen, expert = pairs
    want = np.array([float(w @ a - w @ e) for a, e in zip(chosen, expert)])
    got = guarantees._gaps(w, chosen, expert).gaps
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestEquivalenceCheck:
    def test_all_true_at_ground_truth(self):
        instances, data, phi0, _ = random_problem(seed=10, phi0_grid=True)
        report = equivalence_check(phi0, phi0, data, instances)
        assert (report.subgrad_zero, report.actions_equal, report.w1_zero) == (
            True,
            True,
            True,
        )
        assert report.unanimous

    def test_all_false_when_actions_differ(self):
        instances, data, phi0, rng = random_problem(seed=11, phi0_grid=True)
        # Scan a dyadic grid until the solved actions differ somewhere.
        for _ in range(1000):
            phi = grid_weights(rng, 2)
            report = equivalence_check(phi, phi0, data, instances)
            if not report.actions_equal:
                assert (report.subgrad_zero, report.w1_zero) == (False, False)
                return
        pytest.fail("no disagreeing weights found in grid scan")

    def test_all_false_without_ground_truth_on_a_swapped_decision(self):
        instances, data, phi0, _ = random_problem(seed=10, phi0_grid=True)
        actions = data.actions.copy()
        inst = instances[data.instance_ids[0]]
        actions[0] = next(a for a in inst.actions if np.any(a != actions[0]))
        swapped = TrajectorySet(data.instance_ids, actions)
        with pytest.raises(GuaranteeViolation, match="expert action 0"):
            equivalence_check(phi0, phi0, swapped, instances)
        report = equivalence_check(phi0, None, swapped, instances)
        assert (report.subgrad_zero, report.actions_equal, report.w1_zero) == (
            False, False, False)

    def test_all_false_when_actions_differ_by_a_subnormal(self):
        # The distance 5e-324 squares to 0, yet the float W1 of these
        # decisions is 5e-324, and the multiset test behind w1_zero agrees.
        instances = {"a": make_instance("a", [[0.0, 1.0], [5e-324, 1.0]])}
        data = TrajectorySet(["a"], [[5e-324, 1.0]])
        assert w1_exact([[0.0, 1.0]], data.actions) == 5e-324
        report = equivalence_check([-1.0, 0.0], None, data, instances)
        assert (report.subgrad_zero, report.actions_equal, report.w1_zero) == (
            False, False, False)
        assert report.unanimous

    def test_no_counterexample_in_randomized_search(self):
        # Mean cancellation of action differences cannot occur when the
        # expert comes from the exact tie-breaking solver: search small
        # integer cases for a violation and expect none.
        rng = np.random.default_rng(12)
        for trial in range(2000):
            dim = int(rng.integers(2, 4))
            instances = random_instances(
                rng, count=int(rng.integers(2, 5)), dim=dim,
                n_actions=int(rng.integers(2, 5)), low=-3, high=3,
                prefix=f"t{trial}",
            )
            phi0 = grid_weights(rng, dim)
            phi = grid_weights(rng, dim)
            data = expert_trajectories(phi0, instances)
            assert equivalence_check(phi, phi0, data, instances).unanimous

    def test_actions_equal_implies_w1_zero_without_tie_breaking(self):
        # One direction needs no lexicographic hypothesis: identical
        # action lists always give zero distance.
        rng = np.random.default_rng(13)
        pts = rng.integers(-5, 6, size=(4, 2)).astype(float)
        assert w1_exact(pts, pts.copy()) == 0.0


def trained_run(seed=20, swap=False):
    """A run on planted data.  With ``swap``, decision 0's expert action is
    first replaced by its instance's worst action under phi0, and the
    returned ground truth is None."""
    instances, data, phi0, _ = random_problem(seed=seed, count=4, n_actions=10)
    if swap:
        actions = data.actions.copy()
        inst = instances[data.instance_ids[0]]
        actions[0] = inst.actions[np.argmin(inst.actions @ phi0)]
        data, phi0 = TrajectorySet(data.instance_ids, actions), None
    fs = Ball(center=np.zeros(2), radius=1.0)
    cfg = RunConfig(schedule=StepSchedule("inverse_sqrt", 0.5),
                    max_iters=5000, tie_tol=0.0)
    log = train(data, instances, fs, phi1=np.array([0.0, -1.0]), cfg=cfg)
    return log, phi0, data, instances


class TestCorollaryCheck:
    def test_huge_eps_hits_first_iteration(self):
        log, phi0, data, instances = trained_run()
        assert corollary_check(log, phi0, data, instances, eps=1e9) == 1

    def test_zero_eps_is_absent(self):
        log, phi0, data, instances = trained_run()
        assert corollary_check(log, phi0, data, instances, eps=0.0) is None

    def test_reaches_budget_within_run(self):
        log, phi0, data, instances = trained_run()
        k = corollary_check(log, phi0, data, instances, eps=1e-2)
        assert k is not None and k <= 5000

    def test_unreachable_eps_is_absent(self):
        log, phi0, data, instances = trained_run(swap=True)
        assert np.all(log.objectives > 0)
        tiny = float(log.objectives.min()) * 1e-6
        assert corollary_check(log, phi0, data, instances, eps=tiny) is None


class TestFirstBelow:
    """The first iteration below eps, and the iterate whose gaps are checked
    there, against the running-minimum rule."""

    @given(objectives=objective_runs(),
           eps=st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 3.0]))
    def test_matches_prefix_best_rule(self, objectives, eps):
        t = len(objectives)
        log = RunLog(weights=np.arange(2.0 * t).reshape(t, 2),
                     objectives=np.array(objectives), grad_norms=np.zeros(t))
        hits = np.nonzero(log.prefix_best() < eps)[0]
        want = int(hits[0]) + 1 if eps > 0 and hits.size else None
        assert guarantees._first_below(log, eps) == want
        if want is None:
            return
        seen = []

        def gap_report(phi, store, expert):
            seen.append(phi)
            return GapReport(gaps=np.zeros(1))

        with mock.patch.object(guarantees, "reward_gap_report_packed", gap_report):
            guarantees._check_budget(log, want, eps, None, None)
        best = log.weights[int(np.argmin(log.objectives[:want]))]
        assert [phi.tobytes() for phi in seen] == [best.tobytes()]


class TestVerifyRun:
    """``verify_run`` against the three checks called one by one."""

    @pytest.mark.parametrize("eps", [1e9, 1e-2, 0.0, 1e-300])
    def test_matches_the_separate_checks(self, eps):
        log, phi0, data, instances = trained_run()
        for phi, truth in itertools.product(
                (log.best_weights, log.weights[0], np.array([0.3, -0.1])),
                (phi0, None)):
            report, k, equiv = verify_run(log, phi, truth, data, instances, eps)
            want = reward_gap_report(phi, truth, data, instances, tie_tol=0.0)
            assert report.gaps.tobytes() == want.gaps.tobytes()
            assert (report.objective, report.n) == (want.objective, want.n)
            assert k == corollary_check(log, truth, data, instances, eps)
            assert equiv == equivalence_check(phi, truth, data, instances)

    def test_inconsistent_expert_raises_as_reward_gap_report(self):
        log, phi0, data, instances = trained_run()
        with pytest.raises(GuaranteeViolation, match="expert action"):
            verify_run(log, log.best_weights, -phi0, data, instances, 1e-2)

    @staticmethod
    def solves(*args):
        """``verify_run(*args)``'s result, and how many solves it made."""
        with mock.patch.object(guarantees, "solve_packed",
                               wraps=solve_packed) as solve:
            return verify_run(*args), solve.call_count

    def test_budget_checked_on_the_solve_at_phi(self):
        log, phi0, data, instances = trained_run()
        k = guarantees._first_below(log, 1e-300)
        assert k == log.best_iteration
        for truth, calls in ((None, 1), (phi0, 2)):
            got, n = self.solves(log, log.best_weights, truth, data, instances, 1e-300)
            assert n == calls
            assert got[1] == k
        # Another phi: iterate k is solved on its own.
        _, n = self.solves(log, log.weights[0], None, data, instances, 1e-300)
        assert n == 2

    def test_budget_failure_message_unchanged(self):
        # A log whose F (0) belies its iterate's gaps.
        _, _, data, instances = trained_run()
        phi = np.array([0.3, -0.1])
        log = RunLog(weights=phi[None], objectives=np.zeros(1), grad_norms=np.zeros(1))
        with pytest.raises(GuaranteeViolation) as want:
            corollary_check(log, None, data, instances, 1e-3)
        assert str(want.value).startswith("reward gap exceeds eps*N at iteration 1")
        with mock.patch.object(guarantees, "solve_packed", wraps=solve_packed) as solve, \
                pytest.raises(GuaranteeViolation) as got:
            verify_run(log, phi.copy(), None, data, instances, 1e-3)
        assert solve.call_count == 1
        assert str(got.value) == str(want.value)
