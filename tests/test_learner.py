from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import objective_runs, random_problem
from moirl import learner
from moirl.domain import (
    Ball,
    Box,
    Trajectory,
    TrajectorySet,
    checked_decisions,
    make_instance,
)
from moirl.learner import (
    RunConfig,
    StepSchedule,
    objective_value,
    subgradient,
    train,
)
from moirl.projection import project
from moirl.solvers import solve


def single_choice_problem():
    """One instance with actions {0, 1}; expert takes 0 (optimal for phi0=-1)."""
    inst = make_instance("a", [[0.0], [1.0]])
    data = TrajectorySet((Trajectory("a", np.array([0.0])),))
    return {"a": inst}, data


class TestObjective:
    def test_zero_at_expert_consistent_weights(self):
        instances, data, phi0, _ = random_problem(seed=3)
        assert objective_value(phi0, data, instances) == 0.0

    def test_single_instance_direct_value(self):
        instances, data = single_choice_problem()
        assert objective_value(np.array([1.0]), data, instances) == 1.0

    def test_nonnegative_on_feasible_experts(self):
        instances, data, _, rng = random_problem(seed=5, dim=3)
        for _ in range(50):
            phi = rng.normal(size=3)
            assert objective_value(phi, data, instances) >= 0.0

    def test_invalid_data_rejected(self):
        inst = make_instance("a", [[0.0], [1.0]])
        bad = TrajectorySet((Trajectory("a", np.array([7.0])),))
        with pytest.raises(ValueError, match="invalid trajectory data"):
            objective_value(np.array([1.0]), bad, {"a": inst})


class TestSubgradient:
    def test_zero_at_expert_consistent_weights(self):
        instances, data, phi0, _ = random_problem(seed=11)
        g = subgradient(phi0, data, instances)
        assert np.array_equal(g, np.zeros_like(g))

    def test_single_instance_direct_value(self):
        instances, data = single_choice_problem()
        g = subgradient(np.array([1.0]), data, instances)
        assert np.array_equal(g, np.array([1.0]))

    def test_convexity_inequality(self):
        instances, data, _, rng = random_problem(seed=13, dim=3, count=5)
        for _ in range(100):
            phi = rng.normal(size=3)
            psi = rng.normal(size=3)
            g = subgradient(phi, data, instances)
            lhs = objective_value(psi, data, instances)
            rhs = objective_value(phi, data, instances) + g @ (psi - phi)
            assert lhs >= rhs - 1e-9


class TestStepSchedule:
    def test_inverse_sqrt(self):
        s = StepSchedule("inverse_sqrt", 2.0)
        assert s.step(4) == 1.0

    def test_harmonic(self):
        s = StepSchedule("harmonic", 3.0)
        assert s.step(3) == 1.0

    def test_diminishing_and_nonsummable_prefix(self):
        for kind in ("inverse_sqrt", "harmonic"):
            s = StepSchedule(kind, 1.0)
            steps = np.array([s.step(k) for k in range(1, 2001)])
            assert np.all(np.diff(steps) < 0)
            assert steps.sum() > 5.0  # partial sums grow without bound

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StepSchedule("constant", 1.0)


class TestTrain:
    def test_fixed_point_at_ground_truth(self, unit_ball2):
        instances, data, phi0, _ = random_problem(seed=21)
        cfg = RunConfig(max_iters=10, tie_tol=0.0)
        log = train(data, instances, unit_ball2, phi1=phi0, cfg=cfg)
        assert log.best_objective == 0.0
        assert np.all(log.objectives == 0.0)
        assert np.all(log.weights == phi0)

    def test_exactly_k_iterations_without_target(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=22)
        log = train(data, instances, unit_ball2, cfg=RunConfig(max_iters=7))
        assert log.iters_run == 7
        assert list(log.iterations) == list(range(1, 8))

    def test_single_iteration(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=23)
        log = train(data, instances, unit_ball2, cfg=RunConfig(max_iters=1))
        assert log.iters_run == 1

    def test_early_stop_on_target(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=24)
        cfg = RunConfig(max_iters=10_000, target_eps=1e-2)
        log = train(data, instances, unit_ball2, phi1=np.array([0.0, -1.0]), cfg=cfg)
        assert log.iters_run < 10_000
        assert log.best_objective < 1e-2

    def test_converges_from_random_start(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=25, count=6, n_actions=12)
        cfg = RunConfig(
            schedule=StepSchedule("inverse_sqrt", 0.5),
            max_iters=5000,
            tie_tol=0.0,
        )
        log = train(data, instances, unit_ball2, phi1=np.array([-1.0, 0.0]), cfg=cfg)
        assert log.best_objective <= 1e-3

    def test_iterates_stay_feasible(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=26)
        log = train(data, instances, unit_ball2, phi1=np.array([1.0, 0.0]),
                    cfg=RunConfig(max_iters=200))
        norms = np.linalg.norm(log.weights, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)

    def test_best_trace_nonincreasing(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=27)
        log = train(data, instances, unit_ball2, phi1=np.array([0.0, 1.0]),
                    cfg=RunConfig(max_iters=300))
        trace = log.prefix_best()
        assert np.all(np.diff(trace) <= 0.0)
        assert log.best_objective == trace[-1]

    def test_update_rule_fidelity(self, unit_ball2):
        # Re-applying step-then-project to each logged iterate reproduces
        # the next logged iterate exactly.
        instances, data, _, _ = random_problem(seed=28)
        cfg = RunConfig(max_iters=50, tie_tol=0.0)
        log = train(data, instances, unit_ball2, phi1=np.array([0.3, -0.7]), cfg=cfg)
        insts = [instances[t.instance_id] for t in data]
        expert = np.stack([t.action for t in data])
        for i in range(log.iters_run - 1):
            phi_k = log.weights[i]
            chosen = np.stack([solve(phi_k, inst, 0.0).chosen for inst in insts])
            g = (chosen - expert).mean(axis=0)
            alpha = cfg.schedule.step(int(log.iterations[i]))
            nxt = project(unit_ball2, phi_k - alpha * g)
            assert np.array_equal(nxt, log.weights[i + 1])

    def test_infeasible_start_is_projected_with_warning(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=29)
        with pytest.warns(UserWarning, match="projecting"):
            log = train(data, instances, unit_ball2, phi1=np.array([5.0, 0.0]),
                        cfg=RunConfig(max_iters=1))
        assert np.linalg.norm(log.weights[0]) <= 1.0 + 1e-12

    def test_matches_reference_loop_over_solve(self, unit_ball2):
        instances, data, _, _ = random_problem(seed=31, dim=2, count=40,
                                               n_actions=9)
        cfg = RunConfig(schedule=StepSchedule("inverse_sqrt", 0.5), max_iters=60)
        phi1 = np.array([0.3, -0.7])
        log = train(data, instances, unit_ball2, phi1=phi1, cfg=cfg)

        insts = [instances[t.instance_id] for t in data]
        expert = np.stack([t.action for t in data])
        phi, phis, objs, gnorms = phi1, [], [], []
        for k in range(1, cfg.max_iters + 1):
            chosen = np.stack([solve(phi, inst, cfg.tie_tol).chosen for inst in insts])
            g = (chosen - expert).mean(axis=0)
            phis.append(phi)
            objs.append(float(g @ phi))
            gnorms.append(float(np.linalg.norm(g)))
            phi = project(unit_ball2, phi - cfg.schedule.step(k) * g)
        assert np.array_equal(log.weights, np.stack(phis))
        assert np.array_equal(log.objectives, np.array(objs))
        assert np.array_equal(log.grad_norms, np.array(gnorms))

    def test_non_finite_objective_raises_before_it_is_logged(self):
        inst = make_instance("a", [[1.5e308, 0.0], [-1.5e308, 1.0]])
        data = TrajectorySet((Trajectory("a", np.array([1.5e308, 0.0])),))
        fs = Ball(center=np.zeros(2), radius=1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="not finite at iteration 1"):
            train(data, {"a": inst}, fs, cfg=RunConfig(max_iters=1))

    def test_best_tie_broken_by_earliest_iteration(self, unit_ball2):
        instances, data, phi0, _ = random_problem(seed=30)
        log = train(data, instances, unit_ball2, phi1=phi0,
                    cfg=RunConfig(max_iters=5))
        assert log.best_iteration == 1


def running_best_loop(objectives, eps, schedule):
    """The loop's old bookkeeping, as reference: a strict-``<`` running
    best, and the target_eps stop on it, over scripted objectives F with
    subgradients (F, 1) and no projection."""
    phi, phis = np.zeros(2), []
    best_obj, best_phi, best_k = np.inf, None, 0
    for k, obj in enumerate(objectives, start=1):
        phis.append(phi)
        if obj < best_obj:
            best_obj, best_phi, best_k = obj, phi, k
        if eps is not None and best_obj < eps:
            break
        phi = phi - schedule.step(k) * np.array([obj, 1.0])
    return np.stack(phis), best_k, best_obj, best_phi


class TestBestIterate:
    """The best iterate and the target_eps stop, derived from the logged
    objectives, against the running-best loop."""

    @given(objectives=objective_runs(),
           eps=st.sampled_from([None, 0.1, 0.25, 0.3, 1.0, 3.0]))
    def test_matches_running_best_loop(self, objectives, eps):
        instances, data, _, _ = random_problem(seed=32)
        store, expert = checked_decisions(data, instances)
        script = iter(objectives)

        def scripted(phi, store, expert, tie_tol):
            obj = next(script)
            return obj, np.array([obj, 1.0])  # every iterate differs from the last

        # A box so wide that no step is projected.
        wide = Box(lo=np.full(2, -1e6), hi=np.full(2, 1e6))
        cfg = RunConfig(max_iters=len(objectives), target_eps=eps)
        with mock.patch.object(learner, "_evaluate", scripted):
            log = learner.train_packed(store, expert, wide, np.zeros(2), cfg)

        phis, best_k, best_obj, best_phi = running_best_loop(
            objectives, eps, cfg.schedule)
        assert log.weights.tobytes() == phis.tobytes()
        assert log.objectives.tobytes() == np.array(objectives[:len(phis)]).tobytes()
        assert log.best_iteration == best_k
        assert repr(log.best_objective) == repr(float(best_obj))
        assert log.best_weights.tobytes() == best_phi.tobytes()
