import numpy as np
import pytest

from conftest import random_problem
from moirl.domain import Ball, Trajectory, TrajectorySet, make_instance
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

    def test_best_tie_broken_by_earliest_iteration(self, unit_ball2):
        instances, data, phi0, _ = random_problem(seed=30)
        log = train(data, instances, unit_ball2, phi1=phi0,
                    cfg=RunConfig(max_iters=5))
        assert log.best_iteration == 1
