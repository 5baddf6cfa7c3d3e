import numpy as np
import pytest
from hypothesis import settings

from moirl.domain import Ball
from moirl.synth import expert_trajectories, random_instances

# Fixed example sequences and no per-example time limit: tier-1 runs on
# small, noisy machines, where a deadline or a fresh draw can flake.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_problem(seed, dim=2, count=4, n_actions=8, low=-10, high=10,
                   phi0_grid=False):
    """Seeded instances plus expert data from planted ground-truth weights.

    With ``phi0_grid`` the ground truth is drawn from a dyadic grid
    (multiples of 0.25) so solver scores are exact floats.
    """
    rng = np.random.default_rng(seed)
    instances = random_instances(rng, count, dim, n_actions, low, high)
    if phi0_grid:
        phi0 = grid_weights(rng, dim)
    else:
        u = rng.normal(size=dim)
        phi0 = 0.8 * u / np.linalg.norm(u)
    data = expert_trajectories(phi0, instances)
    return instances, data, phi0, rng


def grid_weights(rng, dim):
    """Nonzero dyadic-rational weights: exact dot products on integer actions."""
    while True:
        w = rng.integers(-8, 9, size=dim) * 0.25
        if np.any(w != 0):
            return w


@pytest.fixture
def unit_ball2():
    return Ball(center=np.zeros(2), radius=1.0)
