import itertools

import numpy as np
import pytest

from moirl.wasserstein import linear_dual_lower_bound, w1_exact


def brute_w1(mu, nu):
    """Exhaustive minimum over all N! pairings."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    n = mu.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.linalg.norm(mu[i] - nu[p]) for i, p in enumerate(perm)) / n
        best = min(best, cost)
    return best


class TestW1Exact:
    def test_identical_point_sets(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert w1_exact(pts, pts) == 0.0

    def test_single_pair_distance(self):
        assert w1_exact([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0

    def test_matches_permutation_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 7)
            mu = rng.integers(-10, 11, size=(n, 2)).astype(float)
            nu = rng.integers(-10, 11, size=(n, 2)).astype(float)
            assert w1_exact(mu, nu) == pytest.approx(brute_w1(mu, nu), abs=1e-9)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            w1_exact(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pts = rng.normal(size=(3, 4, 2))
            a, b, c = pts
            assert w1_exact(a, a) == 0.0
            assert w1_exact(a, b) == pytest.approx(w1_exact(b, a), abs=1e-9)
            assert w1_exact(a, c) <= w1_exact(a, b) + w1_exact(b, c) + 1e-9

    def test_zero_iff_equal_multisets(self):
        a = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0]])
        b = np.array([[2.0, 2.0], [0.0, 1.0], [0.0, 1.0]])  # same multiset
        assert w1_exact(a, b) == 0.0
        c = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        assert w1_exact(a, c) > 0.0


class TestLinearDualLowerBound:
    def test_identical_measures(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert linear_dual_lower_bound(pts, pts) == 0.0

    def test_tight_at_single_point(self):
        assert linear_dual_lower_bound([[0.0, 0.0]], [[3.0, 4.0]], f_lip=1.0) == 5.0

    def test_mean_zero_difference_is_one_sided(self):
        mu = np.array([[1.0, 0.0], [-1.0, 0.0]])
        nu = np.array([[0.0, 1.0], [0.0, -1.0]])
        assert linear_dual_lower_bound(mu, nu) == 0.0
        assert w1_exact(mu, nu) > 0.0

    def test_never_exceeds_w1(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = rng.integers(1, 8)
            mu = rng.normal(size=(n, 3))
            nu = rng.normal(size=(n, 3))
            assert linear_dual_lower_bound(mu, nu) <= w1_exact(mu, nu) + 1e-9

    def test_lipschitz_scaling(self):
        mu = np.array([[0.0]])
        nu = np.array([[4.0]])
        assert linear_dual_lower_bound(mu, nu, f_lip=2.0) == 2.0

    def test_nonpositive_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            linear_dual_lower_bound([[0.0]], [[1.0]], f_lip=0.0)

