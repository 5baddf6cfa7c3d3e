import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from moirl.guarantees import _equivalence
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


def all_points_w1(mu, nu):
    """Hungarian assignment over all N x N point pairs."""
    cost = cdist(mu, nu)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


# Small integers so that points repeat, signed zeros, and a few
# non-dyadic values whose distances round.
COORD = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 0.1, 1 / 3, -2.7])


@st.composite
def measure_pairs(draw):
    """Two (N, d) point arrays; ``nu`` is a shuffled copy of ``mu`` with
    some rows redrawn, so that they share much of their mass, all of it,
    or little."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 4))
    rows = st.lists(st.lists(COORD, min_size=d, max_size=d), min_size=n, max_size=n)
    mu = np.array(draw(rows))
    nu = mu[draw(st.permutations(range(n)))]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        nu[i] = draw(st.lists(COORD, min_size=d, max_size=d))
    return mu, nu


def same_multiset(mu, nu):
    def count(pts):
        return Counter(map(tuple, (pts + 0.0).tolist()))  # + 0.0 turns -0.0 into 0.0

    return count(mu) == count(nu)


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

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_empty_measure_or_point_rejected(self, shape):
        with pytest.raises(ValueError, match="nonempty"):
            w1_exact(np.zeros(shape), np.zeros(shape))

    @given(measure_pairs())
    @settings(max_examples=300)
    def test_matches_all_points_assignment(self, pair):
        mu, nu = pair
        w1 = w1_exact(mu, nu)
        assert w1 == pytest.approx(all_points_w1(mu, nu), rel=1e-12, abs=0)
        assert (w1 == 0.0) == same_multiset(mu, nu)
        assert w1_exact(nu, mu) == pytest.approx(w1, rel=1e-12, abs=0)

    def test_permuted_copy_needs_no_assignment(self, monkeypatch):
        def no_assignment(cost):
            raise AssertionError(f"assignment solved on {cost.shape}")

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", no_assignment)
        rng = np.random.default_rng(3)
        pts = rng.integers(-5, 6, size=(3000, 3)).astype(float)
        assert w1_exact(pts, pts[rng.permutation(3000)]) == 0.0

    def test_assigns_only_unshared_points(self, monkeypatch):
        shapes = []

        def recording(cost):
            shapes.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", recording)
        mu = [[0.0], [1.0], [2.0], [2.0], [2.0]]
        nu = [[2.0], [-0.0], [5.0], [2.0], [7.0]]  # leaves 1, 2 against 5, 7
        assert w1_exact(mu, nu) == pytest.approx((4.0 + 5.0) / 5)
        assert shapes == [(2, 2)]

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pts = rng.normal(size=(3, 4, 2))
            a, b, c = pts
            assert w1_exact(a, a) == 0.0
            assert w1_exact(a, b) == pytest.approx(w1_exact(b, a), abs=1e-9)
            assert w1_exact(a, c) <= w1_exact(a, b) + w1_exact(b, c) + 1e-9

    @given(measure_pairs())
    @settings(max_examples=200)
    def test_w1_zero_is_the_multiset_test(self, pair):
        mu, nu = pair
        assert _equivalence(mu, nu).w1_zero == same_multiset(mu, nu)

    def test_zero_iff_equal_multisets(self):
        a = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0]])
        b = np.array([[2.0, 2.0], [0.0, 1.0], [0.0, 1.0]])  # same multiset
        assert w1_exact(a, b) == 0.0
        c = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        assert w1_exact(a, c) > 0.0


class TestTinyDistances:
    """Distances whose squared coordinate differences are subnormal or 0
    are taken with a scaled norm, so distinct measures never have W1 0."""

    @pytest.mark.parametrize("a, b", [
        ([0.0, 1.0], [5e-324, 1.0]),
        ([5.0, 1e-170], [5.0, 2e-170]),
        ([1e-160, 0.0], [0.0, 1e-160]),
        ([1e-200, -3e-170, 0.0], [-1e-200, 2e-170, 5e-324]),
        ([1e-160, 7.0, 2e-155], [2e-160, 7.0, 0.0]),
        ([2e-154, 1e-300], [0.0, 0.0]),
    ])
    def test_single_pair_matches_hypot(self, a, b):
        want = math.hypot(*(x - y for x, y in zip(a, b)))
        assert want > 0.0
        assert w1_exact([a], [b]) == pytest.approx(want, rel=1e-15, abs=0)

    # A huge coordinate, shared or not, beside a tiny one: the scale
    # comes from the coordinate differences, not from the points.
    @pytest.mark.parametrize("mu, nu", [
        ([[1e300, 0.0]], [[1e300, 1e-300]]),
        ([[1e300, 1e-300]], [[1e300, -1e-300]]),
        ([[-1e308, 5e-324, 3.0]], [[-1e308, 0.0, 3.0]]),
        ([[1e300, 1e-300]], [[-1e300, 0.0]]),
        ([[1e300, 0.0], [0.0, 0.0]], [[-1e300, 0.0], [0.0, 1e-300]]),
        ([[1e300, 1e-300], [0.0, 0.0]], [[1e300, 0.0], [0.0, 0.0]]),
        ([[1e300, 0.0], [-1e300, 5.0]], [[1e300, 1e-300], [-1e300, 5.0]]),
    ])
    def test_huge_beside_tiny_matches_hypot(self, mu, nu):
        want = min(sum(math.hypot(*(x - y for x, y in zip(a, nu[j])))
                       for a, j in zip(mu, perm)) / len(mu)
                   for perm in itertools.permutations(range(len(mu))))
        assert want > 0.0
        assert w1_exact(mu, nu) == pytest.approx(want, rel=1e-15, abs=0)
        mean = [math.fsum(x - y for x, y in zip(col_a, col_b)) / len(mu)
                for col_a, col_b in zip(zip(*mu), zip(*nu))]
        assert linear_dual_lower_bound(mu, nu) == pytest.approx(
            math.hypot(*mean), rel=1e-15, abs=0)

    def test_tiny_distances_decide_the_assignment(self):
        # Every squared distance underflows to 0; the optimal pairing
        # costs 1e-170 a pair, the other 4e-170 and 2e-170.
        mu, nu = [[0.0], [3e-170]], [[1e-170], [4e-170]]
        assert w1_exact(mu, nu) == pytest.approx(1e-170, rel=1e-15, abs=0)


class TestLargeFiniteInputs:
    """Points of magnitude 2**510 and up are scaled by a power of two, so
    squared distances do not overflow; the values keep their bits."""

    def test_w1_of_opposite_points(self):
        assert w1_exact([[1e200, 0.0]], [[-1e200, 0.0]]) == 2e200

    def test_dual_bound_of_opposite_points(self):
        assert linear_dual_lower_bound([[1e200, 0.0]], [[-1e200, 0.0]]) == 2e200

    def test_finite_w1_of_a_residual_beyond_the_float_range(self):
        # The unshared pair is 2e308 apart; the mean over 2 decisions is not.
        mu, nu = [[1e308], [-1e308]], [[1e308], [1e308]]
        assert w1_exact(mu, nu) == 1e308
        assert linear_dual_lower_bound(mu, nu) == 1e308

    @pytest.mark.parametrize("fn", [w1_exact, linear_dual_lower_bound])
    def test_value_beyond_the_float_range_rejected(self, fn):
        with pytest.raises(ValueError, match="beyond the float range"):
            fn([[1e308, 0.0]], [[-1e308, 0.0]])

    @pytest.mark.parametrize("k", [-40, 40, 500, 1000])
    def test_scaling_by_a_power_of_two_keeps_the_bits(self, k):
        rng = np.random.default_rng(4)
        mu = rng.integers(-9, 10, size=(60, 3)) * 0.1
        nu = rng.integers(-9, 10, size=(60, 3)) * 0.1
        for fn in (w1_exact, linear_dual_lower_bound):
            assert fn(np.ldexp(mu, k), np.ldexp(nu, k)) == np.ldexp(fn(mu, nu), k)

    def test_many_coordinates_do_not_overflow(self):
        # 64 squared differences of 2**509 each sum past the float range.
        mu, nu = np.full((1, 64), 2.0**508), np.full((1, 64), -(2.0**508))
        assert w1_exact(mu, nu) == 2.0**512
        assert linear_dual_lower_bound(mu, nu) == 2.0**512


class TestLinearDualLowerBound:
    def test_identical_measures(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert linear_dual_lower_bound(pts, pts) == 0.0

    def test_tight_at_single_point(self):
        assert linear_dual_lower_bound([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0

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


@pytest.mark.parametrize("fn", [w1_exact, linear_dual_lower_bound])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(fn, bad):
    good = [[0.0, 1.0], [2.0, 3.0]]
    for mu, nu in (([[0.0, bad], [2.0, 3.0]], good), (good, [[0.0, 1.0], [bad, 3.0]]),
                   ([[bad, 0.0]], [[bad, 0.0]])):
        with pytest.raises(ValueError, match="finite"):
            fn(mu, nu)
