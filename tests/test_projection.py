import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moirl.domain import Ball, Box, Simplex
from moirl.projection import contains, project


def vec(d, lo=-5.0, hi=5.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False), min_size=d, max_size=d
    ).map(lambda xs: np.array(xs))


SETS = [
    Box(lo=np.array([-1.0, 0.0, -2.0]), hi=np.array([1.0, 2.0, 0.5])),
    Ball(center=np.array([0.5, -0.5, 0.0]), radius=1.5),
    Simplex(dimension=3),
]


def test_box_clamp():
    fs = Box(lo=np.zeros(2), hi=np.ones(2))
    assert np.array_equal(project(fs, np.array([2.0, -1.0])), np.array([1.0, 0.0]))


def test_ball_radial_scaling():
    fs = Ball(center=np.zeros(2), radius=1.0)
    out = project(fs, np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)


def test_simplex_center():
    fs = Simplex(dimension=3)
    out = project(fs, np.array([0.5, 0.5, 0.5]))
    assert np.allclose(out, np.full(3, 1 / 3), atol=1e-12)


def test_simplex_matches_grid_search():
    # Dense grid over the simplex at resolution 1e-3 as an independent oracle.
    fs = Simplex(dimension=3)
    v = np.array([0.9, 0.3, -0.2])
    out = project(fs, v)
    step = 1e-3
    best, best_d = None, np.inf
    for i in np.arange(0.0, 1.0 + step / 2, step):
        for j in np.arange(0.0, 1.0 - i + step / 2, step):
            p = np.array([i, j, 1.0 - i - j])
            dd = np.sum((p - v) ** 2)
            if dd < best_d:
                best, best_d = p, dd
    assert np.linalg.norm(out - best) < 2e-3
    assert np.sum((out - v) ** 2) <= best_d + 1e-9


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        project(Simplex(dimension=3), np.array([1.0, 2.0]))


@pytest.mark.parametrize("fs", SETS, ids=lambda s: type(s).__name__)
class TestProjectionProperties:
    @given(v=vec(3))
    @settings(max_examples=100)
    def test_idempotent(self, fs, v):
        p = project(fs, v)
        assert np.linalg.norm(project(fs, p) - p) <= 1e-12

    @given(v=vec(3))
    @settings(max_examples=100)
    def test_membership(self, fs, v):
        assert contains(fs, project(fs, v), tol=1e-12)

    @given(u=vec(3), v=vec(3))
    @settings(max_examples=100)
    def test_nonexpansive(self, fs, u, v):
        pu, pv = project(fs, u), project(fs, v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    @given(v=vec(3), w_raw=vec(3))
    @settings(max_examples=100)
    def test_obtuse_angle_optimality(self, fs, v, w_raw):
        p = project(fs, v)
        w = project(fs, w_raw)  # any member of the set
        assert float((v - p) @ (w - p)) <= 1e-9

    @given(v=vec(3))
    @settings(max_examples=50)
    def test_identity_on_members(self, fs, v):
        m = project(fs, v)
        assert np.allclose(project(fs, m), m, atol=1e-12)


@pytest.mark.parametrize("fs, v, want", [
    (Simplex(dimension=3), [1e308, 1e308, 0.0], [0.5, 0.5, 0.0]),
    (Simplex(dimension=3), [-1e308, -1e308, 0.0], [0.0, 0.0, 1.0]),
    (Ball(center=np.zeros(2), radius=1.0), [1e308, 1e308], [2**-0.5, 2**-0.5]),
    (Ball(center=np.array([-1e308, 0.0]), radius=1.0), [1e308, 0.0], [-1e308, 0.0]),
], ids=["simplex-sum-overflows", "simplex-sum-overflows-negative",
        "ball-norm-overflows", "ball-offset-overflows"])
def test_huge_finite_points(fs, v, want):
    # The plain computation overflows, which numpy reports; the result is
    # still the projection.
    with np.errstate(over="ignore"):
        out = project(fs, np.array(v))
    assert np.allclose(out, want, rtol=1e-15, atol=0.0)


@given(v=vec(3, -1e3, 1e3))
@settings(max_examples=100)
def test_simplex_shift_and_clip_keep_the_projection(v):
    # What the overflow fallback relies on.
    fs = Simplex(dimension=3)
    shifted = np.maximum(v - v.max(), -1.0)
    assert np.allclose(project(fs, shifted), project(fs, v), rtol=0.0, atol=1e-12)
