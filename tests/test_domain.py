import numpy as np
import pytest
from hypothesis import given, strategies as st

from moirl.domain import (
    Ball,
    Box,
    Simplex,
    Trajectory,
    TrajectorySet,
    canonical_actions,
    make_instance,
    validate,
)


def ts(*pairs):
    return TrajectorySet(
        trajectories=tuple(Trajectory(iid, np.array(a, dtype=float)) for iid, a in pairs)
    )


class TestValidate:
    def test_well_formed(self):
        inst = make_instance("a", [[0.0, 0.0], [1.0, 0.0]])
        assert validate(ts(("a", [1.0, 0.0])), {"a": inst}) == []

    def test_membership_violation(self):
        inst = make_instance("a", [[0.0, 0.0], [1.0, 0.0]])
        out = validate(ts(("a", [9.0, 9.0])), {"a": inst})
        assert len(out) == 1
        assert "not in the action set" in out[0]
        assert "trajectory 0" in out[0]

    def test_dangling_reference(self):
        inst = make_instance("a", [[0.0]])
        out = validate(ts(("missing", [0.0])), {"a": inst})
        assert len(out) == 1
        assert "unknown instance" in out[0]

    def test_dimension_mismatch(self):
        inst = make_instance("a", [[0.0, 0.0]])
        out = validate(ts(("a", [0.0])), {"a": inst})
        assert len(out) == 1
        assert "dimension" in out[0]


class TestCanonicalActions:
    def test_dedup_preserves_distinct_vectors(self):
        arr = canonical_actions([[0, 0], [0, 0], [1, 1]])
        assert arr.shape == (2, 2)

    def test_idempotent(self):
        a = canonical_actions([[3, 1], [1, 2], [3, 1], [0, 5]])
        b = canonical_actions(a)
        assert np.array_equal(a, b)

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=2, max_size=2),
            min_size=1,
            max_size=12,
        )
    )
    def test_dedup_matches_set_semantics(self, rows):
        arr = canonical_actions(rows)
        assert {tuple(r) for r in arr.tolist()} == {tuple(map(float, r)) for r in rows}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_actions(np.empty((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            canonical_actions([[np.nan, 0.0]])

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            canonical_actions(np.empty((1, 0)))

    def test_sorted_input_is_copied_with_its_zero_signs(self):
        rows = np.array([[-0.0, 1.0], [0.0, 2.0], [1.0, -0.0]])
        arr = canonical_actions(rows)
        assert arr is not rows and not arr.flags.writeable
        assert arr.tobytes() == rows.tobytes()

    @given(
        st.integers(1, 4).flatmap(lambda d: st.lists(
            st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1 / 3, 1.0, 1e300]),
                     min_size=d, max_size=d),
            min_size=1, max_size=10,
        )),
        st.sampled_from(["as drawn", "sorted", "sorted distinct"]),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_np_unique(self, rows, order, seed):
        arr = np.array(rows)
        if order == "sorted":
            arr = arr[np.lexsort(arr.T[::-1])]
        elif order == "sorted distinct":
            arr = np.unique(arr, axis=0)
        # Flip the sign of some zeros, so that equal rows can differ in bits.
        flip = (arr == 0) & (np.random.default_rng(seed).random(arr.shape) < 0.5)
        arr[flip] = -arr[flip]
        want = np.unique(arr, axis=0)
        got = canonical_actions(arr)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestFeasibleSets:
    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            Box(lo=np.array([1.0]), hi=np.array([0.0]))

    def test_ball_requires_positive_radius(self):
        with pytest.raises(ValueError):
            Ball(center=np.zeros(2), radius=0.0)

    def test_simplex_requires_dim(self):
        with pytest.raises(ValueError):
            Simplex(dimension=0)

    def test_dims(self):
        assert Box(lo=np.zeros(3), hi=np.ones(3)).dim == 3
        assert Ball(center=np.zeros(2), radius=1.0).dim == 2
        assert Simplex(dimension=4).dim == 4


def test_trajectory_set_rejects_empty():
    with pytest.raises(ValueError):
        TrajectorySet(trajectories=())
