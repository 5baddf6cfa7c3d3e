import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moirl.domain import (
    Ball,
    Box,
    Simplex,
    Trajectory,
    TrajectorySet,
    canonical_actions,
    checked_decisions,
    make_instance,
    make_instances,
    pack,
    validate,
)


def ts(*pairs):
    ids, actions = zip(*pairs)
    return TrajectorySet(ids, np.array(actions, dtype=float))


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


def validate_loop(ts, instances):
    """The per-trajectory check, the reference for ``validate``."""
    violations = []
    for n, traj in enumerate(ts):
        inst = instances.get(traj.instance_id)
        if inst is None:
            violations.append(
                f"trajectory {n}: unknown instance id {traj.instance_id!r}"
            )
            continue
        if traj.action.shape[0] != inst.dim:
            violations.append(
                f"trajectory {n}: action dimension {traj.action.shape[0]} "
                f"!= instance dimension {inst.dim}"
            )
            continue
        if not np.any(np.all(inst.actions == traj.action, axis=1)):
            violations.append(
                f"trajectory {n}: action {traj.action.tolist()} is not in the "
                f"action set of instance {traj.instance_id!r}"
            )
    return violations


SMALL = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 0.5])


@st.composite
def decision_data(draw):
    """Instances of mixed dimension and trajectories of one action width,
    some instance's if there are any, that hit and miss them: unknown ids,
    wrong dimensions, absent actions and matches up to the sign of a zero."""
    instances = {}
    for iid in draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4)):
        d = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(SMALL, min_size=d, max_size=d),
                             min_size=1, max_size=6))
        instances[iid] = make_instance(iid, rows)
    d = draw(st.sampled_from(sorted({inst.dim for inst in instances.values()})
                             or [1, 2, 3]))
    ids, actions = [], []
    for _ in range(draw(st.integers(1, 12))):
        iid = draw(st.sampled_from("abcde"))
        inst = instances.get(iid)
        if inst is not None and inst.dim == d and draw(st.booleans()):
            action = inst.actions[draw(st.integers(0, inst.actions.shape[0] - 1))]
            action = np.where(action == 0, draw(SMALL) * 0, action)  # any zero sign
        else:
            action = draw(st.lists(SMALL, min_size=d, max_size=d))
        ids.append(iid)
        actions.append(action)
    return TrajectorySet(ids, np.array(actions, dtype=float)), instances


def validate_by_repeat(ts, instances):
    """``validate`` with its former membership test: every row of the
    store matched against its expert action repeated over its segment,
    then one ``logical_or.reduceat``."""
    d = ts.actions.shape[1]
    problems = [p for p in validate_loop(ts, instances) if "not in the" not in p]
    known = [n for n, iid in enumerate(ts.instance_ids)
             if iid in instances and instances[iid].dim == d]
    if known:
        store = pack([instances[ts.instance_ids[n]] for n in known])
        expert = ts.actions[known]
        match = np.all(store.actions == np.repeat(expert, store.sizes, axis=0), axis=1)
        for j in np.flatnonzero(~np.logical_or.reduceat(match, store.starts)):
            n = known[j]
            problems.append(f"trajectory {n}: action {expert[j].tolist()} is not "
                            f"in the action set of instance {ts.instance_ids[n]!r}")
    return sorted(problems, key=lambda p: int(p.split()[1].rstrip(":")))


@st.composite
def decision_data_with_nan(draw):
    """``decision_data`` with some expert coordinates set to NaN."""
    data, instances = draw(decision_data())
    actions = data.actions.copy()
    for n, j in draw(st.lists(st.tuples(st.integers(0, len(actions) - 1),
                                        st.integers(0, actions.shape[1] - 1)),
                              max_size=3)):
        actions[n, j] = np.nan
    return TrajectorySet(data.instance_ids, actions), instances


class TestPackedValidation:
    @given(decision_data())
    def test_validate_matches_per_trajectory_loop(self, case):
        data, instances = case
        assert validate(data, instances) == validate_loop(data, instances)

    # -0.0 matches 0.0, and NaN matches nothing.
    @given(decision_data_with_nan())
    @settings(max_examples=200)
    def test_validate_matches_the_repeat_formula(self, case):
        data, instances = case
        assert validate(data, instances) == validate_by_repeat(data, instances)

    def test_one_instance_store_matches_the_repeat_formula(self):
        inst = make_instance("a", [[0.0, 1.0], [0.0, 2.0], [1.0, -0.0]])
        data = ts(("a", [-0.0, 2.0]), ("a", [1.0, 0.0]), ("a", [0.0, 3.0]),
                  ("a", [np.nan, 1.0]), ("a", [1.0, np.nan]))
        got = validate(data, {"a": inst})
        assert got == validate_by_repeat(data, {"a": inst})
        assert [p.split(":")[0] for p in got] == [
            "trajectory 2", "trajectory 3", "trajectory 4"]

    @given(decision_data())
    def test_checked_decisions_returns_the_packed_decisions(self, case):
        data, instances = case
        insts = [instances.get(t.instance_id) for t in data]
        if validate_loop(data, instances):
            with pytest.raises(ValueError, match="invalid trajectory data"):
                checked_decisions(data, instances)
        else:
            store, expert = checked_decisions(data, instances)
            want = pack(insts)
            assert store.actions.tobytes() == want.actions.tobytes()
            assert np.array_equal(store.starts, want.starts)
            assert np.array_equal(store.sizes, want.sizes)
            assert expert.tobytes() == data.actions.tobytes()

    def test_one_instance_store_is_its_actions(self):
        inst = make_instance("a", [[0.0, 1.0], [2.0, 3.0]])
        store, _ = checked_decisions(ts(("a", [2.0, 3.0])), {"a": inst})
        assert store.actions is inst.actions


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


    @given(st.integers(1, 200), st.integers(1, 4), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_bit_identical_to_np_unique_past_insertion_sort(self, n, d, negzero, seed):
        """Up to 200 rows, past the 16-element cutoff below which numpy's
        sort is an insertion sort, with and without a ``-0.0``."""
        rng = np.random.default_rng(seed)
        arr = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0], size=(n, d))
        if negzero:
            arr[(arr == 0) & (rng.random(arr.shape) < 0.5)] = -0.0
        want = np.unique(arr, axis=0)
        got = canonical_actions(arr)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def segment_lists(draw):
    """Action sets of one width, each as drawn, reversed or already
    canonical, over values with and without a ``-0.0``: duplicates,
    one-row segments and mixed sizes."""
    d = draw(st.integers(1, 3))
    segs = []
    for _ in range(draw(st.integers(1, 8))):
        values = draw(st.sampled_from([[-1.0, 0.0, 0.5, 2.0], [-1.0, -0.0, 0.0, 2.0]]))
        rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=d, max_size=d),
                             min_size=1, max_size=8))
        arr = np.array(rows)
        order = draw(st.sampled_from(["as drawn", "reversed", "canonical"]))
        if order == "reversed":
            arr = arr[::-1]
        elif order == "canonical":
            arr = np.unique(arr, axis=0)
        segs.append(arr)
    return segs


class TestMakeInstances:
    @given(segment_lists())
    @settings(max_examples=150)
    # A canonical segment holding a -0.0 beside an unsorted one without.
    @example([np.array([[-0.0, 1.0], [1.0, 0.0]]), np.array([[2.0, 0.0], [1.0, 0.5]])])
    # Canonical and unsorted segments, no -0.0: both go through the sort.
    @example([np.array([[0.0, 1.0], [1.0, 0.0]]),
              np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 1.0]])])
    # One unsorted segment among one-row segments.
    @example([np.array([[1.0]]), np.array([[2.0], [0.0], [2.0]]), np.array([[-1.0]]),
              np.array([[0.5]])])
    def test_bit_identical_to_canonical_actions_per_segment(self, segs):
        ids = [f"s{i}" for i in range(len(segs))]
        insts = make_instances(ids, np.concatenate(segs), [len(s) for s in segs],
                               states=list(range(len(segs))))
        assert [inst.id for inst in insts] == ids
        assert [inst.state for inst in insts] == list(range(len(segs)))
        for inst, seg in zip(insts, segs):
            want = canonical_actions(seg)
            assert inst.actions.shape == want.shape
            assert inst.actions.tobytes() == want.tobytes()
            assert not inst.actions.flags.writeable
        assert len({id(inst.actions.base) for inst in insts}) == 1

    def test_canonical_input_is_used_in_place(self):
        actions = np.array([[0.0, 1.0], [2.0, -0.0], [-1.0, 5.0], [-0.0, 3.0]])
        insts = make_instances(["a", "b"], actions, [2, 2])
        assert all(inst.actions.base is actions for inst in insts)
        assert not actions.flags.writeable
        assert insts[0].state is None and insts[1].dim == 2

    def test_no_instances(self):
        assert make_instances([], np.empty((0, 3)), []) == []

    def test_one_sort_for_unsorted_segments_without_negative_zero(self, sort_calls):
        rng = np.random.default_rng(0)
        actions = rng.integers(-3, 4, size=(1000 * 20, 3)).astype(float)
        actions[actions == 0] = 1.0  # no zero of either sign
        insts = make_instances([str(i) for i in range(1000)], actions, [20] * 1000)
        assert len(insts) == 1000
        # One np.unique per column; none per segment.
        assert "lexsort" not in sort_calls
        assert len(sort_calls) <= 2 * actions.shape[1]

    @given(st.integers(5, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_bit_identical_to_np_unique_past_key_overflow(self, d, seed):
        """Near-distinct columns over many segments, with duplicated rows:
        the mixed-radix sort key would pass 2**62, so it is re-ranked."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(30, 61, rng.integers(100, 301))
        actions = rng.normal(size=(sizes.sum(), d))
        dst, src = rng.integers(0, len(actions), (2, len(actions) // 5))
        actions[dst] = actions[src]  # across segments and within them
        starts = np.cumsum(sizes) - sizes
        actions[starts + 1] = actions[starts]  # within each segment
        distinct = [len(np.unique(col)) for col in actions.T]
        assert len(sizes) * np.prod(distinct, dtype=float) >= 2**62
        segs = np.split(actions, starts[1:])
        insts = make_instances([str(i) for i in range(len(segs))], actions, sizes)
        for inst, seg in zip(insts, segs):
            want = np.unique(seg, axis=0)
            assert inst.actions.shape == want.shape
            assert inst.actions.tobytes() == want.tobytes()

    @pytest.mark.parametrize("actions, sizes, message", [
        ([[0.0], [1.0]], [2, 0], "nonempty"),
        (np.empty((2, 0)), [1, 1], "nonempty"),
        ([[0.0], [np.inf]], [1, 1], "finite"),
        ([[1, 2], [3, 4], [5, 6]], [1, 1], "add up to 2 rows.*3 action rows"),
        ([[1, 2], [3, 4]], [1, 2], "add up to 3 rows.*2 action rows"),
        ([[1, 2], [0, 0], [3, 3]], [2], "add up to 2 rows.*3 action rows"),
        ([[1, 2]], [1, 1], "add up to 2 rows.*1 action rows"),
    ])
    def test_rejects_empty_and_nonfinite(self, actions, sizes, message):
        ids = [str(i) for i in range(len(sizes))]
        with pytest.raises(ValueError, match=message):
            make_instances(ids, actions, sizes)

    @pytest.mark.parametrize("ids, sizes, states, message", [
        (["a"], [2, 2], None, "1 ids, 2 sizes"),
        (["a", "b", "c"], [2, 2], None, "3 ids, 2 sizes"),
        (["a", "b"], [2, 2], [None], "2 ids, 2 sizes and 1 states"),
    ])
    def test_rejects_count_mismatch_before_sorting(self, sort_calls, ids, sizes,
                                                   states, message):
        # Both segments are unsorted, so building them would sort.
        with pytest.raises(ValueError, match=message):
            make_instances(ids, [[3, 4], [1, 2], [5, 6], [0, 0]], sizes, states)
        assert sort_calls == []


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
    with pytest.raises(ValueError, match="nonempty"):
        TrajectorySet((), np.empty((0, 2)))


class TestTrajectorySet:
    def test_holds_read_only_actions_and_yields_rows(self):
        data = TrajectorySet(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert data.instance_ids == ("a", "b")
        assert not data.actions.flags.writeable
        assert len(data) == 2
        assert [(t.instance_id, t.action.tolist()) for t in data] == [
            ("a", [1.0, 2.0]), ("b", [3.0, 4.0])]
        assert all(isinstance(t, Trajectory) for t in data)

    @pytest.mark.parametrize("ids, actions, message", [
        (("a", "b"), [1.0, 2.0], "nonempty"),
        (("a",), np.empty((1, 0)), "nonempty"),
        (("a", "b"), [[1.0, 2.0], [1.0]], "sequence"),
        (("a",), [[1.0], [2.0]], "1 instance ids for 2 actions"),
        (("a", "b", "c"), [[1.0], [2.0]], "3 instance ids for 2 actions"),
    ], ids=["one-dimensional", "zero-width", "ragged", "too-few-ids",
            "too-many-ids"])
    def test_rejects_malformed(self, ids, actions, message):
        with pytest.raises(ValueError, match=message):
            TrajectorySet(ids, actions)
